//! The direct route of a narrow convolution: the forward product, the
//! input gradient and the weight gradient of a filter bank of at most
//! [`MAX_OUT`] outputs, computed from the NCHW tensors — no patch matrix,
//! no patch-gradient panel, no `col2im`.
//!
//! All three keep the lowered route's chains, element for element:
//!
//! * **Forward** — an output is one FMA chain over the patch `p = (c, ky,
//!   kx)` ascending from `+0.0`, the bias added after. A tap that lands in
//!   the padding is *multiplied* by `0.0`, as the zeros of the patch
//!   matrix are (the lowered product has no zero-skip, so `0·∞` stays
//!   `NaN`).
//! * **Input gradient** — a patch-gradient value is one FMA chain over the
//!   filters `o` ascending from `+0.0`, added into a `+0.0`-filled pixel
//!   in `col2im`'s order (`ky`, then `kx`, descending); where a tap lands
//!   outside the input there is no add.
//! * **Weight gradient** — an element `dw[f, c, ky, kx]` is one FMA chain
//!   over the output positions `col = (n, oy, ox)` ascending from `+0.0`,
//!   added into `dw` once; a tap that lands in the padding is multiplied
//!   by `0.0`.
//!
//! The AVX-512 kernels ([`crate::simd::conv_direct_forward`],
//! [`crate::simd::conv_direct_input_grad`]) run vectors of 16 lanes —
//! output positions for the forward, input pixels for the input gradient
//! — with the chains of several filters (forward) or input channels
//! (input gradient) of one to four images in registers. At stride 1
//! every tap is a shift, its lanes read by one masked load; vectors run
//! on across rows where output rows are as long as the input rows (every
//! "same" convolution), so 8×8 and 4×4 planes fill all 16 lanes, and stay
//! in one row elsewhere. A strided forward gathers each tap's lanes. A
//! strided input gradient walks its pixels by *phase*: the pixels `(s·u +
//! py, s·t + px)` of one residue `(py, px)` take the same taps, each a
//! stride-1 shift of the output gradient, and a vector's finished sums
//! are scattered to their pixels. The tap tables (an offset and a mask,
//! or 16 indices, per tap) live on the stack: nothing is allocated or
//! copied.
//!
//! The weight gradient's chain runs along the positions, so its vectors
//! run across chains instead ([`crate::simd::conv_direct_weight_grad`]):
//! the lanes hold `(kx, c)` pairs — one row of taps of one position, a run
//! of a channels-last copy of the input in a zero frame (made per call,
//! in the thread's staging buffer, a fraction of the patch matrix) — and
//! the registers hold the rows `ky` of several filters; each position is
//! a load per row and a broadcast of the output gradient, read where it
//! lies, per filter.
//!
//! Only the AVX-512 tier runs direct: on AVX2 and scalar hosts (and under
//! [`crate::simd::ScalarGuard`]) a narrow bank stays on the lowered route,
//! whose GEMM tiles run the same chains.

use super::ConvGeom;
use crate::simd::{self, Isa, LaneTap};
use std::ops::Range;

/// Widest filter bank the direct route takes: the GEMM's own bound for
/// reading B in place (`m ≤ 2·mr` on the 8-row AVX-512 tile).
pub(super) const MAX_OUT: usize = 2 * simd::SIMD_MR512;

/// Most taps (`KH·KW`) a filter of the direct route has: a tap table
/// lives on the stack.
const MAX_TAPS: usize = 49;

/// Positions per vector of the AVX-512 kernels.
const LANES: usize = 16;

/// Whether `o` filters over `geom` take the direct route: on the
/// AVX-512 tier, from the geometry alone.
pub(super) fn takes(o: usize, geom: &ConvGeom) -> bool {
    simd::isa() == Isa::Avx512
        && (1..=MAX_OUT).contains(&o)
        && geom.kh * geom.kw <= MAX_TAPS
        && geom.h * geom.w <= i32::MAX as usize
}

/// `y = W ⋆ x + b` for the `geom.n` images of `x` into `y` (`[N, O, OH,
/// OW]`), every element written. Only where [`takes`] holds.
pub(super) fn forward(
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    o: usize,
    geom: &ConvGeom,
    y: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if simd::isa() == Isa::Avx512 {
        // Sixteen chains a call: the bank rounded up to 4, 8 or 16 filters,
        // over as many images as that leaves room for.
        return match o {
            1..=4 => forward_avx512::<4, 4>(x, w, bias, o, geom, y),
            5..=8 => forward_avx512::<8, 2>(x, w, bias, o, geom, y),
            _ => forward_avx512::<16, 1>(x, w, bias, o, geom, y),
        };
    }
    unreachable!("the direct route runs on the AVX-512 tier only");
}

/// `gx = Wᵀ ⋆ g` for the `geom.n` images of `g` (`[N, O, OH, OW]`) into
/// `gx` (`[N, C, H, W]`), every element written. Only where [`takes`]
/// holds.
pub(super) fn input_grad(w: &[f32], g: &[f32], o: usize, geom: &ConvGeom, gx: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd::isa() == Isa::Avx512 {
        return input_grad_avx512(w, g, o, geom, gx);
    }
    unreachable!("the direct route runs on the AVX-512 tier only");
}

/// The vectors covering a `rows × cols` grid of positions, as (row,
/// column, lanes) of their first lane: [`LANES`] consecutive positions
/// each, running on across rows when `flat`, within one row otherwise.
fn vectors(rows: usize, cols: usize, flat: bool) -> impl Iterator<Item = (usize, usize, usize)> {
    let (run, runs) = if flat { (rows * cols, 1) } else { (cols, rows) };
    (0..runs).flat_map(move |r| {
        (0..run).step_by(LANES).map(move |q| {
            let at = r * cols + q;
            (at / cols, at % cols, LANES.min(run - q))
        })
    })
}

/// The grid positions `(row, column)` of the `lanes` lanes of the vector
/// at `(r0, t0)` in a grid `cols` wide.
fn lane_positions(
    r0: usize,
    t0: usize,
    lanes: usize,
    cols: usize,
) -> impl Iterator<Item = (usize, usize)> {
    (t0..t0 + lanes).map(move |t| (r0 + t / cols, t % cols))
}

/// How the vector at `(r0, t0)` of a grid `cols` wide, `lanes` long,
/// reads a `rows × src_cols` plane shifted by `(dy, dx)`: lane `l` at grid
/// position `(r, t)` reads `(r + dy, t + dx)` when that lies inside the
/// plane. The lanes read consecutive addresses when the vector stays in
/// one row, or when the plane is `cols` wide.
fn lane_tap(
    r0: usize,
    t0: usize,
    lanes: usize,
    cols: usize,
    (rows, src_cols): (usize, usize),
    dy: isize,
    dx: isize,
) -> LaneTap {
    let mut mask = 0u16;
    for (l, (r, t)) in lane_positions(r0, t0, lanes, cols).enumerate() {
        let (y, x) = (r as isize + dy, t as isize + dx);
        if (0..rows as isize).contains(&y) && (0..src_cols as isize).contains(&x) {
            mask |= 1 << l;
        }
    }
    LaneTap { offset: (r0 as isize + dy) * src_cols as isize + t0 as isize + dx, mask }
}

/// How the vector at `(r0, t0)` of the output plane reads tap `(ky, kx)`
/// of a strided convolution: lane `l` at `(oy, ox)` gathers input pixel
/// `(s·oy + ky − pad, s·ox + kx − pad)` when that lies inside the input.
fn gather_tap(
    geom: &ConvGeom,
    r0: usize,
    t0: usize,
    lanes: usize,
    ky: usize,
    kx: usize,
) -> (LaneTap, [i32; LANES]) {
    let (mut tap, mut index) = (LaneTap::default(), [0; LANES]);
    for (l, (oy, ox)) in lane_positions(r0, t0, lanes, geom.ow()).enumerate() {
        let (iy, ix) = (
            (oy * geom.stride + ky).checked_sub(geom.pad),
            (ox * geom.stride + kx).checked_sub(geom.pad),
        );
        if let (Some(iy), Some(ix)) = (iy.filter(|&iy| iy < geom.h), ix.filter(|&ix| ix < geom.w)) {
            tap.mask |= 1 << l;
            index[l] = (iy * geom.w + ix) as i32;
        }
    }
    (tap, index)
}

/// Where the lanes of the vector at `(r0, t0)` of the phase plane of
/// residues `(py, px)` (a grid `cols` wide) sit in their channel: lane `l`
/// at `(u, t)` is pixel `(s·u + py, s·t + px)`.
fn scatter_index(
    geom: &ConvGeom,
    r0: usize,
    t0: usize,
    lanes: usize,
    cols: usize,
    (py, px): (usize, usize),
) -> [i32; LANES] {
    let mut index = [0; LANES];
    for (at, (u, t)) in index.iter_mut().zip(lane_positions(r0, t0, lanes, cols)) {
        *at = ((geom.stride * u + py) * geom.w + geom.stride * t + px) as i32;
    }
    index
}

/// The first `lanes` lanes.
fn lane_mask(lanes: usize) -> u16 {
    ((1u32 << lanes) - 1) as u16
}

/// The AVX-512 forward, `OB` filters (the bank rounded up to 4, 8 or 16)
/// over `V` images a call.
#[cfg(target_arch = "x86_64")]
fn forward_avx512<const OB: usize, const V: usize>(
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    o: usize,
    geom: &ConvGeom,
    y: &mut [f32],
) {
    if geom.stride == 1 {
        forward_vectors::<OB, V, false>(x, w, bias, o, geom, y);
    } else {
        forward_vectors::<OB, V, true>(x, w, bias, o, geom, y);
    }
}

/// [`forward_avx512`], taps read by shifted loads (stride 1) or gathered
/// (`GATHER`, any stride).
#[cfg(target_arch = "x86_64")]
fn forward_vectors<const OB: usize, const V: usize, const GATHER: bool>(
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    o: usize,
    geom: &ConvGeom,
    y: &mut [f32],
) {
    let (oh, ow, hw, taps) = (geom.oh(), geom.ow(), geom.h * geom.w, geom.kh * geom.kw);
    let (plane, patch, n, pad) = (oh * ow, geom.patch_len(), geom.n, geom.pad as isize);
    assert_eq!(x.len(), n * geom.c * hw, "input size mismatch");
    assert_eq!(y.len(), n * o * plane, "output size mismatch");
    // A shifted load runs on across output rows when they are as long as
    // the input rows they read; a gather always does.
    let flat = GATHER || geom.w == ow;
    // Rows past the bank repeat its last filter; they are not stored.
    let rows: [*const f32; OB] = std::array::from_fn(|i| w[i.min(o - 1) * patch..].as_ptr());
    let biases: [f32; OB] = std::array::from_fn(|i| bias[i.min(o - 1)]);
    let (mut table, mut index) = ([LaneTap::default(); MAX_TAPS], [[0; LANES]; MAX_TAPS]);
    for (r0, t0, lanes) in vectors(oh, ow, flat) {
        for (t, (tap, at)) in table.iter_mut().zip(&mut index).enumerate().take(taps) {
            let (ky, kx) = (t / geom.kw, t % geom.kw);
            if GATHER {
                (*tap, *at) = gather_tap(geom, r0, t0, lanes, ky, kx);
            } else {
                *tap = lane_tap(
                    r0,
                    t0,
                    lanes,
                    ow,
                    (geom.h, geom.w),
                    ky as isize - pad,
                    kx as isize - pad,
                );
            }
        }
        for n0 in (0..n).step_by(V) {
            let vecs = V.min(n - n0);
            // Vectors past the batch repeat its last image; they are not
            // stored.
            let image = |v: usize| n0 + v.min(vecs - 1);
            let srcs = std::array::from_fn(|v| x[image(v) * geom.c * hw..].as_ptr());
            let base = y.as_mut_ptr();
            // SAFETY: image(v) < n, so the offset is inside `y`.
            let outs =
                std::array::from_fn(|v| unsafe { base.add(image(v) * o * plane + r0 * ow + t0) });
            // SAFETY: the tier is AVX-512. Each `rows[i]` is a filter, `patch
            // = C·T` floats, and `index` holds a vector per tap. A set lane
            // of a tap reads its input channel at a pixel inside it
            // (`lane_tap`, `gather_tap`); the stored lanes are the `lanes`
            // positions from (r0, t0) of rows o < `o` of the first `vecs`
            // images.
            unsafe {
                simd::conv_direct_forward::<OB, V, GATHER>(
                    &table[..taps],
                    &index[..taps],
                    geom.c,
                    hw,
                    srcs,
                    rows,
                    biases,
                    o,
                    outs,
                    plane,
                    vecs,
                    lane_mask(lanes),
                );
            }
        }
    }
}

/// Input channels of the AVX-512 input gradient a call.
#[cfg(target_arch = "x86_64")]
const GRAD_CHANNELS: usize = 4;

/// Images of the AVX-512 input gradient a call: with
/// [`GRAD_CHANNELS`], eight chains.
#[cfg(target_arch = "x86_64")]
const GRAD_IMAGES: usize = 2;

/// The AVX-512 input gradient, [`GRAD_CHANNELS`] input channels over
/// [`GRAD_IMAGES`] images a call.
#[cfg(target_arch = "x86_64")]
fn input_grad_avx512(w: &[f32], g: &[f32], o: usize, geom: &ConvGeom, gx: &mut [f32]) {
    if geom.stride == 1 {
        input_grad_vectors::<false>(w, g, o, geom, gx);
    } else {
        input_grad_vectors::<true>(w, g, o, geom, gx);
    }
}

/// [`input_grad_avx512`] over the phase planes of the input, stored at
/// stride 1 (one phase plane, the input's own) or scattered (`SCATTER`).
#[cfg(target_arch = "x86_64")]
fn input_grad_vectors<const SCATTER: bool>(
    w: &[f32],
    g: &[f32],
    o: usize,
    geom: &ConvGeom,
    gx: &mut [f32],
) {
    let (oh, ow, hw, taps) = (geom.oh(), geom.ow(), geom.h * geom.w, geom.kh * geom.kw);
    let (plane, patch, n, s) = (oh * ow, geom.patch_len(), geom.n, geom.stride);
    assert_eq!(g.len(), n * o * plane, "output gradient size mismatch");
    assert_eq!(gx.len(), n * geom.c * hw, "input gradient size mismatch");
    let (mut table, mut cols) = ([LaneTap::default(); MAX_TAPS], [0; MAX_TAPS]);
    for (py, px) in (0..s).flat_map(|py| (0..s).map(move |px| (py, px))) {
        let (rows, width) =
            (geom.h.saturating_sub(py).div_ceil(s), geom.w.saturating_sub(px).div_ceil(s));
        // The taps that reach this phase, in `col2im`'s order: pixel (s·u +
        // py, s·t + px) takes tap (ky, kx) from output position (u + dy, t +
        // dx).
        let (mut reads, mut count) = ([(0, 0, 0); MAX_TAPS], 0);
        for ky in (0..geom.kh).rev() {
            let ry = (py + geom.pad) as isize - ky as isize;
            for kx in (0..geom.kw).rev() {
                let rx = (px + geom.pad) as isize - kx as isize;
                if ry.rem_euclid(s as isize) == 0 && rx.rem_euclid(s as isize) == 0 {
                    reads[count] = (ry / s as isize, rx / s as isize, ky * geom.kw + kx);
                    count += 1;
                }
            }
        }
        for (r0, t0, lanes) in vectors(rows, width, width == ow) {
            for ((tap, col), &(dy, dx, k)) in table.iter_mut().zip(&mut cols).zip(&reads[..count]) {
                (*tap, *col) = (lane_tap(r0, t0, lanes, width, (oh, ow), dy, dx), k);
            }
            let (at, index) = match SCATTER {
                true => (0, scatter_index(geom, r0, t0, lanes, width, (py, px))),
                false => (r0 * geom.w + t0, [0; LANES]),
            };
            for c0 in (0..geom.c).step_by(GRAD_CHANNELS) {
                let chans = GRAD_CHANNELS.min(geom.c - c0);
                // Channels past the input repeat its last one; they are not
                // stored.
                let filters = std::array::from_fn(|i| w[(c0 + i.min(chans - 1)) * taps..].as_ptr());
                for n0 in (0..n).step_by(GRAD_IMAGES) {
                    let vecs = GRAD_IMAGES.min(n - n0);
                    let image = |v: usize| n0 + v.min(vecs - 1);
                    let srcs = std::array::from_fn(|v| g[image(v) * o * plane..].as_ptr());
                    let base = gx.as_mut_ptr();
                    // SAFETY: image(v) < n and c0 < C, so the offset is
                    // inside `gx`.
                    let outs = std::array::from_fn(|v| unsafe {
                        base.add((image(v) * geom.c + c0) * hw + at)
                    });
                    // SAFETY: the tier is AVX-512. From `filters[i]`, a
                    // channel's first tap, `o·patch + k` stays inside `w`
                    // for o < `o`, k < T. A set lane reads its output
                    // gradient plane at a position inside it (`lane_tap`).
                    // The stored lanes are the `lanes` pixels from (r0, t0)
                    // of the phase plane, of channels c0.. of the first
                    // `vecs` images: at stride 1 the plane is the channel,
                    // else `index` places them in it, each once.
                    unsafe {
                        simd::conv_direct_input_grad::<GRAD_CHANNELS, GRAD_IMAGES, SCATTER>(
                            &table[..count],
                            &cols[..count],
                            o,
                            plane,
                            srcs,
                            filters,
                            patch,
                            chans,
                            outs,
                            hw,
                            vecs,
                            lane_mask(lanes),
                            &index,
                        );
                    }
                }
            }
        }
    }
}

/// The channels-last grid [`weight_grad`] stages the input on: `rows ×
/// cols` pixels of `depth` floats, pixel `(r, q)` holding the channels of
/// input pixel `(every·r − pad, every·q − pad)` — `0.0` outside the input
/// — read by the taps at `stride`. A 1×1 filter reads only the pixels of
/// its output positions, so those are all it stages (`every` is the
/// convolution's stride); any other stages the whole input in a zero frame
/// `pad` wide, its channels rounded up to a multiple of four where a row
/// of taps (`KW·depth` lanes) needs no more vectors for it: the channels
/// are then laid side by side four at a time.
struct Staged {
    rows: usize,
    cols: usize,
    depth: usize,
    every: usize,
    stride: usize,
}

impl Staged {
    fn of(geom: &ConvGeom, chans: usize) -> Self {
        if geom.kh * geom.kw == 1 {
            return Staged { rows: geom.oh(), cols: geom.ow(), depth: chans, every: geom.stride, stride: 1 };
        }
        let quads = chans.next_multiple_of(4);
        let depth = match (geom.kw * quads).div_ceil(LANES) == (geom.kw * chans).div_ceil(LANES) {
            true => quads,
            false => chans,
        };
        Staged { rows: geom.h + 2 * geom.pad, cols: geom.w + 2 * geom.pad, depth, every: 1, stride: geom.stride }
    }

    /// Floats per image.
    fn image(&self) -> usize {
        self.rows * self.cols * self.depth
    }
}

/// The floats [`weight_grad`] stages for `chans` input channels of
/// `geom`: those channels of the `Staged` grid.
pub(super) fn weight_grad_staging(geom: &ConvGeom, chans: usize) -> usize {
    geom.n * Staged::of(geom, chans).image()
}

/// Whether cutting the input channels of `geom` saves [`weight_grad`]
/// vectors: only where one row of taps of all of them (`KW·C` lanes) runs
/// past one vector.
pub(super) fn weight_grad_cuts(geom: &ConvGeom) -> bool {
    geom.kw * geom.c > LANES
}

/// The weight-gradient chains of the `o` filters of `g` (`[N, O, OH, OW]`)
/// over input channels `chans` of `x` (`[N, C, H, W]`): each `Σ_col g[f,
/// col] · x(col, c, t)`, one FMA chain over `col = (n, oy, ox)` ascending
/// from `+0.0`, handed to `emit(f, c − chans.start, t, chain)` once.
/// `staging` holds [`weight_grad_staging`] floats. Only where [`takes`]
/// holds.
pub(super) fn weight_grad(
    g: &[f32],
    o: usize,
    x: &[f32],
    geom: &ConvGeom,
    chans: Range<usize>,
    staging: &mut [f32],
    emit: impl FnMut(usize, usize, usize, f32),
) {
    #[cfg(target_arch = "x86_64")]
    if simd::isa() == Isa::Avx512 {
        return weight_grad_avx512(g, o, x, geom, chans, staging, emit);
    }
    let _ = (g, o, x, geom, chans, staging, emit);
    unreachable!("the direct route runs on the AVX-512 tier only");
}

/// The AVX-512 weight gradient. Lanes hold `(kx, c)` pairs — a run of the
/// staged grid, one row of taps of one position — and registers the runs
/// of the filter's rows `ky` (in vectors of 16 lanes, three at a time) of
/// four or eight filters: each position is a masked load per vector and a
/// broadcast of `g` per filter, the output gradient read where it lies.
#[cfg(target_arch = "x86_64")]
fn weight_grad_avx512(
    g: &[f32],
    o: usize,
    x: &[f32],
    geom: &ConvGeom,
    chans: Range<usize>,
    staging: &mut [f32],
    emit: impl FnMut(usize, usize, usize, f32),
) {
    let (hw, plane, cs, pad) = (geom.h * geom.w, geom.oh() * geom.ow(), chans.len(), geom.pad);
    let staged = Staged::of(geom, cs);
    let Staged { rows, cols, depth, every, .. } = staged;
    assert_eq!(g.len(), geom.n * o * plane, "output gradient size mismatch");
    assert_eq!(x.len(), geom.n * geom.c * hw, "input size mismatch");
    assert_eq!(staging.len(), weight_grad_staging(geom, cs), "staging size mismatch");
    // The staged grid's columns `lo..hi` lie inside the input's.
    let (lo, hi) = (pad.div_ceil(every), (geom.w + pad).div_ceil(every).min(cols));
    for (r, dst) in staging.chunks_exact_mut(cols * depth).enumerate() {
        let (n, iy) = (r / rows, (r % rows * every).wrapping_sub(pad));
        if iy >= geom.h {
            dst.fill(0.0);
            continue;
        }
        dst[..lo * depth].fill(0.0);
        dst[hi * depth..].fill(0.0);
        // Channels past `chans` repeat its last one: staged, never handed
        // on.
        let row = |k: usize| &x[((n * geom.c + chans.start + k.min(cs - 1)) * geom.h + iy) * geom.w..][..geom.w];
        // Four channels at a time where the row is read whole.
        let quads = if every == 1 { depth / 4 * 4 } else { 0 };
        for k in (0..quads).step_by(4) {
            let dst = &mut dst[lo * depth + k..][..(geom.w - 1) * depth + 4];
            // SAFETY: each row holds W floats, and `dst` the 4 from every
            // `ix·depth`, ix < W.
            unsafe { simd::interleave4(std::array::from_fn(|i| row(k + i).as_ptr()), geom.w, dst.as_mut_ptr(), depth) };
        }
        for k in quads..depth {
            let taps = row(k)[lo * every - pad..].iter().step_by(every);
            for (d, &v) in dst[lo * depth + k..hi * depth].iter_mut().step_by(depth).zip(taps) {
                *d = v;
            }
        }
    }
    let vectors = (geom.kw * depth).div_ceil(LANES);
    match (geom.kh * vectors, o) {
        (1 | 2, _) => weight_grad_vectors::<1, 8>(g, o, geom, &staged, cs, staging, emit),
        (_, 1..=4) => weight_grad_vectors::<3, 4>(g, o, geom, &staged, cs, staging, emit),
        _ => weight_grad_vectors::<3, 8>(g, o, geom, &staged, cs, staging, emit),
    }
}

/// [`weight_grad_avx512`] over `X` vectors and `F` filters a call, for
/// the `cs` channels of the `staged` grid.
#[cfg(target_arch = "x86_64")]
fn weight_grad_vectors<const X: usize, const F: usize>(
    g: &[f32],
    o: usize,
    geom: &ConvGeom,
    staged: &Staged,
    cs: usize,
    staging: &[f32],
    mut emit: impl FnMut(usize, usize, usize, f32),
) {
    let (plane, depth, row) = (geom.oh() * geom.ow(), staged.depth, staged.cols * staged.depth);
    let run = geom.kw * depth;
    let vectors = run.div_ceil(LANES);
    let reads = geom.kh * vectors;
    // Read `r`: row `ky = r / vectors` of the taps, lanes from `16·(r %
    // vectors)` of its run.
    let read = |r: usize| {
        let (ky, first) = (r / vectors, LANES * (r % vectors));
        LaneTap { offset: (ky * row + first) as isize, mask: lane_mask(LANES.min(run - first)) }
    };
    let grid = (geom.n, geom.oh(), geom.ow());
    let strides = (staged.image(), staged.stride * row, staged.stride * depth);
    for r0 in (0..reads).step_by(X) {
        // Reads and filters past the last repeat it; they are not handed on.
        let taps: [LaneTap; X] = std::array::from_fn(|j| read((r0 + j).min(reads - 1)));
        for f0 in (0..o).step_by(F) {
            let filters = std::array::from_fn(|i| g[(f0 + i).min(o - 1) * plane..].as_ptr());
            // SAFETY: the tier is AVX-512. Position (n, oy, ox) reads the
            // run of row ky from pixel (n, s·oy + ky, s·ox) of the staged
            // `[N, rows, cols, depth]` grid (s its stride), `KW·depth`
            // floats that end inside its row (s·(OW − 1) + KW ≤ cols, and
            // s·(OH − 1) + KH ≤ rows); from a filter's plane of image 0,
            // `g` holds `n·O·plane + pos` for every position.
            let sums = unsafe {
                simd::conv_direct_weight_grad::<X, F>(staging.as_ptr(), &taps, grid, strides, filters, o * plane)
            };
            for (f, lanes) in (f0..o).zip(&sums) {
                for (r, vector) in (r0..reads).zip(lanes) {
                    let (ky, first) = (r / vectors, LANES * (r % vectors));
                    let (mut kx, mut c) = (first / depth, first % depth);
                    for &v in &vector[..LANES.min(run - first)] {
                        if c < cs {
                            emit(f, c, ky * geom.kw + kx, v);
                        }
                        (kx, c) = if c + 1 == depth { (kx + 1, 0) } else { (kx, c + 1) };
                    }
                }
            }
        }
    }
}
