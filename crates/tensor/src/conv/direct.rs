//! The direct route of a convolution: the forward product, the input
//! gradient and the weight gradient of a filter bank, computed from the
//! NCHW tensors — no patch matrix, no patch-gradient panel, no `col2im`.
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
//! None of these chains depends on which others share its registers: an
//! output's chain over `p` is the same whichever filters a call holds
//! beside it, and a `dw` chain over `col` the same whichever lanes. So
//! any bank is worked in *tiles* of at most 16 filters, and the bits are
//! those of the lowered route whatever the tiles or the lanes.
//!
//! The AVX-512 kernels ([`crate::simd::conv_direct_forward`],
//! [`crate::simd::conv_direct_input_grad`]) run vectors of 16 lanes with
//! the chains of several filters (forward) or input channels (input
//! gradient) in registers. Where an output plane has 16 positions or more
//! the lanes are *positions* — output positions for the forward, input
//! pixels for the input gradient — over one to four images a call. At
//! stride 1 every tap is a shift, its lanes read by one masked load;
//! vectors run on across rows where output rows are as long as the input
//! rows (every "same" convolution), so 8×8 and 4×4 planes fill all 16
//! lanes, and stay in one row elsewhere. A strided forward gathers each
//! tap's lanes. A strided input gradient walks its pixels by *phase*: the
//! pixels `(s·u + py, s·t + px)` of one residue `(py, px)` take the same
//! taps, each a stride-1 shift of the output gradient, and a vector's
//! finished sums are scattered to their pixels. The tap tables (an offset
//! and a mask, or 16 indices, per tap) live on the stack.
//!
//! Where an output plane has fewer than 16 positions (VGG-11's 2×2 and
//! 1×1 maps) the lanes are *images*: the operand is staged images last —
//! the input in its zero frame for the forward, the output gradient for the
//! input gradient, in the calling thread's staging buffer — so a tap of one
//! position is one load of 16 images, a padding tap reading the frame's
//! `0.0`; a partial vector of images is masked. The result is staged the
//! same way and laid back out as NCHW.
//!
//! The weight gradient's chain runs along the positions, so its vectors
//! run across chains instead ([`crate::simd::conv_direct_weight_grad`]):
//! the lanes hold a run of a copy of the input staged channels last, and
//! the registers the runs of several filters; each position is a load per
//! run and a broadcast of the output gradient, read where it lies, per
//! filter. The copy is the input in a zero frame — a run is one row of
//! taps of one position, `(kx, c)` pairs — or, where the output positions'
//! patch columns are what a filter reads anyway (an output plane under 16
//! positions, a 1×1 filter), the patch columns themselves, `(c, ky, kx)`
//! in the filter's own order. The finished chains are handed on a row of
//! taps at a time, gathered from their lanes — or, for patch columns, a
//! filter's whole row of `dw` at once. The copy is made per call.
//!
//! Only the AVX-512 tier runs direct: on AVX2 and scalar hosts (and under
//! [`crate::simd::ScalarGuard`]) every bank stays on the lowered route,
//! whose GEMM tiles run the same chains.

use super::ConvGeom;
use crate::simd::{self, Isa, LaneTap};
use std::ops::Range;

/// Most taps (`KH·KW`) a filter of the direct route has: a tap table
/// lives on the stack.
const MAX_TAPS: usize = 49;

/// Positions (or images) per vector of the AVX-512 kernels.
const LANES: usize = 16;

/// Whether `o` filters over `geom` take the direct route: on the
/// AVX-512 tier, from the geometry alone.
pub(super) fn takes(o: usize, geom: &ConvGeom) -> bool {
    simd::isa() == Isa::Avx512 && o > 0 && geom.kh * geom.kw <= MAX_TAPS && geom.h * geom.w <= i32::MAX as usize
}

/// Whether the forward product and the input gradient of `geom` hold
/// images in their lanes rather than positions: where an output plane
/// fills less than one vector.
pub(super) fn images_in_lanes(geom: &ConvGeom) -> bool {
    geom.oh() * geom.ow() < LANES
}

/// A grid staged images last: `rows × cols` pixels of `depth` floats, the
/// images of one pixel in consecutive lanes (the batch rounded up to whole
/// vectors), a channel after another.
struct ImagesLast {
    rows: usize,
    cols: usize,
    depth: usize,
}

impl ImagesLast {
    /// The input of `geom` in its zero frame, `pad` wide.
    fn framed(geom: &ConvGeom) -> Self {
        ImagesLast { rows: geom.h + 2 * geom.pad, cols: geom.w + 2 * geom.pad, depth: geom.n.next_multiple_of(LANES) }
    }

    /// The output plane of `geom`.
    fn output(geom: &ConvGeom) -> Self {
        ImagesLast { rows: geom.oh(), cols: geom.ow(), depth: geom.n.next_multiple_of(LANES) }
    }

    /// The input plane of `geom`.
    fn input(geom: &ConvGeom) -> Self {
        ImagesLast { rows: geom.h, cols: geom.w, depth: geom.n.next_multiple_of(LANES) }
    }

    /// Floats per channel.
    fn channel(&self) -> usize {
        self.rows * self.cols * self.depth
    }

    /// Where pixel `p` of channel `k` of an `h × w` plane sits in the grid,
    /// `at` from its edges.
    #[cfg(target_arch = "x86_64")]
    fn line(&self, k: usize, p: usize, w: usize, at: usize) -> usize {
        ((k * self.rows + p / w + at) * self.cols + p % w + at) * self.depth
    }

    /// The `[N, chans, h, w]` planes of `src` into `dst`, each pixel `at`
    /// from the grid's edges: `dst[line(k, r·w + q) + n] = src[((n·chans +
    /// k)·h + r)·w + q]`, the rest zeroed — blocks of 16 pixels of 16
    /// images turned in registers.
    #[cfg(target_arch = "x86_64")]
    fn stage(&self, src: &[f32], (chans, h, w): (usize, usize, usize), at: usize, dst: &mut [f32]) {
        let (pixels, images) = (chans * h * w, src.len() / (chans * h * w).max(1));
        assert!(src.len() == images * pixels && images <= self.depth && dst.len() == chans * self.channel());
        dst.fill(0.0);
        for (j0, n0) in (0..pixels).step_by(LANES).flat_map(|j0| (0..images).step_by(LANES).map(move |n0| (j0, n0))) {
            let (cols, rows) = (LANES.min(pixels - j0), LANES.min(images - n0));
            let from = std::array::from_fn(|r| src[(n0 + r.min(rows - 1)) * pixels + j0..].as_ptr());
            let to = std::array::from_fn(|c| {
                let j = j0 + c.min(cols - 1);
                dst[self.line(j / (h * w), j % (h * w), w, at) + n0..].as_mut_ptr()
            });
            // SAFETY: the tier is AVX-512 (the images-last grids are staged
            // for its kernels only). Row r < rows reads `cols` floats of
            // image n0 + r from pixel j0 on, inside `src`; column c < cols
            // writes `rows` images of pixel j0 + c, inside its line.
            unsafe { simd::transpose16(&from, rows, cols, &to) };
        }
    }

    /// The inverse of [`ImagesLast::stage`] at `at = 0`, into the `[N,
    /// chans, rows, cols]` planes of `dst`, every element written.
    #[cfg(target_arch = "x86_64")]
    fn unstage(&self, src: &[f32], chans: usize, dst: &mut [f32]) {
        let pixels = chans * self.rows * self.cols;
        let images = dst.len() / pixels.max(1);
        assert!(dst.len() == images * pixels && images <= self.depth && src.len() >= pixels * self.depth);
        for (j0, n0) in (0..pixels).step_by(LANES).flat_map(|j0| (0..images).step_by(LANES).map(move |n0| (j0, n0))) {
            let (rows, cols) = (LANES.min(pixels - j0), LANES.min(images - n0));
            let from = std::array::from_fn(|r| src[(j0 + r.min(rows - 1)) * self.depth + n0..].as_ptr());
            let to = std::array::from_fn(|c| dst[(n0 + c.min(cols - 1)) * pixels + j0..].as_mut_ptr());
            // SAFETY: as in `stage`: row r < rows reads `cols` images of
            // pixel j0 + r, inside its line; column c < cols writes `rows`
            // pixels of image n0 + c from j0 on, inside `dst`.
            unsafe { simd::transpose16(&from, rows, cols, &to) };
        }
    }
}

/// The floats [`forward_images`] and [`input_grad_images`] stage for `o`
/// filters over `geom`: the input in its frame (or the input gradient) and
/// the output (or the output gradient), images last.
pub(super) fn staging_len(o: usize, geom: &ConvGeom) -> usize {
    geom.c * ImagesLast::framed(geom).channel() + o * ImagesLast::output(geom).channel()
}

/// The tiles of `width` filters of `filters`, the last one what is left.
fn tiles(filters: Range<usize>, width: usize) -> impl Iterator<Item = Range<usize>> {
    let end = filters.end;
    filters.step_by(width).map(move |f0| f0..end.min(f0 + width))
}

/// `y = W ⋆ x + b` for the `geom.n` images of `x` into `y` (`[N, O, OH,
/// OW]`), every element written, positions in the lanes, a tile of at most
/// 16 filters at a time; the FLOP counter is credited the product's
/// `2·O·patch·N·OH·OW`. Only where [`takes`] holds and
/// [`images_in_lanes`] does not.
pub(super) fn forward(x: &[f32], w: &[f32], bias: &[f32], o: usize, geom: &ConvGeom, y: &mut [f32]) {
    crate::flops::add(2 * (o * geom.patch_len() * geom.cols()) as u64);
    #[cfg(target_arch = "x86_64")]
    if simd::isa() == Isa::Avx512 {
        // Sixteen chains a call: a tile of 4, 8 or 16 filters over as many
        // images as that leaves room for. A tap's vector is shared by the
        // filters of a tile and a filter's weight by its images: shifted
        // loads are cheap, so wide banks take tiles of 8 over two images;
        // a gathered tap is not, so it feeds 16 filters.
        let width = match o {
            1..=4 => 4,
            5..=8 => 8,
            _ if geom.stride == 1 => 8,
            _ => 16,
        };
        for tile in tiles(0..o, width) {
            match width {
                4 => forward_vectors::<4, 4>(x, w, bias, o, tile, geom, y),
                8 => forward_vectors::<8, 2>(x, w, bias, o, tile, geom, y),
                _ => forward_vectors::<16, 1>(x, w, bias, o, tile, geom, y),
            }
        }
        return;
    }
    let _ = (x, w, bias, y);
    unreachable!("the direct route runs on the AVX-512 tier only");
}

/// `gx = Wᵀ ⋆ g` for the `geom.n` images of `g` (`[N, O, OH, OW]`) into
/// `gx` (`[N, C, H, W]`), every element written, positions in the lanes;
/// the FLOP counter is credited the product's `2·O·patch·N·OH·OW`. Only
/// where [`takes`] holds and [`images_in_lanes`] does not.
pub(super) fn input_grad(w: &[f32], g: &[f32], o: usize, geom: &ConvGeom, gx: &mut [f32]) {
    crate::flops::add(2 * (o * geom.patch_len() * geom.cols()) as u64);
    #[cfg(target_arch = "x86_64")]
    if simd::isa() == Isa::Avx512 {
        return match geom.stride {
            1 => input_grad_vectors::<false>(w, g, o, geom, gx),
            _ => input_grad_vectors::<true>(w, g, o, geom, gx),
        };
    }
    let _ = (w, g, gx);
    unreachable!("the direct route runs on the AVX-512 tier only");
}

/// [`forward`]'s tiles, `OB` filters (4, 8 or 16) over `V` images a call:
/// taps read by shifted loads (stride 1) or gathered (any other).
#[cfg(target_arch = "x86_64")]
fn forward_vectors<const OB: usize, const V: usize>(
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    o: usize,
    tile: Range<usize>,
    geom: &ConvGeom,
    y: &mut [f32],
) {
    match geom.stride {
        1 => forward_tile::<OB, V, false>(x, w, bias, o, tile, geom, y),
        _ => forward_tile::<OB, V, true>(x, w, bias, o, tile, geom, y),
    }
}

/// [`forward_vectors`], taps read by shifted loads or gathered
/// (`GATHER`).
#[cfg(target_arch = "x86_64")]
fn forward_tile<const OB: usize, const V: usize, const GATHER: bool>(
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    o: usize,
    tile: Range<usize>,
    geom: &ConvGeom,
    y: &mut [f32],
) {
    let (oh, ow, hw, taps) = (geom.oh(), geom.ow(), geom.h * geom.w, geom.kh * geom.kw);
    let (plane, patch, n, pad) = (oh * ow, geom.patch_len(), geom.n, geom.pad as isize);
    assert_eq!(x.len(), n * geom.c * hw, "input size mismatch");
    assert_eq!(y.len(), n * o * plane, "output size mismatch");
    assert!(tile.end <= o, "filters {tile:?} of {o}");
    // A shifted load runs on across output rows when they are as long as
    // the input rows they read; a gather always does.
    let flat = GATHER || geom.w == ow;
    let (rows, biases) = tile_rows::<OB>(w, bias, patch, &tile);
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
            // SAFETY: image(v) < n and tile.start < o, so the offset is
            // inside `y`.
            let outs = std::array::from_fn(|v| unsafe {
                base.add((image(v) * o + tile.start) * plane + r0 * ow + t0)
            });
            // SAFETY: the tier is AVX-512. Each `rows[i]` is a filter, `patch
            // = C·T` floats, and `index` holds a vector per tap. A set lane
            // of a tap reads its input channel at a pixel inside it
            // (`lane_tap`, `gather_tap`); the stored lanes are the `lanes`
            // positions from (r0, t0) of the tile's rows of the first
            // `vecs` images.
            unsafe {
                simd::conv_direct_forward::<OB, V, GATHER>(
                    &table[..taps],
                    &index[..taps],
                    geom.c,
                    hw,
                    srcs,
                    rows,
                    biases,
                    tile.len(),
                    outs,
                    plane,
                    vecs,
                    lane_mask(lanes),
                );
            }
        }
    }
}

/// The filters of `tile` as `OB` rows of `w` (`patch` floats each) and
/// their biases; rows past the tile repeat its last filter, computed but
/// never stored.
fn tile_rows<const OB: usize>(
    w: &[f32],
    bias: &[f32],
    patch: usize,
    tile: &Range<usize>,
) -> ([*const f32; OB], [f32; OB]) {
    let filter = |i: usize| tile.start + i.min(tile.len() - 1);
    (std::array::from_fn(|i| w[filter(i) * patch..].as_ptr()), std::array::from_fn(|i| bias[filter(i)]))
}

/// `y = W ⋆ x + b` like [`forward`], with images in the lanes: the batch
/// staged images last in its zero frame, each tap a load of 16 images of
/// one framed pixel, the output staged images last and laid back out as
/// NCHW; the FLOP counter is credited the product's `2·O·patch·N·OH·OW`.
/// `staging` holds [`staging_len`] floats. Only where [`takes`] and [`images_in_lanes`]
/// hold.
pub(super) fn forward_images(
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    o: usize,
    geom: &ConvGeom,
    y: &mut [f32],
    staging: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if simd::isa() == Isa::Avx512 {
        return forward_images_avx512(x, w, bias, o, geom, y, staging);
    }
    let _ = (x, w, bias, o, geom, y, staging);
    unreachable!("the direct route runs on the AVX-512 tier only");
}

/// [`forward_images`] on the AVX-512 tier.
#[cfg(target_arch = "x86_64")]
fn forward_images_avx512(
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    o: usize,
    geom: &ConvGeom,
    y: &mut [f32],
    staging: &mut [f32],
) {
    let (framed, out) = (ImagesLast::framed(geom), ImagesLast::output(geom));
    assert_eq!(x.len(), geom.n * geom.c * geom.h * geom.w, "input size mismatch");
    assert_eq!(y.len(), geom.n * o * out.rows * out.cols, "output size mismatch");
    assert_eq!(staging.len(), staging_len(o, geom), "staging size mismatch");
    let (xs, ys) = staging.split_at_mut(geom.c * framed.channel());
    framed.stage(x, (geom.c, geom.h, geom.w), geom.pad, xs);
    crate::flops::add(2 * (o * geom.patch_len() * geom.cols()) as u64);
    // Sixteen chains a call: as many positions as the plane has, up to
    // four, and a tile of as many filters as that leaves room for.
    let width = match out.rows * out.cols {
        1 => 16,
        2 | 3 => 8,
        _ => 4,
    };
    for tile in tiles(0..o, width) {
        match width {
            4 => forward_images_tile::<4, 4>(xs, w, bias, tile, geom, ys),
            8 => forward_images_tile::<8, 2>(xs, w, bias, tile, geom, ys),
            _ => forward_images_tile::<16, 1>(xs, w, bias, tile, geom, ys),
        }
    }
    out.unstage(ys, o, y);
}

/// [`forward_images`] for the filters `tile`, `OB` (4, 8 or 16) over `V`
/// output positions a call, into the staged output `ys`: the lanes of a
/// vector are 16 images of one position.
#[cfg(target_arch = "x86_64")]
fn forward_images_tile<const OB: usize, const V: usize>(
    xs: &[f32],
    w: &[f32],
    bias: &[f32],
    tile: Range<usize>,
    geom: &ConvGeom,
    ys: &mut [f32],
) {
    let (framed, out) = (ImagesLast::framed(geom), ImagesLast::output(geom));
    let (plane, taps, depth, s) = (out.rows * out.cols, geom.kh * geom.kw, framed.depth, geom.stride);
    let (rows, biases) = tile_rows::<OB>(w, bias, geom.patch_len(), &tile);
    assert!(ys.len() >= tile.end * out.channel(), "filters {tile:?} outside the staged output");
    for n0 in (0..geom.n).step_by(LANES) {
        let store = lane_mask(LANES.min(geom.n - n0));
        // Tap (ky, kx) of the position whose framed patch starts at a pixel
        // reads the pixel (ky, kx) past it: inside the frame, `0.0` where
        // it is padding.
        let mut table = [LaneTap::default(); MAX_TAPS];
        for (t, tap) in table.iter_mut().enumerate().take(taps) {
            *tap = LaneTap { offset: ((t / geom.kw * framed.cols + t % geom.kw) * depth) as isize, mask: store };
        }
        for p0 in (0..plane).step_by(V) {
            let vecs = V.min(plane - p0);
            // Vectors past the plane repeat its last position; they are not
            // stored.
            let position = |v: usize| p0 + v.min(vecs - 1);
            let corner = |v: usize| {
                let (oy, ox) = (position(v) / out.cols, position(v) % out.cols);
                (s * oy * framed.cols + s * ox) * depth + n0
            };
            let srcs = std::array::from_fn(|v| xs[corner(v)..].as_ptr());
            let base = ys.as_mut_ptr();
            // SAFETY: position(v) < plane, tile.start < tile.end and n0 <
            // depth, so the offset is inside `ys` (asserted above).
            let outs = std::array::from_fn(|v| unsafe { base.add((tile.start * plane + position(v)) * depth + n0) });
            // SAFETY: the tier is AVX-512. Each `rows[i]` is a filter of
            // `patch = C·T` floats. From a position's framed corner (s·oy,
            // s·ox), tap (ky, kx) of channel c reads pixel (s·oy + ky, s·ox
            // + kx) < (rows, cols) of the frame (s·(OH − 1) + KH ≤ H + 2·pad),
            // images n0.. of its `depth`. The stored lanes are those images
            // of the tile's rows at the first `vecs` positions.
            unsafe {
                simd::conv_direct_forward::<OB, V, false>(
                    &table[..taps],
                    &[],
                    geom.c,
                    framed.channel(),
                    srcs,
                    rows,
                    biases,
                    tile.len(),
                    outs,
                    out.channel(),
                    vecs,
                    store,
                );
            }
        }
    }
}

/// Input channels of the AVX-512 input gradient a call, positions in the
/// lanes.
#[cfg(target_arch = "x86_64")]
const GRAD_CHANNELS: usize = 4;

/// Images of the AVX-512 input gradient a call, positions in the lanes:
/// with [`GRAD_CHANNELS`], eight chains.
#[cfg(target_arch = "x86_64")]
const GRAD_IMAGES: usize = 2;

/// Input channels of the AVX-512 input gradient a call, images in the
/// lanes: eight chains.
#[cfg(target_arch = "x86_64")]
const GRAD_CHANNELS_IMAGES: usize = 8;

/// The AVX-512 input gradient, positions in the lanes: [`GRAD_CHANNELS`]
/// input channels over [`GRAD_IMAGES`] images a call, over the phase
/// planes of the input, stored at stride 1 (one phase plane, the input's
/// own) or scattered (`SCATTER`).
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

/// `gx = Wᵀ ⋆ g` like [`input_grad`], with images in the lanes: the output
/// gradient staged images last, each pixel's taps in `col2im`'s order
/// (`ky`, then `kx`, descending) over [`GRAD_CHANNELS_IMAGES`] input
/// channels a call — a tap's lanes 16 images of the one output position it
/// takes — and the input gradient staged images last and laid back out as
/// NCHW; the FLOP counter is credited the product's `2·O·patch·N·OH·OW`.
/// `staging` holds [`staging_len`] floats. Only where [`takes`] and
/// [`images_in_lanes`] hold.
pub(super) fn input_grad_images(
    w: &[f32],
    g: &[f32],
    o: usize,
    geom: &ConvGeom,
    gx: &mut [f32],
    staging: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if simd::isa() == Isa::Avx512 {
        let (out, input) = (ImagesLast::output(geom), ImagesLast::input(geom));
        assert_eq!(g.len(), geom.n * o * out.rows * out.cols, "output gradient size mismatch");
        assert_eq!(gx.len(), geom.n * geom.c * geom.h * geom.w, "input gradient size mismatch");
        assert_eq!(staging.len(), staging_len(o, geom), "staging size mismatch");
        let (gxs, gs) = staging.split_at_mut(geom.c * ImagesLast::framed(geom).channel());
        let (gxs, gs) = (&mut gxs[..geom.c * input.channel()], &mut gs[..o * out.channel()]);
        out.stage(g, (o, out.rows, out.cols), 0, gs);
        crate::flops::add(2 * (o * geom.patch_len() * geom.cols()) as u64);
        input_grad_images_avx512(w, gs, o, geom, gxs);
        return input.unstage(gxs, geom.c, gx);
    }
    let _ = (w, g, o, geom, gx, staging);
    unreachable!("the direct route runs on the AVX-512 tier only");
}

/// [`input_grad_images`] on the AVX-512 tier, from the staged output
/// gradient `gs` into the staged input gradient `gxs`.
#[cfg(target_arch = "x86_64")]
fn input_grad_images_avx512(w: &[f32], gs: &[f32], o: usize, geom: &ConvGeom, gxs: &mut [f32]) {
    let (out, input) = (ImagesLast::output(geom), ImagesLast::input(geom));
    let (hw, taps, patch, s, depth) = (geom.h * geom.w, geom.kh * geom.kw, geom.patch_len(), geom.stride, out.depth);
    assert_eq!(gxs.len(), geom.c * input.channel(), "staged input gradient size mismatch");
    let (mut table, mut cols) = ([LaneTap::default(); MAX_TAPS], [0; MAX_TAPS]);
    for (iy, ix) in (0..geom.h).flat_map(|iy| (0..geom.w).map(move |ix| (iy, ix))) {
        // The taps that reach this pixel, in `col2im`'s order: tap (ky, kx)
        // from output position ((iy + pad − ky) / s, (ix + pad − kx) / s)
        // where that is one.
        let mut count = 0;
        for ky in (0..geom.kh).rev() {
            let Some(ry) = (iy + geom.pad).checked_sub(ky).filter(|ry| ry % s == 0 && ry / s < out.rows) else {
                continue;
            };
            for kx in (0..geom.kw).rev() {
                if let Some(rx) = (ix + geom.pad).checked_sub(kx).filter(|rx| rx % s == 0 && rx / s < out.cols) {
                    table[count].offset = ((ry / s * out.cols + rx / s) * depth) as isize;
                    cols[count] = ky * geom.kw + kx;
                    count += 1;
                }
            }
        }
        for n0 in (0..geom.n).step_by(LANES) {
            let store = lane_mask(LANES.min(geom.n - n0));
            for tap in &mut table[..count] {
                tap.mask = store;
            }
            for c0 in (0..geom.c).step_by(GRAD_CHANNELS_IMAGES) {
                let held = GRAD_CHANNELS_IMAGES.min(geom.c - c0);
                // Channels past the input repeat its last one; they are not
                // stored.
                let filters = std::array::from_fn(|i| w[(c0 + i.min(held - 1)) * taps..].as_ptr());
                let at = (c0 * hw + iy * geom.w + ix) * depth + n0;
                // SAFETY: the tier is AVX-512. From `filters[i]`, a channel's
                // first tap, `o·patch + k` stays inside `w` for o < `o`, k <
                // T. A tap reads output position `offset / depth` < plane of
                // every filter's staged plane, images n0.. of its `depth`.
                // The stored lanes are those images of the pixel in channels
                // c0.., inside `gxs` (asserted above).
                unsafe {
                    simd::conv_direct_input_grad::<GRAD_CHANNELS_IMAGES, 1, false>(
                        &table[..count],
                        &cols[..count],
                        o,
                        out.channel(),
                        [gs[n0..].as_ptr()],
                        filters,
                        patch,
                        held,
                        [gxs.as_mut_ptr().add(at)],
                        input.channel(),
                        1,
                        store,
                        &[0; LANES],
                    );
                }
            }
        }
    }
}

/// The channels-last copy [`weight_grad`] stages the input on: `rows ×
/// cols` pixels of `depth` floats, read by `kh` rows of taps of `run`
/// lanes at `stride`, each row of taps in `vectors` vectors.
///
/// Where an output plane has fewer than 16 positions, or the filter is
/// 1×1, a pixel is the patch column of an output position itself — `(c,
/// ky, kx)` in the lanes, the filter's own order, `0.0` for a tap in the
/// padding — read as one row of taps of one tap: no larger than the input
/// in its frame for a 1×1 plane or filter, and a filter's chains land in
/// `dw`'s order. Elsewhere pixel `(r, q)` holds the channels of input
/// pixel `(r − pad, q − pad)` in a zero frame `pad` wide (`(kx, c)` in the
/// lanes), the channels rounded up to a multiple of four where a row of
/// taps (`KW·depth` lanes) needs no more vectors for it: they are then
/// laid side by side four at a time.
struct Staged {
    rows: usize,
    cols: usize,
    depth: usize,
    stride: usize,
    kh: usize,
    run: usize,
    vectors: usize,
    columns: bool,
}

impl Staged {
    fn of(geom: &ConvGeom) -> Self {
        let (oh, ow, chans) = (geom.oh(), geom.ow(), geom.c);
        if columns(geom) {
            let taps = geom.kh * geom.kw;
            let depth = chans * taps;
            let vectors = depth.div_ceil(LANES);
            return Staged { rows: oh, cols: ow, depth, stride: 1, kh: 1, run: depth, vectors, columns: true };
        }
        let vectors = |depth: usize| (geom.kw * depth).div_ceil(LANES);
        let quads = chans.next_multiple_of(4);
        let depth = if vectors(quads) == vectors(chans) { quads } else { chans };
        Staged {
            rows: geom.h + 2 * geom.pad,
            cols: geom.w + 2 * geom.pad,
            depth,
            stride: geom.stride,
            kh: geom.kh,
            run: geom.kw * depth,
            vectors: vectors(depth),
            columns: false,
        }
    }

    /// Floats per image.
    fn image(&self) -> usize {
        self.rows * self.cols * self.depth
    }

    /// Vectors of a filter's chains.
    fn reads(&self) -> usize {
        self.kh * self.vectors
    }

    /// Where the chain of channel `c`, tap `t = (ky, kx)` of `geom` sits
    /// among a filter's [`Staged::reads`] vectors.
    fn lane(&self, c: usize, t: usize, geom: &ConvGeom) -> usize {
        match self.columns {
            true => c * geom.kh * geom.kw + t,
            false => t / geom.kw * self.vectors * LANES + t % geom.kw * self.depth + c,
        }
    }

    /// The images of `x` into `grid`.
    #[cfg(target_arch = "x86_64")]
    fn stage(&self, x: &[f32], geom: &ConvGeom, grid: &mut [f32]) {
        let (hw, pad, cs) = (geom.h * geom.w, geom.pad, geom.c);
        if self.columns {
            // Tap by tap, over the output positions where it lands inside
            // the input.
            grid.fill(0.0);
            let (plane, taps) = (self.rows * self.cols, geom.kh * geom.kw);
            for t in 0..taps {
                let (y, x_) = (geom.tap_span(t / geom.kw, geom.h, self.rows), geom.tap_span(t % geom.kw, geom.w, self.cols));
                for (n, image) in x.chunks_exact(cs * hw).enumerate() {
                    for oy in y.lo..y.hi {
                        let iy = y.first + (oy - y.lo) * geom.stride;
                        for ox in x_.lo..x_.hi {
                            let ix = x_.first + (ox - x_.lo) * geom.stride;
                            let dst = &mut grid[(n * plane + oy * self.cols + ox) * self.depth + t..];
                            let src = image[iy * geom.w + ix..].iter().step_by(hw);
                            for (d, &v) in dst.iter_mut().step_by(taps).zip(src) {
                                *d = v;
                            }
                        }
                    }
                }
            }
            return;
        }
        let (rows, cols, depth) = (self.rows, self.cols, self.depth);
        for (r, dst) in grid.chunks_exact_mut(cols * depth).enumerate() {
            let (n, iy) = (r / rows, (r % rows).wrapping_sub(pad));
            if iy >= geom.h {
                dst.fill(0.0);
                continue;
            }
            dst[..pad * depth].fill(0.0);
            dst[(geom.w + pad) * depth..].fill(0.0);
            // Channels past the last (the depth rounds up to four) repeat
            // it: staged, never handed on.
            let row = |k: usize| &x[((n * cs + k.min(cs - 1)) * geom.h + iy) * geom.w..][..geom.w];
            let quads = depth / 4 * 4;
            for k in (0..quads).step_by(4) {
                let dst = &mut dst[pad * depth + k..][..(geom.w - 1) * depth + 4];
                // SAFETY: each row holds W floats, and `dst` the 4 from every
                // `ix·depth`, ix < W.
                unsafe { simd::interleave4(std::array::from_fn(|i| row(k + i).as_ptr()), geom.w, dst.as_mut_ptr(), depth) };
            }
            for k in quads..depth {
                for (d, &v) in dst[pad * depth + k..].iter_mut().step_by(depth).zip(row(k)) {
                    *d = v;
                }
            }
        }
    }
}

/// Whether [`Staged`] holds the patch columns for `geom`: an output plane
/// of fewer than 16 positions, or a 1×1 filter.
fn columns(geom: &ConvGeom) -> bool {
    geom.kh * geom.kw == 1 || images_in_lanes(geom)
}

/// The floats [`weight_grad`] stages for `o` filters over `geom`: the
/// `Staged` copy of the input, and every filter's chains as the lanes hold
/// them.
pub(super) fn weight_grad_staging(o: usize, geom: &ConvGeom) -> usize {
    let staged = Staged::of(geom);
    geom.n * staged.image() + o * staged.reads() * LANES
}

/// The weight-gradient chains of the `o` filters of `g` (`[N, O, OH, OW]`)
/// over the input `x` (`[N, C, H, W]`): each `Σ_col g[f, col] · x(col, c,
/// t)`, one FMA chain over `col = (n, oy, ox)` ascending from `+0.0`,
/// added into `dw[f, c, t]` once. The FLOP counter is credited the
/// product's `2·O·patch·N·OH·OW`. `staging` holds [`weight_grad_staging`]
/// floats. Only where [`takes`] holds.
pub(super) fn weight_grad(g: &[f32], o: usize, x: &[f32], geom: &ConvGeom, staging: &mut [f32], dw: &mut [f32]) {
    let staged = Staged::of(geom);
    assert_eq!(g.len(), geom.n * o * geom.oh() * geom.ow(), "output gradient size mismatch");
    assert_eq!(x.len(), geom.n * geom.c * geom.h * geom.w, "input size mismatch");
    assert_eq!(staging.len(), weight_grad_staging(o, geom), "staging size mismatch");
    assert_eq!(dw.len(), o * geom.patch_len(), "weight gradient size mismatch");
    crate::flops::add(2 * (o * geom.patch_len() * geom.cols()) as u64);
    #[cfg(target_arch = "x86_64")]
    if simd::isa() == Isa::Avx512 {
        let (grid, sums) = staging.split_at_mut(geom.n * staged.image());
        staged.stage(x, geom, grid);
        return weight_grad_avx512(g, o, geom, &staged, grid, sums, dw);
    }
    let _ = (g, x, staging, dw);
    unreachable!("the direct route runs on the AVX-512 tier only");
}

/// [`weight_grad`] on the AVX-512 tier, from the `staged` copy in `grid`.
/// Lanes hold a run of the copy and registers the runs of a filter (in vectors of 16 lanes, up to three at a time) of four or
/// eight filters: each position is a masked load per vector and a
/// broadcast of `g` per filter, the output gradient read where it lies.
/// The finished vectors are kept in `sums` as the lanes hold them, then
/// added into `dw` a row of taps `(f, c)` at a time: a straight run where
/// the lanes hold the patch columns, else gathered from its lanes.
#[cfg(target_arch = "x86_64")]
fn weight_grad_avx512(
    g: &[f32],
    o: usize,
    geom: &ConvGeom,
    staged: &Staged,
    grid: &[f32],
    sums: &mut [f32],
    dw: &mut [f32],
) {
    let (taps, patch) = (geom.kh * geom.kw, geom.patch_len());
    match (staged.reads(), o) {
        (1 | 2, _) => weight_grad_vectors::<1, 8>(g, o, geom, staged, grid, sums),
        (_, 1..=4) => weight_grad_vectors::<3, 4>(g, o, geom, staged, grid, sums),
        _ => weight_grad_vectors::<3, 8>(g, o, geom, staged, grid, sums),
    }
    let mut index = [[0; LANES]; MAX_TAPS.div_ceil(LANES)];
    for t in 0..taps {
        index[t / LANES][t % LANES] = staged.lane(0, t, geom) as i32;
    }
    let step = staged.lane(1, 0, geom);
    for (dw, chains) in dw.chunks_exact_mut(patch).zip(sums.chunks_exact(staged.reads() * LANES)) {
        if staged.columns {
            // The filter's chains run on in `dw`'s order.
            dw.iter_mut().zip(chains).for_each(|(d, &v)| *d += v);
            continue;
        }
        for c in 0..geom.c {
            let row = &mut dw[c * taps..][..taps];
            for (k, index) in index.iter().enumerate().take(taps.div_ceil(LANES)) {
                // SAFETY: the tier is AVX-512. A lane's index is below
                // `reads·16 − c·step` (every chain lies among the filter's
                // vectors), and the row holds `taps` floats.
                unsafe {
                    let (src, lanes) = (chains[c * step..].as_ptr(), lane_mask(LANES.min(taps - k * LANES)));
                    simd::gather_row(src, index, lanes, row[k * LANES..].as_mut_ptr());
                }
            }
        }
    }
}

/// [`weight_grad_avx512`]'s chains over `X` vectors and `F` filters a
/// call, from the `staged` grid into `sums`, a filter's
/// [`Staged::reads`] vectors after another's.
#[cfg(target_arch = "x86_64")]
fn weight_grad_vectors<const X: usize, const F: usize>(
    g: &[f32],
    o: usize,
    geom: &ConvGeom,
    staged: &Staged,
    grid: &[f32],
    sums: &mut [f32],
) {
    let (plane, depth, row, vectors) = (geom.oh() * geom.ow(), staged.depth, staged.cols * staged.depth, staged.vectors);
    let (run, reads) = (staged.run, staged.reads());
    assert_eq!(sums.len(), o * reads * LANES, "chains size mismatch");
    // Read `r`: row `ky = r / vectors` of the taps, lanes from `16·(r %
    // vectors)` of its run.
    let read = |r: usize| {
        let (ky, first) = (r / vectors, LANES * (r % vectors));
        LaneTap { offset: (ky * row + first) as isize, mask: lane_mask(LANES.min(run - first)) }
    };
    let shape = (geom.n, geom.oh(), geom.ow());
    let strides = (staged.image(), staged.stride * row, staged.stride * depth);
    for r0 in (0..reads).step_by(X) {
        // Reads and filters past the last repeat it; they are not kept.
        let taps: [LaneTap; X] = std::array::from_fn(|j| read((r0 + j).min(reads - 1)));
        for f0 in (0..o).step_by(F) {
            let rows = std::array::from_fn(|i| g[(f0 + i).min(o - 1) * plane..].as_ptr());
            // SAFETY: the tier is AVX-512. Position (n, oy, ox) reads the
            // run of row ky from pixel (n, s·oy + ky, s·ox) of the staged
            // `[N, rows, cols, depth]` grid (s its stride), `run` floats
            // that end inside its row (s·(OW − 1) + KW ≤ cols, and s·(OH −
            // 1) + KH ≤ rows, for the frame; a patch column is a pixel);
            // from a filter's plane of image 0, `g` holds `n·O·plane + pos`
            // for every position.
            let chains = unsafe {
                simd::conv_direct_weight_grad::<X, F>(grid.as_ptr(), &taps, shape, strides, rows, o * plane)
            };
            for (f, lanes) in (f0..o).zip(&chains) {
                for (r, vector) in (r0..reads).zip(lanes) {
                    sums[(f * reads + r) * LANES..][..LANES].copy_from_slice(vector);
                }
            }
        }
    }
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
