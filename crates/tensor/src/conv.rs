//! Convolution: lowering (`im2col` / `col2im`), the direct route, and the
//! three products of a layer.
//!
//! A convolution of an `[N, C, H, W]` input with `[O, C, KH, KW]` filters
//! (stride `s`, zero padding `p`) can be computed by unrolling every input
//! patch into a column of a `[C·KH·KW, N·OH·OW]` matrix and multiplying by
//! the filter matrix `[O, C·KH·KW]`. The transposed scatter (`col2im`)
//! implements the gradient with respect to the input.
//!
//! Both kernels walk the patch matrix the way it is stored. One patch row
//! is one kernel tap `(c, ky, kx)` seen from every output position, and
//! within an output row `(n, oy)` consecutive `ox` read consecutive (or
//! `s`-strided) input pixels — so a tap's row is a sequence of *runs*: a
//! zero prefix where the tap hangs over the left edge, a straight copy of
//! an input-row segment, a zero suffix. The edges depend only on `kx`
//! (and whole zero output rows only on `ky`), so they are computed once
//! per tap, and every load and store inside a run is at stride 1. Where
//! output rows are as long as input rows (every stride-1 "same"
//! convolution), the runs of one image join into a single copy. Planes
//! too small for runs to pay (`OH·OW ≤ 16`: the 4×4, 2×2 and 1×1 maps of
//! VGG-11's deep layers and ResNet stage 3) instead resolve a tap into
//! one offset per output position of the plane, once, and gather through
//! that table a few images at a time. Which of the two it is follows
//! from the geometry alone.
//!
//! The three products of a convolution live here as well, each on the
//! route its shape and the tier want, each run whole on the calling
//! thread:
//!
//! | product | geometry (AVX-512) | route |
//! |---|---|---|
//! | [`forward`] | `OH·OW ≥ 16` | direct: an FMA chain per output over the input where it lies, positions in the lanes, tiles of 4–16 filters |
//! | | `OH·OW < 16` | direct: the batch staged images last once, 16 images in the lanes |
//! | [`input_grad`] | `OH·OW ≥ 16` | direct: a chain per patch-gradient value, added into its pixel, pixels in the lanes |
//! | | `OH·OW < 16` | direct: the output gradient staged images last once, 16 images in the lanes |
//! | [`weight_grad`] | `OH·OW ≥ 16`, `KH·KW > 1` | direct: an FMA chain per `(filter, channel, tap)` over the output positions, `(kx, c)` pairs in the lanes, from a channels-last copy of the input in a zero frame |
//! | | `OH·OW < 16` or a 1×1 filter | direct: the same chains, the patch columns of the output positions in the lanes |
//!
//! On AVX2 and scalar hosts every product lowers ([`forward_lowered`]:
//! `W · cols`; [`weight_grad_lowered`]: `g · colsᵀ`;
//! [`input_grad_lowered`]: `col2im(Wᵀ · g)`, a panel of whole images at a
//! time). [`is_direct`] says which (the direct route also wants at most
//! 7×7 taps). The direct route (the `direct` submodule) runs the lowered
//! route's chains element for element: the bits depend on neither the
//! route nor the tier. The int8 forward (`kemf_nn`'s `Precision::Int8`)
//! lowers too. A training step on AVX-512 lowers nothing at all.
//!
//! The patch matrix itself is the largest temporary of a convolutional
//! step — `KH·KW` times the layer's input — and it is needed only while
//! one layer's products run. [`with_lowering`] therefore lends each
//! thread (a cohort trains its clients on several) a single buffer for
//! it, apart from any model's
//! [`crate::workspace::Workspace`]: a best-fit pool that was handed a
//! freed patch matrix would give it to the next activation request and
//! keep one per layer alive after all.

use crate::gemm::{gemm_ops, Accumulate, ColMajor, NchwGather, NchwScatterBias, RowMajor, Store};
use crate::par;
use crate::tensor::Tensor;
use std::cell::RefCell;
use std::thread::LocalKey;

mod direct;

thread_local! {
    /// This thread's patch-matrix buffer; see [`with_lowering`].
    static LOWERING: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// This thread's images-last and channels-last copies of the direct
    /// route's operands; see [`forward`] and [`weight_grad`].
    static STAGING: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` on the first `len` elements of this thread's lowering buffer.
///
/// The buffer grows to the largest patch matrix the thread has lowered
/// and is then reused by every convolution the thread runs, forward and
/// backward, so a steady-state step allocates nothing for it. Contents
/// are whatever the last user left: `f` must write before it reads
/// (`im2col` and a plain-store GEMM both write every element). It dies
/// with the thread, or on [`release_lowering`].
pub fn with_lowering<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    with_grown(&LOWERING, len, f)
}

/// `f` on the first `len` elements of the thread-local `buffer`, grown to
/// at least that and kept.
fn with_grown<R>(buffer: &'static LocalKey<RefCell<Vec<f32>>>, len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    buffer.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < len {
            // Not `resize`: the old contents are dead, so neither copy
            // them nor hold them while the larger buffer is mapped.
            *buf = Vec::new();
            *buf = vec![0.0; len];
        }
        f(&mut buf[..len])
    })
}

/// Free the lowering and staging buffers of this thread and, called
/// outside a share, of every [`par`] helper — the threads a cohort's
/// clients or the teacher pass ran on. For a long-lived thread that has just finished
/// a pass at an unusually large batch (server-side evaluation, a
/// teacher's logit pass) and goes back to smaller ones. Inside a share (a
/// client of a cohort, a teacher of the teacher pass) it frees the
/// calling thread's buffers only.
pub fn release_lowering() {
    par::each_thread(|| {
        for buffer in [&LOWERING, &STAGING] {
            buffer.with(|cell| *cell.borrow_mut() = Vec::new());
        }
    });
}

/// Elements the lowering buffers hold: this thread's and, called outside
/// a share, every [`par`] helper's — what [`release_lowering`] frees.
pub fn lowering_held() -> usize {
    let held = std::sync::atomic::AtomicUsize::new(0);
    par::each_thread(|| {
        let len = LOWERING.with(|cell| cell.borrow().len());
        held.fetch_add(len, std::sync::atomic::Ordering::Relaxed);
    });
    held.into_inner()
}

/// Whether [`forward`], [`weight_grad`] and [`input_grad`] run `o`
/// filters over `geom` directly from the NCHW tensors rather than through
/// the patch matrix: any bank of filters of at most 7×7 taps, on the
/// AVX-512 tier — tiles of at most 16 filters, positions in the lanes
/// where an output plane fills a vector and images where it does not.
/// Decided by the geometry and the calling thread's tier (which [`par`]
/// hands to its helpers).
pub fn is_direct(o: usize, geom: &ConvGeom) -> bool {
    direct::takes(o, geom)
}

/// Geometry of one convolution, shared by forward and backward passes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvGeom {
    pub n: usize,
    pub c: usize,
    pub h: usize,
    pub w: usize,
    pub kh: usize,
    pub kw: usize,
    pub stride: usize,
    pub pad: usize,
}

impl ConvGeom {
    /// Output height.
    #[inline]
    pub fn oh(&self) -> usize {
        (self.h + 2 * self.pad - self.kh) / self.stride + 1
    }

    /// Output width.
    #[inline]
    pub fn ow(&self) -> usize {
        (self.w + 2 * self.pad - self.kw) / self.stride + 1
    }

    /// Rows of the unrolled patch matrix (`C·KH·KW`).
    #[inline]
    pub fn patch_len(&self) -> usize {
        self.c * self.kh * self.kw
    }

    /// Columns of the unrolled patch matrix (`N·OH·OW`).
    #[inline]
    pub fn cols(&self) -> usize {
        self.n * self.oh() * self.ow()
    }

    fn check(&self) {
        assert!(self.stride > 0, "stride must be positive");
        assert!(
            self.h + 2 * self.pad >= self.kh && self.w + 2 * self.pad >= self.kw,
            "kernel {}, {} larger than padded input {}x{}",
            self.kh,
            self.kw,
            self.h + 2 * self.pad,
            self.w + 2 * self.pad
        );
    }

    /// The output positions `lo..hi` (of `out` along one axis) whose tap
    /// `k` lands inside an input axis of length `len`, and the input
    /// coordinate the first of them reads: `o·stride + k − pad ∈ [0, len)`.
    fn tap_span(&self, k: usize, len: usize, out: usize) -> Span {
        let lo = self.pad.saturating_sub(k).div_ceil(self.stride);
        let hi = (len + self.pad).saturating_sub(k).div_ceil(self.stride).min(out);
        Span { lo: lo.min(hi), hi, first: (lo * self.stride + k).saturating_sub(self.pad) }
    }

    /// How tap `(ky, kx)` reads one image plane. Depends on nothing but
    /// the tap, so it is worked out once and reused for every channel and
    /// image.
    fn tap(&self, ky: usize, kx: usize) -> Tap {
        let (oh, ow) = (self.oh(), self.ow());
        let (y, x) = (self.tap_span(ky, self.h, oh), self.tap_span(kx, self.w, ow));
        if y.lo == y.hi || x.lo == x.hi {
            return Tap::Padding;
        }
        if oh * ow > SMALL_PLANE {
            return Tap::Runs { y, x };
        }
        // As many whole images as fit the table share one pass over it,
        // so the inner loop stays long on 2×2 and 1×1 planes.
        let (plane, images) = (oh * ow, SMALL_PLANE / (oh * ow));
        let mut offsets = [OUTSIDE; SMALL_PLANE];
        let mut hits = [(0, 0); SMALL_PLANE];
        let mut count = 0;
        for i in 0..images {
            for oy in y.lo..y.hi {
                let iy = y.first + (oy - y.lo) * self.stride;
                for ox in x.lo..x.hi {
                    let ix = x.first + (ox - x.lo) * self.stride;
                    let (p, offset) = (i * plane + oy * ow + ox, (i * self.c * self.h + iy) * self.w + ix);
                    offsets[p] = offset;
                    hits[count] = (p, offset);
                    count += 1;
                }
            }
        }
        Tap::Gather { offsets, hits, count, images }
    }

    /// The patch-matrix row of tap `(c, ky, kx)`.
    #[inline]
    fn patch_row(&self, c: usize, ky: usize, kx: usize) -> usize {
        (c * self.kh + ky) * self.kw + kx
    }
}

/// Output positions `lo..hi` of one axis that a tap maps inside the
/// input, the first of them reading input coordinate `first`.
struct Span {
    lo: usize,
    hi: usize,
    first: usize,
}

/// The loop shape of one tap, chosen from the geometry alone (see the
/// module docs).
// One value on the stack per tap; a boxed table would put a heap
// allocation in every training step.
#[allow(clippy::large_enum_variant)]
enum Tap {
    /// The tap lands in the padding from every output position (a 3×3
    /// kernel's outer ring on a 1×1 plane): its row is all zeros.
    Padding,
    /// Row runs: per output row in `y`, output columns `x` copy an input
    /// row segment and the rest of the row is padding.
    Runs { y: Span, x: Span },
    /// Small plane: for the output positions of `images` consecutive
    /// images (their stretch of the patch row), the offset each reads from
    /// the first image's channel plane. `offsets` is indexed by position,
    /// [`OUTSIDE`] where the tap lands in the padding — every position is
    /// written on the way out; `hits[..count]` lists only the `(position,
    /// offset)` pairs inside the input — only those contribute on the way
    /// back.
    Gather {
        offsets: [usize; SMALL_PLANE],
        hits: [(usize, usize); SMALL_PLANE],
        count: usize,
        images: usize,
    },
}

/// Largest output plane (`OH·OW`) that gathers through an offset table.
const SMALL_PLANE: usize = 16;

/// Largest output plane whose row runs `col2im` joins into one pass (a
/// 32×32 map; the column mask of a tap lives on the stack). Longer rows
/// amortize a loop per row by themselves.
const JOINED_PLANE: usize = 1024;

/// Offset-table entry of a tap that lands in the padding: past the end
/// of any slice, so `get` answers `None` for it.
const OUTSIDE: usize = usize::MAX;

/// Unroll `input` (`[N, C, H, W]` flattened) into `cols`
/// (`[patch_len, cols]` flattened, column index = `(n, oy, ox)`). Every
/// element of `cols` is written.
pub fn im2col(input: &[f32], geom: &ConvGeom, cols: &mut [f32]) {
    geom.check();
    let (ow, plane, ncols) = (geom.ow(), geom.oh() * geom.ow(), geom.cols());
    let (w, hw, s) = (geom.w, geom.h * geom.w, geom.stride);
    assert_eq!(input.len(), geom.n * geom.c * hw, "input size mismatch");
    assert_eq!(cols.len(), geom.patch_len() * ncols, "cols size mismatch");
    for ky in 0..geom.kh {
        for kx in 0..geom.kw {
            let tap = geom.tap(ky, kx);
            for c in 0..geom.c {
                let row = &mut cols[geom.patch_row(c, ky, kx) * ncols..][..ncols];
                match &tap {
                    Tap::Padding => row.fill(0.0),
                    Tap::Gather { offsets, images, .. } => {
                        let groups = row.chunks_mut(images * plane);
                        for (dst, src) in groups.zip(input[c * hw..].chunks(images * geom.c * hw)) {
                            for (d, &off) in dst.iter_mut().zip(offsets) {
                                *d = src.get(off).copied().unwrap_or(0.0);
                            }
                        }
                    }
                    Tap::Runs { y, x } => {
                        for (n, dst) in row.chunks_exact_mut(plane).enumerate() {
                            let src = &input[(n * geom.c + c) * hw..][..hw];
                            dst[..y.lo * ow].fill(0.0);
                            dst[y.hi * ow..].fill(0.0);
                            let rows = &mut dst[y.lo * ow..y.hi * ow];
                            if s == 1 && ow == w {
                                // Output rows are as long as input rows, so
                                // the runs of consecutive rows join up into
                                // one copy; the edge columns it fills with
                                // the neighbouring row's pixels are zeroed
                                // below.
                                let len = rows.len() - x.lo - (ow - x.hi);
                                rows[x.lo..][..len]
                                    .copy_from_slice(&src[y.first * w + x.first..][..len]);
                            } else {
                                let src_rows = src[y.first * w..].chunks(w).step_by(s);
                                for (run, src_row) in rows.chunks_exact_mut(ow).zip(src_rows) {
                                    let taps = &src_row[x.first..];
                                    for (t, d) in run[x.lo..x.hi].iter_mut().enumerate() {
                                        *d = taps[t * s];
                                    }
                                }
                            }
                            // Element loops: these are a pixel or two per
                            // row, less than a `fill` call costs.
                            for run in rows.chunks_exact_mut(ow) {
                                for d in &mut run[..x.lo] {
                                    *d = 0.0;
                                }
                                for d in &mut run[x.hi..] {
                                    *d = 0.0;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Scatter-add `cols` (`[patch_len, cols]`) back into `input_grad`
/// (`[N, C, H, W]`): the adjoint of [`im2col`].
///
/// Taps are visited with `ky` and `kx` *descending*. An input pixel's
/// addends are then met in ascending `(oy, ox)` of the output position
/// that contributed them, the summation order of a scatter that walks
/// output positions outermost — results are bit-identical to that loop.
pub fn col2im(cols: &[f32], geom: &ConvGeom, input_grad: &mut [f32]) {
    geom.check();
    let (ow, plane, ncols) = (geom.ow(), geom.oh() * geom.ow(), geom.cols());
    let (w, hw, s) = (geom.w, geom.h * geom.w, geom.stride);
    assert_eq!(input_grad.len(), geom.n * geom.c * hw, "grad size mismatch");
    assert_eq!(cols.len(), geom.patch_len() * ncols, "cols size mismatch");
    input_grad.fill(0.0);
    for ky in (0..geom.kh).rev() {
        for kx in (0..geom.kw).rev() {
            let tap = geom.tap(ky, kx);
            let mut mask = None;
            for c in 0..geom.c {
                let row = &cols[geom.patch_row(c, ky, kx) * ncols..][..ncols];
                match &tap {
                    Tap::Padding => {}
                    Tap::Gather { hits, count, images, .. } => {
                        let groups = row.chunks(images * plane);
                        for (src, dst) in groups.zip(input_grad[c * hw..].chunks_mut(images * geom.c * hw)) {
                            // The last group may hold fewer images than
                            // the table lists: `get` drops their entries.
                            for &(p, off) in &hits[..*count] {
                                if let (Some(&v), Some(d)) = (src.get(p), dst.get_mut(off)) {
                                    *d += v;
                                }
                            }
                        }
                    }
                    Tap::Runs { y, x } if s == 1 && ow == w && plane <= JOINED_PLANE => {
                        let mask = mask.get_or_insert_with(|| JoinMask::new(y, x, ow));
                        let planes = input_grad[c * hw..].chunks_mut(geom.c * hw);
                        mask.add_runs(y, x, ow, row.chunks_exact(plane), planes);
                    }
                    Tap::Runs { y, x } => {
                        for (n, src) in row.chunks_exact(plane).enumerate() {
                            let dst = &mut input_grad[(n * geom.c + c) * hw..][..hw];
                            let rows = src[y.lo * ow..y.hi * ow].chunks_exact(ow);
                            for (run, dst_row) in rows.zip(dst[y.first * w..].chunks_mut(w).step_by(s)) {
                                let run = &run[x.lo..x.hi];
                                if s == 1 {
                                    for (d, &v) in dst_row[x.first..][..run.len()].iter_mut().zip(run) {
                                        *d += v;
                                    }
                                } else {
                                    let taps = &mut dst_row[x.first..];
                                    for (t, &v) in run.iter().enumerate() {
                                        taps[t * s] += v;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Which elements of a tap's joined run are real: where output rows are
/// as long as input rows (`ow`) and read at stride 1, the runs of a
/// plane's consecutive rows join up into one — a single pass over the
/// plane instead of a short loop per row — with a pixel or two between
/// two rows' runs that belong to neither. Those add `0.0`: no change to a
/// sum that started from `+0.0`, which can never have become `-0.0`.
struct JoinMask {
    keep: [bool; JOINED_PLANE],
    len: usize,
}

impl JoinMask {
    /// The mask of the tap that reads output rows `y`, columns `x`.
    #[inline(never)]
    fn new(y: &Span, x: &Span, ow: usize) -> Self {
        let run = x.hi - x.lo;
        let mut mask = JoinMask { keep: [true; JOINED_PLANE], len: (y.hi - y.lo) * ow - (ow - run) };
        // (Element loop: a pixel or two per row, less than a `fill` call costs.)
        for gap in mask.keep[..mask.len].chunks_exact_mut(ow) {
            for k in &mut gap[run..] {
                *k = false;
            }
        }
        mask
    }

    /// Add the tap's output planes `src` into the input planes `dst` they
    /// came from.
    #[inline(never)]
    fn add_runs<'a>(
        &self,
        y: &Span,
        x: &Span,
        ow: usize,
        src: impl Iterator<Item = &'a [f32]>,
        dst: impl Iterator<Item = &'a mut [f32]>,
    ) {
        let keep = &self.keep[..self.len];
        for (src, dst) in src.zip(dst) {
            let dst = &mut dst[y.first * ow + x.first..][..keep.len()];
            let src = &src[y.lo * ow + x.lo..][..keep.len()];
            for ((d, &v), &k) in dst.iter_mut().zip(src).zip(keep) {
                *d += if k { v } else { 0.0 };
            }
        }
    }
}

/// Forward product of a convolution: `y = W · cols + b` into `y` (`[N,
/// O, OH, OW]`) with the bias added, `w` the `[O, patch]` filter matrix
/// and `x` the `[N, C, H, W]` input. Every element of `y` is written, and
/// of `keep` (a copy of `x`, for a training forward's backward) when
/// given.
///
/// On the AVX-512 tier it runs direct ([`is_direct`]): each output is the
/// FMA chain over the patch the product would run, read from `x` where it
/// lies, tile of filters by tile. Elsewhere it lowers ([`forward_lowered`]).
/// Either way the FLOP counter is credited the `2·O·patch·N·OH·OW` of the
/// product.
///
/// Where the direct route holds images in its lanes (an output plane
/// under 16 positions) it stages the batch in the thread's staging buffer
/// first.
#[inline]
pub fn forward(
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    o: usize,
    geom: &ConvGeom,
    y: &mut [f32],
    keep: Option<&mut [f32]>,
) {
    let (patch, plane) = (geom.patch_len(), geom.oh() * geom.ow());
    assert_eq!(w.len(), o * patch, "filter size mismatch");
    assert_eq!(y.len(), geom.n * o * plane, "output size mismatch");
    assert!(keep.as_ref().is_none_or(|k| k.len() == x.len()), "input copy size mismatch");
    if let Some(keep) = keep {
        keep.copy_from_slice(x);
    }
    match (is_direct(o, geom), direct::images_in_lanes(geom)) {
        (true, true) => with_grown(&STAGING, direct::staging_len(o, geom), |staging| {
            direct::forward_images(x, w, bias, o, geom, y, staging);
        }),
        (true, false) => direct::forward(x, w, bias, o, geom, y),
        (false, _) => forward_lowered(x, w, bias, o, geom, y),
    }
}

/// [`forward`]'s lowered route for the `geom.n` images of `x` on the
/// calling thread: the images lowered into its [`with_lowering`] buffer
/// and multiplied, the bias add and the NCHW scatter in the epilogue.
/// Every element of `y` is written, each the FMA chain over the patch the
/// direct route runs too.
#[inline]
pub fn forward_lowered(x: &[f32], w: &[f32], bias: &[f32], o: usize, geom: &ConvGeom, y: &mut [f32]) {
    let (patch, plane) = (geom.patch_len(), geom.oh() * geom.ow());
    with_lowering(patch * geom.cols(), |cols| {
        im2col(x, geom, cols);
        gemm_ops(
            o,
            patch,
            geom.cols(),
            &RowMajor { data: w, ld: patch },
            &RowMajor { data: cols, ld: geom.cols() },
            &mut NchwScatterBias { out: y, o, plane, bias },
        );
    });
}

/// Weight gradient of a convolution, accumulated in place: `dw[o, p] +=
/// Σ_col g[o, col] · cols[p, col]` with `g` the `[N, O, OH, OW]` output
/// gradient and `cols` the patch matrix of `x`. Each `dw` element receives
/// one finished FMA chain over `col` ascending from `+0.0`, whatever the
/// route and the tier.
///
/// On the AVX-512 tier it runs direct ([`is_direct`]): each lane one
/// chain over the output positions, read from a channels-last copy of `x`
/// in the thread's staging buffer — `(kx, channel)` pairs of a zero frame,
/// or, for an output plane under 16 positions or a 1×1 filter, the patch
/// columns of the output positions — and from `g` where it lies, the
/// registers holding several filters; no patch matrix. It credits the
/// FLOP counter the `2·O·patch·N·OH·OW` of the product. Elsewhere it
/// lowers ([`weight_grad_lowered`]).
// (Inlined so that the engine is instantiated for these operands in the
// calling crate, next to the layer's forward product.)
#[inline]
pub fn weight_grad(g: &[f32], o: usize, x: &[f32], geom: &ConvGeom, dw: &mut [f32]) {
    weight_grad_on(is_direct(o, geom), g, o, x, geom, dw);
}

/// [`weight_grad`] on the lowered route whatever the geometry: the input
/// lowered into the thread's [`with_lowering`] buffer and reduced. `g` is
/// read through [`NchwGather`] and is the one that is packed (it is
/// `patch` times the smaller); the patch rows are the column-major B of
/// the product and, for `O ≤ 16` on the widest tier, are read where they
/// lie by the transposing kernel ([`crate::simd::microkernel_f32_bt`]) —
/// wider filter banks pack them through the block transpose. The same bits
/// as the direct route.
#[inline]
pub fn weight_grad_lowered(g: &[f32], o: usize, x: &[f32], geom: &ConvGeom, dw: &mut [f32]) {
    weight_grad_on(false, g, o, x, geom, dw);
}

#[inline]
fn weight_grad_on(direct: bool, g: &[f32], o: usize, x: &[f32], geom: &ConvGeom, dw: &mut [f32]) {
    let (patch, ncols, plane) = (geom.patch_len(), geom.cols(), geom.oh() * geom.ow());
    assert_eq!(g.len(), o * ncols, "output gradient size mismatch");
    assert_eq!(dw.len(), o * patch, "weight gradient size mismatch");
    if direct {
        return with_grown(&STAGING, direct::weight_grad_staging(o, geom), |staging| {
            direct::weight_grad(g, o, x, geom, staging, dw);
        });
    }
    with_lowering(patch * ncols, |cols| {
        im2col(x, geom, cols);
        let (a, b) = (NchwGather { data: g, o, plane }, ColMajor { data: cols, ld: ncols });
        gemm_ops(o, ncols, patch, &a, &b, &mut Accumulate { c: dw, ldc: patch });
    });
}

/// Most elements of the patch-gradient panel [`input_grad`] works in
/// (64 KB): a panel is written by the product and read straight back by
/// `col2im`, so it should stay in the inner caches rather than make the
/// round trip the whole `[patch, N·OH·OW]` matrix makes.
const PANEL_ELEMS: usize = 16 * 1024;

/// Input gradient of a convolution: `gx = col2im(Wᵀ · g)` with `w` the
/// `[O, patch]` filter matrix and `g` the `[N, O, OH, OW]` output
/// gradient. Every element of `gx` is written.
///
/// On the AVX-512 tier it runs direct ([`is_direct`]): each patch-gradient value is its FMA chain over
/// `o`, added straight into its pixel in `col2im`'s order, with no patch
/// gradient stored; the FLOP counter is credited the product's
/// `2·O·patch·N·OH·OW` — where it holds images in its lanes, from the
/// output gradient staged in the thread's staging buffer. Elsewhere it
/// lowers ([`input_grad_lowered`]): the patch gradient is produced a panel of whole images at a time — the columns
/// of as many consecutive images as `PANEL_ELEMS` holds, one at least —
/// and scattered into those images' pixels. An input pixel only ever
/// receives addends from its own image, tap by tap, so the sums are those
/// of one whole-matrix [`col2im`], bit for bit. The deep layers' small
/// planes (the offset-table regime of `col2im`, where the whole matrix is
/// a few panels' worth anyway) go in one piece.
#[inline]
pub fn input_grad(w: &[f32], g: &[f32], o: usize, geom: &ConvGeom, gx: &mut [f32]) {
    let (patch, plane, pixels) = (geom.patch_len(), geom.oh() * geom.ow(), geom.c * geom.h * geom.w);
    assert_eq!(w.len(), o * patch, "filter size mismatch");
    assert_eq!(g.len(), geom.n * o * plane, "output gradient size mismatch");
    assert_eq!(gx.len(), geom.n * pixels, "input gradient size mismatch");
    match (is_direct(o, geom), direct::images_in_lanes(geom)) {
        (true, true) => with_grown(&STAGING, direct::staging_len(o, geom), |staging| {
            direct::input_grad_images(w, g, o, geom, gx, staging);
        }),
        (true, false) => direct::input_grad(w, g, o, geom, gx),
        (false, _) => input_grad_lowered(w, g, o, geom, gx),
    }
}

/// [`input_grad`]'s lowered route for the `geom.n` images of `g`: the patch gradient `Wᵀ · g` made a panel of whole
/// images at a time in its [`with_lowering`] buffer and scattered
/// (`col2im`) into those images' pixels before the next panel overwrites
/// it. Every element of `gx` is written, with the sums of one
/// whole-matrix [`col2im`] — those the direct route adds too.
#[inline]
pub fn input_grad_lowered(w: &[f32], g: &[f32], o: usize, geom: &ConvGeom, gx: &mut [f32]) {
    let (patch, plane, pixels, n) = (geom.patch_len(), geom.oh() * geom.ow(), geom.c * geom.h * geom.w, geom.n);
    let panel = match plane {
        0..=SMALL_PLANE => n,
        _ => PANEL_ELEMS / (patch * plane).max(1),
    }
    .clamp(1, n);
    with_lowering(patch * panel * plane, |dcols| {
        for first in (0..n).step_by(panel) {
            let part = ConvGeom { n: panel.min(n - first), ..*geom };
            let ncols = part.cols();
            let dcols = &mut dcols[..patch * ncols];
            // dcols[p, col] = Σ_o W[o, p] g[o, col] over these images' columns.
            gemm_ops(
                patch,
                o,
                ncols,
                &ColMajor { data: w, ld: patch },
                &NchwGather { data: &g[first * o * plane..][..o * ncols], o, plane },
                &mut Store { c: dcols, ldc: ncols },
            );
            col2im(dcols, &part, &mut gx[first * pixels..][..part.n * pixels]);
        }
    });
}

/// Reference direct convolution (a plain sum, no FMA chain), used only in
/// tests to validate the products end to end within a tolerance.
pub fn conv2d_reference(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
) -> Tensor {
    let (n, c, h, w) = input.shape().as_nchw();
    let wd = weight.dims();
    assert_eq!(wd.len(), 4);
    let (o, wc, kh, kw) = (wd[0], wd[1], wd[2], wd[3]);
    assert_eq!(c, wc);
    let geom = ConvGeom { n, c, h, w, kh, kw, stride, pad };
    let (oh, ow) = (geom.oh(), geom.ow());
    let mut out = Tensor::zeros(&[n, o, oh, ow]);
    for ni in 0..n {
        for oi in 0..o {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias.map_or(0.0, |b| b[oi]);
                    for ci in 0..c {
                        for ky in 0..kh {
                            for kx in 0..kw {
                                let iy = (oy * stride + ky) as isize - pad as isize;
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w {
                                    acc += input.at(&[ni, ci, iy as usize, ix as usize])
                                        * weight.at(&[oi, ci, ky, kx]);
                                }
                            }
                        }
                    }
                    *out.at_mut(&[ni, oi, oy, ox]) = acc;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;
    use crate::matmul::matmul_into;
    use crate::rng::seeded_rng;
    use rand::Rng;

    fn conv_via_im2col(input: &Tensor, weight: &Tensor, stride: usize, pad: usize) -> Tensor {
        let (n, c, h, w) = input.shape().as_nchw();
        let wd = weight.dims();
        let (o, kh, kw) = (wd[0], wd[2], wd[3]);
        let geom = ConvGeom { n, c, h, w, kh, kw, stride, pad };
        let mut cols = vec![0.0; geom.patch_len() * geom.cols()];
        im2col(input.data(), &geom, &mut cols);
        let mut out = vec![0.0; o * geom.cols()];
        matmul_into(weight.data(), &cols, &mut out, o, geom.patch_len(), geom.cols());
        // out is [O, N*OH*OW]; reorder to [N, O, OH, OW]
        let (oh, ow) = (geom.oh(), geom.ow());
        let mut reordered = Tensor::zeros(&[n, o, oh, ow]);
        let r = reordered.data_mut();
        for oi in 0..o {
            for ni in 0..n {
                for p in 0..oh * ow {
                    r[((ni * o) + oi) * oh * ow + p] = out[oi * geom.cols() + (ni * oh * ow) + p];
                }
            }
        }
        reordered
    }

    #[test]
    fn geometry() {
        let g = ConvGeom { n: 2, c: 3, h: 8, w: 8, kh: 3, kw: 3, stride: 1, pad: 1 };
        assert_eq!((g.oh(), g.ow()), (8, 8));
        let g2 = ConvGeom { stride: 2, ..g };
        assert_eq!((g2.oh(), g2.ow()), (4, 4));
        let g3 = ConvGeom { pad: 0, ..g };
        assert_eq!((g3.oh(), g3.ow()), (6, 6));
    }

    #[test]
    fn im2col_matches_reference_conv() {
        let mut rng = seeded_rng(11);
        for &(n, c, h, w, o, k, s, p) in &[
            (1usize, 1usize, 4usize, 4usize, 1usize, 3usize, 1usize, 1usize),
            (2, 3, 8, 8, 4, 3, 1, 1),
            (2, 3, 8, 8, 4, 3, 2, 1),
            (1, 2, 5, 7, 3, 1, 1, 0),
            (2, 4, 6, 6, 2, 5, 1, 2),
        ] {
            let input = Tensor::from_vec(
                (0..n * c * h * w).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                &[n, c, h, w],
            );
            let weight = Tensor::from_vec(
                (0..o * c * k * k).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                &[o, c, k, k],
            );
            let fast = conv_via_im2col(&input, &weight, s, p);
            let slow = conv2d_reference(&input, &weight, None, s, p);
            assert_close(fast.data(), slow.data(), 1e-4);
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property of the transpose operator used in backprop.
        let mut rng = seeded_rng(12);
        let geom = ConvGeom { n: 2, c: 3, h: 6, w: 5, kh: 3, kw: 3, stride: 2, pad: 1 };
        let x: Vec<f32> = (0..geom.n * geom.c * geom.h * geom.w)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let ysz = geom.patch_len() * geom.cols();
        let y: Vec<f32> = (0..ysz).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut cols = vec![0.0; ysz];
        im2col(&x, &geom, &mut cols);
        let lhs: f64 = cols.iter().zip(y.iter()).map(|(&a, &b)| (a as f64) * (b as f64)).sum();
        let mut xg = vec![0.0; x.len()];
        col2im(&y, &geom, &mut xg);
        let rhs: f64 = x.iter().zip(xg.iter()).map(|(&a, &b)| (a as f64) * (b as f64)).sum();
        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch: {lhs} vs {rhs}");
    }

    #[test]
    fn padding_produces_zero_border_patches() {
        let geom = ConvGeom { n: 1, c: 1, h: 2, w: 2, kh: 3, kw: 3, stride: 1, pad: 1 };
        let input = vec![1.0; 4];
        let mut cols = vec![0.0; geom.patch_len() * geom.cols()];
        im2col(&input, &geom, &mut cols);
        // Top-left output position: kernel's (0,0) tap is in padding → 0.
        assert_eq!(cols[0], 0.0);
        // Kernel center tap over (0,0) input is 1.
        let center_row = 4; // ky=1, kx=1 in a 3x3 kernel
        assert_eq!(cols[center_row * geom.cols()], 1.0);
    }
}
