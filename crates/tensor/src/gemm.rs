//! Packed, cache-blocked GEMM with fused epilogues and runtime SIMD
//! dispatch.
//!
//! The training loop of every model in this workspace reduces to a handful
//! of matrix products (forward activations, weight gradients, input
//! gradients, im2col-lowered convolutions). This module implements them
//! with one engine:
//!
//! * **Panel packing** — operand tiles are copied into contiguous,
//!   register-block-ordered panels once per macro-tile, so the inner loop
//!   reads both operands sequentially regardless of the logical layout.
//!   Packing is driven by the [`Operand`] trait, and every operand is a
//!   typed view of storage that packs by slice copies: [`RowMajor`] and
//!   [`ColMajor`] for plain and transposed matrices, [`NchwGather`] for
//!   an `[N, O, OH, OW]` gradient read as `[O, N·OH·OW]` — which is what
//!   lets the convolution backward pass consume it without a reorder
//!   copy. An operand is always read along its storage: where the panel
//!   wants the other direction, contiguous strips are transposed into it
//!   an 8×8 block at a time, in vector registers on the SIMD tiers (one
//!   routine, `pack`, serves both A and B). With at most two row panels
//!   of A, B is not packed at all — the pack's write and read-back of
//!   the large operand would cost more than the product — and the widest
//!   tier reads it in place ([`Operand::in_place`]): a row-major B by rows (the
//!   forward product of every `O ≤ 16` convolution), a column-major B
//!   along its columns (the patch matrix under those
//!   convolutions' weight gradients, a dense layer's `[out, in]` weights
//!   under a training batch), 16×16 blocks transposed in registers on
//!   their way into the FMAs.
//! * **One chain per element** — whatever the tier and the route, an
//!   output element is `Σ_kk a(i, kk) · b(kk, j)` accumulated by fused
//!   multiply-adds over `kk` ascending from zero, with the whole of `k`
//!   in one chain (no k-blocking). Kernels differ in which elements share
//!   a vector, never in the order inside an element, so every tier
//!   returns the same bits; `tests/golden_histories.rs` pins one table of
//!   hashes on the strength of it, and a kernel vectorized *along* `k`
//!   (partial sums per lane) would break it.
//! * **Register micro-tiling with runtime dispatch** — on x86-64 hosts
//!   with AVX-512F the explicit 8×32 microkernel in [`crate::simd`] keeps
//!   sixteen 16-lane accumulators in ZMM registers across the whole k
//!   loop; AVX2+FMA hosts get the 6×16 YMM variant; every other host (or
//!   a thread under [`crate::simd::force_scalar`]) uses the portable
//!   [`MR`]×[`NR`] (8×8) scalar kernel, which the compiler autovectorizes
//!   under `-C target-cpu=native`. The tier is chosen once per GEMM call.
//! * **Cache macro-blocking** — B is packed once per [`NC`]-wide column
//!   block, A once per [`MC`]-row block, sized so the panels live in L1/L2
//!   while streaming.
//! * **Fused epilogues** — the micro-tile result is handed to a
//!   [`TileWriter`] row-by-row, so bias-add, bias+ReLU, gradient
//!   accumulation (`+=`) and the `[O, N·OH·OW] → [N, O, OH, OW]`
//!   convolution-output scatter happen on register-resident values instead
//!   of extra passes (and extra buffers) over memory.
//!
//! Unlike the axpy kernels this replaces, there is **no zero-skip**: an
//! input of `0.0` must still propagate `NaN`/`Inf` partners per IEEE-754
//! (`0 × ∞ = NaN`), which the old `if av == 0.0 { continue }` silently
//! violated.
//!
//! A product runs on the thread that calls it: the engine has no
//! intra-GEMM threading. The stack's parallel region sits one level up, in
//! [`crate::par`]: a layer called outside a share splits its product by
//! *output* — images, channels — and each thread runs its own
//! `gemm_ops` over its part, so every chain stays whole. Packing buffers
//! come from a thread-local [`Workspace`], so steady-state calls allocate
//! nothing.

use crate::simd::{self, Isa};
use crate::workspace::Workspace;
use std::cell::RefCell;

/// Micro-tile rows of the portable scalar kernel.
pub const MR: usize = 8;
/// Micro-tile columns of the portable scalar kernel.
pub const NR: usize = 8;
/// Macro-tile rows: how many rows of A are packed at once.
pub const MC: usize = 64;
/// Macro-tile columns: how many columns of B are packed at once.
pub const NC: usize = 256;

/// Below this many multiply-adds the packed path's setup costs more than
/// it saves; a plain unpacked loop runs instead.
const SMALL_FLOPS: usize = 16 * 1024;

/// Scratch tile large enough for any kernel tier's micro-tile.
const TILE_ELEMS: usize = simd::SIMD_MR512 * simd::SIMD_NR512;
const _: () = assert!(TILE_ELEMS >= MR * NR);
const _: () = assert!(TILE_ELEMS >= simd::SIMD_MR * simd::SIMD_NR);

thread_local! {
    /// Per-thread pack-buffer pool. Thread-local (rather than per-call
    /// allocation) so concurrent client tasks never contend and repeated
    /// calls reuse warm buffers.
    static PACK_POOL: RefCell<Workspace> = RefCell::new(Workspace::new());
}

/// A logical `[rows, cols]` matrix the packing routines can read.
///
/// `at` is the universal accessor; `fill_row`/`fill_col` are the bulk
/// entry points packing actually calls, with contiguous-copy overrides on
/// the concrete layouts. Implementors only need `at` and the direction
/// their storage runs in.
pub trait Operand {
    /// Whether storage runs along logical rows (`fill_row` is slice
    /// copies, `fill_col` strided) rather than down columns. Packing reads
    /// an operand along its storage whichever way the panel is laid out.
    const ROWS_CONTIGUOUS: bool;

    /// Element at logical position `(i, j)`.
    fn at(&self, i: usize, j: usize) -> f32;

    /// `dst[t] = at(i, j0 + t)` — one logical row segment.
    #[inline]
    fn fill_row(&self, i: usize, j0: usize, dst: &mut [f32]) {
        for (t, d) in dst.iter_mut().enumerate() {
            *d = self.at(i, j0 + t);
        }
    }

    /// `dst[t] = at(i0 + t, j)` — one logical column segment.
    #[inline]
    fn fill_col(&self, j: usize, i0: usize, dst: &mut [f32]) {
        for (t, d) in dst.iter_mut().enumerate() {
            *d = self.at(i0 + t, j);
        }
    }

    /// [`Operand::fill_row`] with a compile-time length: full micro-tile
    /// rows pack through this so contiguous layouts compile to straight
    /// vector moves instead of a runtime-length `memcpy` call (which costs
    /// more than the 64-byte copy itself at these sizes).
    #[inline]
    fn fill_row_arr<const L: usize>(&self, i: usize, j0: usize, dst: &mut [f32; L]) {
        self.fill_row(i, j0, dst);
    }

    /// [`Operand::fill_col`] with a compile-time length; same rationale as
    /// [`Operand::fill_row_arr`].
    #[inline]
    fn fill_col_arr<const L: usize>(&self, j: usize, i0: usize, dst: &mut [f32; L]) {
        self.fill_col(j, i0, dst);
    }

    /// The backing storage when this operand is a plain row- or
    /// column-major matrix, letting the engine read it in place (the
    /// in-place kernel paths) instead of packing. `None` for any other
    /// layout.
    #[inline]
    fn in_place(&self) -> Option<InPlace<'_>> {
        None
    }
}

/// Plain matrix storage the widest kernel tier can read without packing.
#[derive(Clone, Copy)]
pub enum InPlace<'a> {
    /// `at(i, j) = data[i·ld + j]`: read by rows.
    Rows(&'a [f32], usize),
    /// `at(i, j) = data[j·ld + i]`: read along its columns, blocks
    /// transposed in registers.
    Cols(&'a [f32], usize),
}

/// Row-major storage: `at(i, j) = data[i·ld + j]`. Row segments pack as
/// straight `memcpy`.
pub struct RowMajor<'a> {
    /// Backing storage.
    pub data: &'a [f32],
    /// Leading dimension (row stride).
    pub ld: usize,
}

impl Operand for RowMajor<'_> {
    const ROWS_CONTIGUOUS: bool = true;

    #[inline(always)]
    fn at(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.ld + j]
    }

    #[inline]
    fn fill_row(&self, i: usize, j0: usize, dst: &mut [f32]) {
        let src = &self.data[i * self.ld + j0..][..dst.len()];
        dst.copy_from_slice(src);
    }

    #[inline]
    fn fill_col(&self, j: usize, i0: usize, dst: &mut [f32]) {
        let mut idx = i0 * self.ld + j;
        for d in dst.iter_mut() {
            *d = self.data[idx];
            idx += self.ld;
        }
    }

    #[inline]
    fn fill_row_arr<const L: usize>(&self, i: usize, j0: usize, dst: &mut [f32; L]) {
        let src = self.data[i * self.ld + j0..].first_chunk::<L>().expect("row in bounds");
        *dst = *src;
    }

    #[inline]
    fn in_place(&self) -> Option<InPlace<'_>> {
        Some(InPlace::Rows(self.data, self.ld))
    }
}

/// Column-major view of row-major storage: `at(i, j) = data[j·ld + i]`.
/// Expresses transposed operands (`Aᵀ·B`, `A·Bᵀ`) without materializing
/// the transpose; column segments pack as straight `memcpy`.
pub struct ColMajor<'a> {
    /// Backing storage.
    pub data: &'a [f32],
    /// Leading dimension (stride between logical columns).
    pub ld: usize,
}

impl Operand for ColMajor<'_> {
    const ROWS_CONTIGUOUS: bool = false;

    #[inline(always)]
    fn at(&self, i: usize, j: usize) -> f32 {
        self.data[j * self.ld + i]
    }

    #[inline]
    fn fill_row(&self, i: usize, j0: usize, dst: &mut [f32]) {
        let mut idx = j0 * self.ld + i;
        for d in dst.iter_mut() {
            *d = self.data[idx];
            idx += self.ld;
        }
    }

    #[inline]
    fn fill_col(&self, j: usize, i0: usize, dst: &mut [f32]) {
        let src = &self.data[j * self.ld + i0..][..dst.len()];
        dst.copy_from_slice(src);
    }

    #[inline]
    fn fill_col_arr<const L: usize>(&self, j: usize, i0: usize, dst: &mut [f32; L]) {
        let src = self.data[j * self.ld + i0..].first_chunk::<L>().expect("column in bounds");
        *dst = *src;
    }

    #[inline]
    fn in_place(&self) -> Option<InPlace<'_>> {
        Some(InPlace::Cols(self.data, self.ld))
    }
}

/// An `[N, O, plane]` tensor read as the `[O, N·plane]` matrix
/// `at(i, j) = data[(j / plane · O + i) · plane + j % plane]`: the
/// operand-side mirror of [`NchwScatterBias`]. Row segments pack as one
/// slice copy per image they cross, column segments at stride `plane`.
pub struct NchwGather<'a> {
    /// `[N, O, plane]` storage.
    pub data: &'a [f32],
    /// Channels `O` (logical rows).
    pub o: usize,
    /// `OH·OW`.
    pub plane: usize,
}

impl Operand for NchwGather<'_> {
    const ROWS_CONTIGUOUS: bool = true;

    #[inline(always)]
    fn at(&self, i: usize, j: usize) -> f32 {
        let ni = j / self.plane;
        self.data[(ni * self.o + i) * self.plane + (j - ni * self.plane)]
    }

    #[inline]
    fn fill_row(&self, i: usize, j0: usize, dst: &mut [f32]) {
        let mut ni = j0 / self.plane;
        let mut p = j0 - ni * self.plane;
        let mut dst = dst;
        while !dst.is_empty() {
            let (run, rest) = dst.split_at_mut((self.plane - p).min(dst.len()));
            run.copy_from_slice(&self.data[(ni * self.o + i) * self.plane + p..][..run.len()]);
            (dst, ni, p) = (rest, ni + 1, 0);
        }
    }

    #[inline]
    fn fill_col(&self, j: usize, i0: usize, dst: &mut [f32]) {
        let ni = j / self.plane;
        let mut idx = (ni * self.o + i0) * self.plane + (j - ni * self.plane);
        for d in dst.iter_mut() {
            *d = self.data[idx];
            idx += self.plane;
        }
    }

    #[inline]
    fn fill_row_arr<const L: usize>(&self, i: usize, j0: usize, dst: &mut [f32; L]) {
        let ni = j0 / self.plane;
        let p = j0 - ni * self.plane;
        if p + L <= self.plane {
            let src = &self.data[(ni * self.o + i) * self.plane + p..];
            *dst = *src.first_chunk::<L>().expect("run in bounds");
        } else {
            self.fill_row(i, j0, dst);
        }
    }
}

/// An operand with rows and columns exchanged, so A panels (`[kk][i]`)
/// pack through the routine written for B panels (`[kk][j]`).
struct Transposed<'a, T>(&'a T);

impl<T: Operand> Operand for Transposed<'_, T> {
    const ROWS_CONTIGUOUS: bool = !T::ROWS_CONTIGUOUS;

    #[inline(always)]
    fn at(&self, i: usize, j: usize) -> f32 {
        self.0.at(j, i)
    }

    #[inline]
    fn fill_row(&self, i: usize, j0: usize, dst: &mut [f32]) {
        self.0.fill_col(i, j0, dst);
    }

    #[inline]
    fn fill_col(&self, j: usize, i0: usize, dst: &mut [f32]) {
        self.0.fill_row(j, i0, dst);
    }

    #[inline]
    fn fill_row_arr<const L: usize>(&self, i: usize, j0: usize, dst: &mut [f32; L]) {
        self.0.fill_col_arr(i, j0, dst);
    }

    #[inline]
    fn fill_col_arr<const L: usize>(&self, j: usize, i0: usize, dst: &mut [f32; L]) {
        self.0.fill_row_arr(j, i0, dst);
    }
}

/// Destination of a computed micro-tile: receives each C element exactly
/// once per GEMM call. Implementations fuse what would otherwise be a
/// separate pass over the output.
pub trait TileWriter {
    /// Consume the value of `C[i, j]`.
    fn write(&mut self, i: usize, j: usize, v: f32);

    /// Consume `C[i, j0..j0+vals.len()]` — one micro-tile row. The engine
    /// always emits through this; the default defers to [`TileWriter::write`],
    /// concrete writers override it with contiguous stores.
    #[inline]
    fn write_row(&mut self, i: usize, j0: usize, vals: &[f32]) {
        for (dj, &v) in vals.iter().enumerate() {
            self.write(i, j0 + dj, v);
        }
    }
}

/// `C[i, j] = v` into a row-major `[m, n]` matrix.
pub struct Store<'a> {
    /// Output storage.
    pub c: &'a mut [f32],
    /// Leading dimension (row stride) of `c`.
    pub ldc: usize,
}

impl TileWriter for Store<'_> {
    #[inline(always)]
    fn write(&mut self, i: usize, j: usize, v: f32) {
        self.c[i * self.ldc + j] = v;
    }

    #[inline]
    fn write_row(&mut self, i: usize, j0: usize, vals: &[f32]) {
        let dst = &mut self.c[i * self.ldc + j0..][..vals.len()];
        // Compile-time lengths for the full-tile cases: a runtime-length
        // memcpy call costs more than these 16–64 byte copies.
        match vals.len() {
            32 => *dst.first_chunk_mut::<32>().unwrap() = *vals.first_chunk::<32>().unwrap(),
            16 => *dst.first_chunk_mut::<16>().unwrap() = *vals.first_chunk::<16>().unwrap(),
            8 => *dst.first_chunk_mut::<8>().unwrap() = *vals.first_chunk::<8>().unwrap(),
            4 => *dst.first_chunk_mut::<4>().unwrap() = *vals.first_chunk::<4>().unwrap(),
            _ => dst.copy_from_slice(vals),
        }
    }
}

/// `C[i, j] += v` — gradient accumulation without a temporary.
///
/// `v` is a *finished* chain: the engine runs `Σ_kk a(i, kk) · b(kk, j)`
/// from zero over the whole of `k` (there is no k-blocking; a kernel that
/// splits `k` into panels carries its accumulators across them) and adds
/// the result to `C` once. The chain is not continued from the value
/// already in `C` — `fma(a, b, c_old)` rounds differently from
/// `c_old + Σ`, and the pinned histories hold the latter.
pub struct Accumulate<'a> {
    /// Output storage.
    pub c: &'a mut [f32],
    /// Leading dimension (row stride) of `c`.
    pub ldc: usize,
}

impl TileWriter for Accumulate<'_> {
    #[inline(always)]
    fn write(&mut self, i: usize, j: usize, v: f32) {
        self.c[i * self.ldc + j] += v;
    }

    #[inline]
    fn write_row(&mut self, i: usize, j0: usize, vals: &[f32]) {
        let dst = &mut self.c[i * self.ldc + j0..][..vals.len()];
        for (d, &v) in dst.iter_mut().zip(vals) {
            *d += v;
        }
    }
}

/// `C[i, j] = v + bias[j]` — Linear-layer forward (rows = batch).
pub struct BiasCol<'a> {
    /// Output storage.
    pub c: &'a mut [f32],
    /// Leading dimension of `c`.
    pub ldc: usize,
    /// Per-column bias (`len == n`).
    pub bias: &'a [f32],
}

impl TileWriter for BiasCol<'_> {
    #[inline(always)]
    fn write(&mut self, i: usize, j: usize, v: f32) {
        self.c[i * self.ldc + j] = v + self.bias[j];
    }

    #[inline]
    fn write_row(&mut self, i: usize, j0: usize, vals: &[f32]) {
        let dst = &mut self.c[i * self.ldc + j0..][..vals.len()];
        let bias = &self.bias[j0..][..vals.len()];
        for ((d, &v), &b) in dst.iter_mut().zip(vals).zip(bias) {
            *d = v + b;
        }
    }
}

/// `C[i, j] = max(0, v + bias[j])` — fused Linear + ReLU.
pub struct BiasColRelu<'a> {
    /// Output storage.
    pub c: &'a mut [f32],
    /// Leading dimension of `c`.
    pub ldc: usize,
    /// Per-column bias (`len == n`).
    pub bias: &'a [f32],
}

impl TileWriter for BiasColRelu<'_> {
    #[inline(always)]
    fn write(&mut self, i: usize, j: usize, v: f32) {
        self.c[i * self.ldc + j] = (v + self.bias[j]).max(0.0);
    }

    #[inline]
    fn write_row(&mut self, i: usize, j0: usize, vals: &[f32]) {
        let dst = &mut self.c[i * self.ldc + j0..][..vals.len()];
        let bias = &self.bias[j0..][..vals.len()];
        for ((d, &v), &b) in dst.iter_mut().zip(vals).zip(bias) {
            *d = (v + b).max(0.0);
        }
    }
}

/// Convolution-forward epilogue: the GEMM result is logically
/// `[O, N·OH·OW]` (row `i` = output channel, column `j = ni·plane + p`),
/// scattered straight into an `[N, O, OH, OW]` tensor with the channel
/// bias added. Replaces the seed's separate bias+reorder pass and its
/// `out_mat` temporary.
pub struct NchwScatterBias<'a> {
    /// `[N, O, OH, OW]` output storage.
    pub out: &'a mut [f32],
    /// Output channels `O`.
    pub o: usize,
    /// `OH·OW`.
    pub plane: usize,
    /// Per-channel bias (`len == o`).
    pub bias: &'a [f32],
}

impl TileWriter for NchwScatterBias<'_> {
    #[inline(always)]
    fn write(&mut self, i: usize, j: usize, v: f32) {
        let ni = j / self.plane;
        let p = j - ni * self.plane;
        self.out[(ni * self.o + i) * self.plane + p] = v + self.bias[i];
    }

    #[inline]
    fn write_row(&mut self, i: usize, j0: usize, vals: &[f32]) {
        // A tile row may straddle image boundaries; copy per contiguous
        // run within one image plane.
        let b = self.bias[i];
        let mut t = 0;
        while t < vals.len() {
            let j = j0 + t;
            let ni = j / self.plane;
            let p = j - ni * self.plane;
            let run = (self.plane - p).min(vals.len() - t);
            let dst = &mut self.out[(ni * self.o + i) * self.plane + p..][..run];
            for (d, &v) in dst.iter_mut().zip(&vals[t..t + run]) {
                *d = v + b;
            }
            t += run;
        }
    }
}

/// `C[i, j]` into the `[N, O, plane]` tensor the logical `[O, N·plane]`
/// matrix `C` is stored as: [`NchwScatterBias`] without the bias. Also
/// what a convolution's split weight gradient stores its `[O, C·KH·KW]`
/// chains through — channel-major, a block `[O, KH·KW]` per input
/// channel (`plane = KH·KW`).
pub struct NchwScatter<'a> {
    /// `[N, O, plane]` output storage.
    pub out: &'a mut [f32],
    /// Rows `O`.
    pub o: usize,
    /// Columns per block.
    pub plane: usize,
}

impl TileWriter for NchwScatter<'_> {
    #[inline(always)]
    fn write(&mut self, i: usize, j: usize, v: f32) {
        let ni = j / self.plane;
        self.out[(ni * self.o + i) * self.plane + (j - ni * self.plane)] = v;
    }

    #[inline]
    fn write_row(&mut self, i: usize, j0: usize, vals: &[f32]) {
        let mut t = 0;
        while t < vals.len() {
            let j = j0 + t;
            let ni = j / self.plane;
            let p = j - ni * self.plane;
            let run = (self.plane - p).min(vals.len() - t);
            // An element loop: runs are a few elements (a 3×3 kernel's
            // nine), less than a `copy_from_slice` call costs.
            let dst = &mut self.out[(ni * self.o + i) * self.plane + p..][..run];
            for (d, &v) in dst.iter_mut().zip(&vals[t..t + run]) {
                *d = v;
            }
            t += run;
        }
    }
}

/// Concrete microkernel the macro loops drive.
#[derive(Clone, Copy, PartialEq, Eq)]
enum KernelKind {
    /// AVX-512F 8×32 tile — the widest SIMD kernel.
    Avx8x32,
    /// AVX2+FMA 6×16 tile — the 256-bit SIMD kernel.
    Avx6x16,
    /// Portable 8×8 scalar tile.
    Scalar8x8,
}

/// Kernel tier chosen once per GEMM call.
#[derive(Clone, Copy)]
struct Kernel {
    kind: KernelKind,
    mr: usize,
    nr: usize,
}

/// One runtime decision per call: the widest SIMD tile the host supports,
/// or the portable scalar kernel.
fn select_kernel() -> Kernel {
    match simd::isa() {
        Isa::Avx512 => Kernel { kind: KernelKind::Avx8x32, mr: simd::SIMD_MR512, nr: simd::SIMD_NR512 },
        Isa::Avx2Fma => Kernel { kind: KernelKind::Avx6x16, mr: simd::SIMD_MR, nr: simd::SIMD_NR },
        Isa::Scalar => Kernel { kind: KernelKind::Scalar8x8, mr: MR, nr: NR },
    }
}

/// General matrix multiply with packed operands and a fused epilogue:
/// `epilogue(i, j, Σ_kk a(i, kk) · b(kk, j))` for all `(i, j)` in
/// `[0, m) × [0, n)`.
///
/// `a` and `b` are the *logical* `[m, k]` and `[k, n]` operands; layout
/// (transposition, strides, NCHW views) lives entirely in the [`Operand`]
/// and is paid once during packing, not in the O(m·n·k) loop.
pub fn gemm_ops<A, B, W>(m: usize, k: usize, n: usize, a: &A, b: &B, writer: &mut W)
where
    A: Operand,
    B: Operand,
    W: TileWriter,
{
    if m == 0 || n == 0 {
        return;
    }
    crate::flops::add(2 * m as u64 * n as u64 * k as u64);
    if k == 0 {
        for i in 0..m {
            for j in 0..n {
                writer.write(i, j, 0.0);
            }
        }
        return;
    }
    if m * n * k <= SMALL_FLOPS {
        gemm_small(m, k, n, a, b, writer);
        return;
    }
    run_macro(select_kernel(), m, k, n, a, b, writer);
}

/// Where a micro-tile's B columns come from.
#[derive(Clone, Copy)]
enum BPanel<'a> {
    /// A packed `[kk][nr]` panel.
    Packed(&'a [f32]),
    /// The first of `nr` columns of a row-major B read in place.
    Rows(*const f32, usize),
    /// The first of up to `nr` columns of a column-major B read in place.
    Cols(*const f32, usize),
}

/// Columns per tile of the kernel that reads a column-major B in place.
const NR_BT: usize = 16;

/// The macro-loop engine: pack B per `NC` column block, A per `MC` row
/// block, run the selected microkernel over every micro-tile, hand rows to
/// the writer. Pack buffers come from the calling thread's pool.
fn run_macro<A, B, W>(kern: Kernel, m: usize, k: usize, n: usize, a: &A, b: &B, writer: &mut W)
where
    A: Operand,
    B: Operand,
    W: TileWriter,
{
    // In-place B fast paths: with at most two A row panels a packed B
    // panel is read back at most twice, so the pack's extra write+read
    // pass over B costs more than it saves. The widest tier reads B where
    // it lies instead: a row-major B by rows, a column-major B — the
    // patch matrix under a weight gradient, a dense layer's `[out, in]`
    // weights — along its columns, transposing blocks in registers. (The
    // ≤ 2·mr row bound keeps the i loop to a single iteration, so edge
    // panels pack at most once per column.)
    let in_place = if kern.kind == KernelKind::Avx8x32 && m <= 2 * kern.mr {
        b.in_place()
    } else {
        None
    };
    // The kernels read B through raw pointers: all of rows `0..k` up to
    // column `n`, or all of columns `0..n` down to row `k`.
    match in_place {
        Some(InPlace::Rows(bd, ldb)) => assert!(
            n <= ldb && (k - 1) * ldb + n <= bd.len(),
            "row-major B too short: {} elements for k {k}, ld {ldb}, n {n}",
            bd.len()
        ),
        Some(InPlace::Cols(bd, ldb)) => assert!(
            k <= ldb && (n - 1) * ldb + k <= bd.len(),
            "column-major B too short: {} elements for k {k}, ld {ldb}, n {n}",
            bd.len()
        ),
        None => {}
    }
    let nr = if matches!(in_place, Some(InPlace::Cols(..))) { NR_BT } else { kern.nr };
    let simd = kern.kind != KernelKind::Scalar8x8;
    PACK_POOL.with(|pool| {
        let mut ws = pool.borrow_mut();
        // Panel buffers, padded to full micro-tiles so the kernel never
        // branches on edges (the padding lanes multiply against zeros),
        // over-allocated by 16 floats so the panel start can be rounded
        // up to a 64-byte boundary — 512-bit loads that straddle cache
        // lines halve effective load bandwidth. They are sized to the
        // product, not the macro-tile (a four-channel weight gradient over
        // k = 4096 columns would otherwise ask for 5 MB it never
        // touches; an in-place B packs one edge panel at most, or
        // nothing), and not cleared: packing writes every element the
        // kernel reads.
        let a_rows = MC.min(m).next_multiple_of(kern.mr);
        let b_cols = match in_place {
            Some(InPlace::Rows(..)) => nr,
            Some(InPlace::Cols(..)) => 0,
            None => NC.min(n).next_multiple_of(nr),
        };
        let mut a_buf = ws.take_unzeroed(a_rows * k + 16);
        let mut b_buf = ws.take_unzeroed(b_cols * k + 16);
        drop(ws);
        let a_skip = align64_offset(a_buf.as_ptr());
        let b_skip = align64_offset(b_buf.as_ptr());
        let a_pack = &mut a_buf[a_skip..];
        let b_pack = &mut b_buf[b_skip..];

        // 64-byte-aligned scratch tile, same rationale for the stores.
        #[repr(align(64))]
        struct Tile([f32; TILE_ELEMS]);
        let mut tile = Tile([0.0f32; TILE_ELEMS]);
        let tile = &mut tile.0;
        let mut j0 = 0;
        while j0 < n {
            let nc = NC.min(n - j0);
            let nc_panels = nc.div_ceil(nr);
            if in_place.is_none() {
                pack(b, k, j0, nc, nr, b_pack, simd);
            }

            let mut i0 = 0;
            while i0 < m {
                let mc = MC.min(m - i0);
                let mc_panels = mc.div_ceil(kern.mr);
                pack(&Transposed(a), k, i0, mc, kern.mr, a_pack, simd);

                for jp in 0..nc_panels {
                    let jbase = j0 + jp * nr;
                    let nr_eff = nr.min(n - jbase);
                    let b_panel = match in_place {
                        // The row kernel has no column masking: it serves
                        // full-width tiles, an edge panel still packs.
                        Some(InPlace::Rows(bd, ldb)) if nr_eff == nr => {
                            BPanel::Rows(bd[jbase..].as_ptr(), ldb)
                        }
                        Some(InPlace::Rows(..)) => {
                            pack(b, k, jbase, nr_eff, nr, &mut b_pack[..k * nr], simd);
                            BPanel::Packed(&b_pack[..k * nr])
                        }
                        Some(InPlace::Cols(bd, ldb)) => BPanel::Cols(bd[jbase * ldb..].as_ptr(), ldb),
                        None => BPanel::Packed(&b_pack[jp * k * nr..(jp + 1) * k * nr]),
                    };
                    for ip in 0..mc_panels {
                        let a_panel = &a_pack[ip * k * kern.mr..(ip + 1) * k * kern.mr];
                        let ibase = i0 + ip * kern.mr;
                        let mr_eff = kern.mr.min(m - ibase);
                        match (kern.kind, b_panel) {
                            #[cfg(target_arch = "x86_64")]
                            // SAFETY: this tier is only selected when
                            // runtime detection confirmed AVX-512F; the A
                            // panel is padded to k·8 and the tile holds
                            // 256 floats. In place, `jbase + 32 <= n <=
                            // ldb` keeps every row load of the row kernel
                            // inside B's `[k, ldb]` storage, and columns
                            // `jbase..jbase + nr_eff` of a column-major B
                            // are `k` floats each by the assertion above.
                            (KernelKind::Avx8x32, src) => unsafe {
                                let (ap, out) = (a_panel.as_ptr(), tile.as_mut_ptr());
                                match src {
                                    BPanel::Packed(bp) => simd::microkernel_f32_8x32(k, ap, bp.as_ptr(), out),
                                    BPanel::Rows(bp, ldb) => simd::microkernel_f32_8x32_ldb(k, ap, bp, ldb, out),
                                    BPanel::Cols(bp, ldb) if mr_eff <= 4 => {
                                        simd::microkernel_f32_bt::<4>(k, ap, bp, ldb, nr_eff, out)
                                    }
                                    BPanel::Cols(bp, ldb) => {
                                        simd::microkernel_f32_bt::<8>(k, ap, bp, ldb, nr_eff, out)
                                    }
                                }
                            },
                            #[cfg(target_arch = "x86_64")]
                            // SAFETY: this tier is only selected when
                            // runtime detection confirmed AVX2+FMA; panels
                            // are padded to k·6 / k·16 and the 6×16 tile
                            // writes 96 floats into the 256-float buffer.
                            (KernelKind::Avx6x16, BPanel::Packed(bp)) => unsafe {
                                simd::microkernel_f32_6x16(
                                    k,
                                    a_panel.as_ptr(),
                                    bp.as_ptr(),
                                    tile.as_mut_ptr(),
                                );
                            },
                            (KernelKind::Scalar8x8, BPanel::Packed(bp)) => {
                                microkernel_scalar(k, a_panel, bp, tile)
                            }
                            _ => unreachable!("B read in place, or an x86 tier, without a kernel for it"),
                        }
                        for di in 0..mr_eff {
                            writer.write_row(ibase + di, jbase, &tile[di * nr..di * nr + nr_eff]);
                        }
                    }
                }
                i0 += mc;
            }
            j0 += nc;
        }

        let mut ws = pool.borrow_mut();
        ws.recycle(a_buf);
        ws.recycle(b_buf);
    });
}

/// Elements to skip so a `f32` buffer starts on a 64-byte boundary.
/// `Vec<f32>` storage is only guaranteed 4-byte aligned; the SIMD kernels
/// want panel rows that never straddle cache lines.
fn align64_offset(p: *const f32) -> usize {
    ((p as usize).wrapping_neg() & 63) / std::mem::size_of::<f32>()
}

/// Fused multiply-add that compiles to a hardware FMA when the target has
/// one. Without the gate, `mul_add` on non-FMA targets becomes a libm
/// call — orders of magnitude slower than mul+add.
#[inline(always)]
fn fma(a: f32, b: f32, c: f32) -> f32 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, c)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        a * b + c
    }
}

/// The portable register kernel: an MR×NR block of C accumulated over the
/// full k extent of two packed panels. `a_panel[kk·MR + i]` holds
/// A(i, kk), `b_panel[kk·NR + j]` holds B(kk, j); both reads are
/// sequential. The accumulator array stays in vector registers under
/// autovectorization, each k step being one broadcast and one FMA per
/// row. Results land in `tile` with row stride [`NR`].
#[inline(always)]
fn microkernel_scalar(k: usize, a_panel: &[f32], b_panel: &[f32], tile: &mut [f32; TILE_ELEMS]) {
    let mut acc = [[0.0f32; NR]; MR];
    for kk in 0..k {
        let a = &a_panel[kk * MR..kk * MR + MR];
        let b = &b_panel[kk * NR..kk * NR + NR];
        for i in 0..MR {
            let ai = a[i];
            for j in 0..NR {
                acc[i][j] = fma(ai, b[j], acc[i][j]);
            }
        }
    }
    for (i, row) in acc.iter().enumerate() {
        tile[i * NR..i * NR + NR].copy_from_slice(row);
    }
}

/// Elements of one operand column read at a time when packing transposes
/// it (256 bytes: four cache lines of a contiguous stream).
const STRIP: usize = 64;

/// `dst[c·stride + r] = src[r][at + c]` for an 8×8 block of eight strips:
/// the block step of a transposing pack.
#[inline]
fn transpose_8x8(simd: bool, src: &[[f32; STRIP]; 8], at: usize, dst: &mut [f32], stride: usize) {
    let rows: [&[f32; 8]; 8] =
        std::array::from_fn(|r| src[r][at..].first_chunk().expect("block inside the strips"));
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: `simd` is set on the AVX2 and AVX-512 tiers only, and
        // `simd::isa` reports neither without AVX2.
        unsafe { simd::transpose_8x8_avx2(rows, dst, stride) };
        return;
    }
    let _ = simd;
    for (r, row) in rows.iter().enumerate() {
        for (c, &v) in row.iter().enumerate() {
            dst[c * stride + r] = v;
        }
    }
}

/// Pack `nc` columns of `b` starting at `j0` into `nr`-column panels:
/// `b_pack[panel][kk][j]`. Columns beyond the block pad with zeros. A
/// panels are packed by the same routine through [`Transposed`]. `simd`
/// says whether the calling tier has the vector transpose.
fn pack<B: Operand>(b: &B, k: usize, j0: usize, nc: usize, nr: usize, b_pack: &mut [f32], simd: bool) {
    for jp in 0..nc.div_ceil(nr) {
        let panel = &mut b_pack[jp * k * nr..(jp + 1) * k * nr];
        let cols = nr.min(nc - jp * nr);
        let base = j0 + jp * nr;
        if !B::ROWS_CONTIGUOUS {
            // Storage runs down the columns: read eight of them in
            // contiguous strips and transpose those into the panel an 8×8
            // block at a time, instead of gathering every panel row at the
            // column stride (which, at a power-of-two stride, lands a
            // whole row in one cache set). Strips of columns past the
            // operand's edge stay zero, and so does the panel's padding.
            for jb in (0..nr).step_by(8) {
                let width = 8.min(nr - jb);
                let live = cols.saturating_sub(jb).min(width);
                let mut strips = [[0.0f32; STRIP]; 8];
                for kk0 in (0..k).step_by(STRIP) {
                    let depth = STRIP.min(k - kk0);
                    for (j, strip) in strips.iter_mut().enumerate().take(live) {
                        b.fill_col(base + jb + j, kk0, &mut strip[..depth]);
                    }
                    for at in (0..depth).step_by(8) {
                        let rows = &mut panel[(kk0 + at) * nr + jb..];
                        if width == 8 && depth - at >= 8 {
                            transpose_8x8(simd, &strips, at, rows, nr);
                        } else {
                            // A block the panel has no room for whole (its
                            // last rows, or a six-wide panel): by way of a
                            // full one. Past `depth` a strip holds the
                            // previous round's values; those rows are not
                            // copied out.
                            let mut block = [0.0f32; 64];
                            transpose_8x8(simd, &strips, at, &mut block, 8);
                            for (kk, row) in block.chunks_exact(8).enumerate().take(depth - at) {
                                rows[kk * nr..][..width].copy_from_slice(&row[..width]);
                            }
                        }
                    }
                }
            }
        } else if cols == nr {
            // Full panels go through the compile-time-length fills so
            // contiguous layouts copy without a runtime memcpy call.
            for kk in 0..k {
                let slot = &mut panel[kk * nr..kk * nr + nr];
                match nr {
                    32 => b.fill_row_arr::<32>(kk, base, slot.first_chunk_mut().unwrap()),
                    16 => b.fill_row_arr::<16>(kk, base, slot.first_chunk_mut().unwrap()),
                    8 => b.fill_row_arr::<8>(kk, base, slot.first_chunk_mut().unwrap()),
                    6 => b.fill_row_arr::<6>(kk, base, slot.first_chunk_mut().unwrap()),
                    _ => b.fill_row(kk, base, slot),
                }
            }
        } else {
            for kk in 0..k {
                let slot = &mut panel[kk * nr..kk * nr + nr];
                b.fill_row(kk, base, &mut slot[..cols]);
                slot[cols..].fill(0.0);
            }
        }
    }
}

/// Unpacked fallback for matrices too small to amortize panel packing.
/// Same contract, same no-zero-skip semantics.
fn gemm_small<A, B, W>(m: usize, k: usize, n: usize, a: &A, b: &B, writer: &mut W)
where
    A: Operand,
    B: Operand,
    W: TileWriter,
{
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc = fma(a.at(i, kk), b.at(kk, j), acc);
            }
            writer.write(i, j, acc);
        }
    }
}

/// Reference implementation used by tests: straightforward triple loop,
/// no packing, no zero-skip.
pub fn gemm_naive<A, B>(m: usize, k: usize, n: usize, a: A, b: B) -> Vec<f32>
where
    A: Fn(usize, usize) -> f32,
    B: Fn(usize, usize) -> f32,
{
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a(i, kk) * b(kk, j);
            }
            c[i * n + j] = acc;
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;
    use crate::rng::seeded_rng;
    use rand::Rng;

    fn rows(data: &[f32], ld: usize) -> RowMajor<'_> {
        RowMajor { data, ld }
    }

    fn random(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = seeded_rng(seed);
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn packed_matches_naive_across_blocking_edges() {
        // Shapes straddling every blocking boundary: below MR/NR, exact
        // multiples, one past a macro tile.
        for &(m, k, n) in &[
            (1, 1, 1),
            (7, 3, 5),
            (8, 8, 8),
            (9, 16, 9),
            (MR - 1, 40, NR + 1),
            (MC, 32, NC),
            (MC + 1, 17, NC + 1),
            (129, 33, 65),
        ] {
            let a = random(m * k, 1000 + m as u64);
            let b = random(k * n, 2000 + n as u64);
            let mut c = vec![0.0f32; m * n];
            gemm_ops(m, k, n, &rows(&a, k), &rows(&b, n), &mut Store {
                c: &mut c,
                ldc: n,
            });
            let want = gemm_naive(m, k, n, |i, kk| a[i * k + kk], |kk, j| b[kk * n + j]);
            assert_close(&c, &want, 1e-4);
        }
    }

    #[test]
    fn forced_scalar_matches_simd_tier() {
        // Same product through both dispatch tiers. Every tier computes an
        // output element as one FMA chain over k ascending from zero, so
        // the results are the same bits — what lets the golden histories
        // share one table of constants between tiers.
        let (m, k, n) = (45, 37, 83);
        let a = random(m * k, 21);
        let b = random(k * n, 22);
        let ra = RowMajor { data: &a, ld: k };
        let rb = RowMajor { data: &b, ld: n };
        let mut c_auto = vec![0.0f32; m * n];
        gemm_ops(m, k, n, &ra, &rb, &mut Store { c: &mut c_auto, ldc: n });
        let mut c_scalar = vec![0.0f32; m * n];
        {
            let _g = simd::ScalarGuard::new();
            gemm_ops(m, k, n, &ra, &rb, &mut Store { c: &mut c_scalar, ldc: n });
        }
        let bits = |c: &[f32]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&c_auto), bits(&c_scalar));
    }

    #[test]
    fn row_and_col_major_operands_match_closures() {
        let (m, k, n) = (30, 41, 52);
        let a = random(m * k, 31);
        let b_t = random(n * k, 32); // B stored [n, k]
        let want = gemm_naive(m, k, n, |i, kk| a[i * k + kk], |kk, j| b_t[j * k + kk]);
        let mut c = vec![0.0f32; m * n];
        gemm_ops(
            m,
            k,
            n,
            &RowMajor { data: &a, ld: k },
            &ColMajor { data: &b_t, ld: k },
            &mut Store { c: &mut c, ldc: n },
        );
        assert_close(&c, &want, 1e-4);
    }

    #[test]
    fn large_shape_forces_packed_path() {
        let (m, k, n) = (70, 90, 300); // > SMALL_FLOPS, spans MC/NC edges
        let a = random(m * k, 3);
        let b = random(k * n, 4);
        let mut c = vec![0.0f32; m * n];
        gemm_ops(m, k, n, &rows(&a, k), &rows(&b, n), &mut Store {
            c: &mut c,
            ldc: n,
        });
        let want = gemm_naive(m, k, n, |i, kk| a[i * k + kk], |kk, j| b[kk * n + j]);
        assert_close(&c, &want, 1e-4);
    }

    #[test]
    fn accumulate_adds_to_existing() {
        let (m, k, n) = (5, 4, 6);
        let a = random(m * k, 5);
        let b = random(k * n, 6);
        let mut c = vec![1.0f32; m * n];
        gemm_ops(m, k, n, &rows(&a, k), &rows(&b, n), &mut Accumulate {
            c: &mut c,
            ldc: n,
        });
        let want: Vec<f32> = gemm_naive(m, k, n, |i, kk| a[i * k + kk], |kk, j| b[kk * n + j])
            .iter()
            .map(|v| v + 1.0)
            .collect();
        assert_close(&c, &want, 1e-4);
    }

    #[test]
    fn bias_col_and_relu_epilogues() {
        let (m, k, n) = (4, 3, 5);
        let a = random(m * k, 7);
        let b = random(k * n, 8);
        let bias = random(n, 9);
        let plain = gemm_naive(m, k, n, |i, kk| a[i * k + kk], |kk, j| b[kk * n + j]);

        let mut c = vec![0.0f32; m * n];
        gemm_ops(m, k, n, &rows(&a, k), &rows(&b, n), &mut BiasCol {
            c: &mut c,
            ldc: n,
            bias: &bias,
        });
        for i in 0..m {
            for j in 0..n {
                assert!((c[i * n + j] - (plain[i * n + j] + bias[j])).abs() < 1e-5);
            }
        }

        let mut r = vec![0.0f32; m * n];
        gemm_ops(m, k, n, &rows(&a, k), &rows(&b, n), &mut BiasColRelu {
            c: &mut r,
            ldc: n,
            bias: &bias,
        });
        for (rv, cv) in r.iter().zip(c.iter()) {
            assert_eq!(*rv, cv.max(0.0));
        }
    }

    #[test]
    fn nchw_scatter_matches_manual_reorder() {
        // C logical [o=3, n·plane=2·4]; scatter into [n=2, o=3, plane=4].
        let (o, batch, plane) = (3, 2, 4);
        let (m, k, n) = (o, 5, batch * plane);
        let a = random(m * k, 10);
        let b = random(k * n, 11);
        let bias = random(o, 12);
        let mut out = vec![0.0f32; batch * o * plane];
        gemm_ops(m, k, n, &rows(&a, k), &rows(&b, n), &mut NchwScatterBias {
            out: &mut out,
            o,
            plane,
            bias: &bias,
        });
        let cmat = gemm_naive(m, k, n, |i, kk| a[i * k + kk], |kk, j| b[kk * n + j]);
        for ni in 0..batch {
            for oi in 0..o {
                for p in 0..plane {
                    let want = cmat[oi * n + ni * plane + p] + bias[oi];
                    let got = out[(ni * o + oi) * plane + p];
                    assert!((got - want).abs() < 1e-5, "({ni},{oi},{p}): {got} vs {want}");
                }
            }
        }
    }

    #[test]
    fn nchw_scatter_row_path_matches_elementwise_on_large_shape() {
        // Big enough for the packed path so write_row (with plane-boundary
        // straddles: plane = 5 < NR) actually runs.
        let (o, batch, plane) = (9, 40, 5);
        let (m, k, n) = (o, 30, batch * plane);
        let a = random(m * k, 50);
        let b = random(k * n, 51);
        let bias = random(o, 52);
        let mut out = vec![0.0f32; batch * o * plane];
        gemm_ops(m, k, n, &rows(&a, k), &rows(&b, n), &mut NchwScatterBias {
            out: &mut out,
            o,
            plane,
            bias: &bias,
        });
        let cmat = gemm_naive(m, k, n, |i, kk| a[i * k + kk], |kk, j| b[kk * n + j]);
        for ni in 0..batch {
            for oi in 0..o {
                for p in 0..plane {
                    let want = cmat[oi * n + ni * plane + p] + bias[oi];
                    let got = out[(ni * o + oi) * plane + p];
                    assert!((got - want).abs() < 1e-4, "({ni},{oi},{p}): {got} vs {want}");
                }
            }
        }
    }

    #[test]
    fn transposed_operands_work() {
        // A stored [k, m] (TN), B stored [n, k] (NT) — both through
        // column-major views, one packed engine.
        let (m, k, n) = (6, 7, 5);
        let a_t = random(k * m, 13); // [k, m]
        let b_t = random(n * k, 14); // [n, k]
        let mut c = vec![0.0f32; m * n];
        gemm_ops(m, k, n, &ColMajor { data: &a_t, ld: m }, &ColMajor { data: &b_t, ld: k }, &mut Store {
            c: &mut c,
            ldc: n,
        });
        let want = gemm_naive(m, k, n, |i, kk| a_t[kk * m + i], |kk, j| b_t[j * k + kk]);
        assert_close(&c, &want, 1e-4);
    }

    #[test]
    fn zero_operands_propagate_non_finite() {
        // 0 · ∞ = NaN must reach the output — the seed kernels' zero-skip
        // dropped it.
        let (m, k, n) = (2, 3, 2);
        let a = vec![0.0f32; m * k];
        let mut b = vec![1.0f32; k * n];
        b[0] = f32::INFINITY;
        b[3] = f32::NAN; // kk=1, j=1
        let mut c = vec![0.0f32; m * n];
        gemm_ops(m, k, n, &rows(&a, k), &rows(&b, n), &mut Store {
            c: &mut c,
            ldc: n,
        });
        assert!(c[0].is_nan(), "0·∞ should be NaN, got {}", c[0]);
        assert!(c[1].is_nan(), "0·NaN should be NaN, got {}", c[1]);
    }

    #[test]
    fn steady_state_reuses_pack_buffers() {
        let (m, k, n) = (64, 64, 64); // big enough for the packed path
        let a = random(m * k, 15);
        let b = random(k * n, 16);
        let mut c = vec![0.0f32; m * n];
        for _ in 0..3 {
            gemm_ops(m, k, n, &rows(&a, k), &rows(&b, n), &mut Store {
                c: &mut c,
                ldc: n,
            });
        }
        let misses = PACK_POOL.with(|p| p.borrow().fresh_allocations());
        assert!(misses <= 2, "pack buffers must be recycled, saw {misses} fresh allocations");
    }

    #[test]
    fn k_zero_writes_zeros() {
        let mut c = vec![7.0f32; 4];
        let empty = RowMajor { data: &[], ld: 0 };
        gemm_ops(2, 0, 2, &empty, &empty, &mut Store { c: &mut c, ldc: 2 });
        assert_eq!(c, vec![0.0; 4]);
    }
}
