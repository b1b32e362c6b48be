//! Int8 symmetric quantized GEMM: the compute format behind the server's
//! quantized ensemble-inference path.
//!
//! The wire format in `kemf-fl::compress` shrinks uploads; this module
//! makes int8 a *compute* format. The scheme is symmetric per-vector
//! scaling, chosen so the GEMM stays a pure integer inner product:
//!
//! * A (activations, or conv weights) is quantized **per row**:
//!   `scale_a[i] = max|A[i,·]| / 127`, `qa[i,kk] = round(A[i,kk] / scale_a[i])`.
//! * B (weights, or im2col patches) is quantized **per column** with the
//!   same rule and packed into a *k-quad interleaved* panel:
//!   `bp[q·4n + 4j + t] = qb(4q + t, j)` (zero slots pad `k % 4`), which
//!   is exactly the layout `vpdpbusd` wants — one register load per
//!   k-quad covers 16 output columns with a fused 4-deep dot product.
//! * The i32 accumulator dequantizes in the epilogue:
//!   `C[i,j] = acc[i,j] · scale_a[i] · scale_b[j]` — handed to the same
//!   [`TileWriter`]s the f32 engine uses, so bias/ReLU/NCHW-scatter fusions
//!   carry over unchanged.
//!
//! With ≤ 127 levels per operand the worst-case element error of the
//! product is bounded by
//! `k · (max|A_i| · s_b/2 + max|B_j| · s_a/2 + s_a·s_b/4)` — the property
//! tests in this crate and in `kemf-fl::compress` check a slacked version
//! of that bound. Accumulation is exact (i32 never overflows: both codes
//! are in `[-127, 127]`, so `k` can reach 2³¹/127² ≈ 133k).
//!
//! Like the f32 engine, dispatch is runtime, in two tiers: AVX-512 VNNI
//! hosts run the `vpdpbusd` kernel in [`crate::simd`] (the biased
//! unsigned×signed form with an exact column-sum correction, see
//! [`crate::simd::gemm_i8_block_vnni`]), and everything else (AVX2-only
//! hosts, and threads under [`crate::simd::force_scalar`]) a portable
//! scalar loop over the same packed layout. Both accumulate in exact i32
//! over identical codes, so their outputs are bit-identical. The B pack
//! interleaves in AVX-512 registers where the host has AVX-512F and in
//! portable code elsewhere, to the same bytes. Non-finite inputs saturate
//! (`NaN → 0`, `±∞ → ±127`); the int8 path is an inference-only
//! approximation, never training.

use crate::gemm::TileWriter;
use crate::simd::{self, Isa};

/// Number of k-quads a logical depth `k` packs into (`k % 4` zero-pads).
#[inline]
pub fn k_quads(k: usize) -> usize {
    k.div_ceil(4)
}

/// Length of the A-code buffer for an `[m, k]` operand (rows padded to a
/// multiple of four codes).
#[inline]
pub fn a_codes_len(m: usize, k: usize) -> usize {
    m * 4 * k_quads(k)
}

/// Length of the interleaved B panel for a `[k, n]` operand.
#[inline]
pub fn b_pack_len(k: usize, n: usize) -> usize {
    k_quads(k) * 4 * n
}

/// Symmetric code for one value: `round(v / scale)` saturated to
/// `[-127, 127]`; NaN saturates to 0. Rounding is implemented as
/// add-half-then-truncate rather than `f32::round` — identical except one
/// ulp below a `.5` boundary, and it stays a branchless mul/add/cast
/// chain the auto-vectorizer handles on the portable SSE2 baseline
/// (where `round` is a libm call that dominates the whole pack pass).
#[inline(always)]
fn code(v: f32, inv_scale: f32) -> i8 {
    let x = (v * inv_scale).clamp(-127.0, 127.0);
    (x + f32::copysign(0.5, x)) as i8
}

/// Symmetric scale for a vector with the given max magnitude. A zero (or
/// all-NaN) vector gets scale 1.0 so dequantization stays finite.
#[inline]
fn scale_for(max_abs: f32) -> f32 {
    if max_abs > 0.0 && max_abs.is_finite() {
        max_abs / 127.0
    } else {
        1.0
    }
}

/// Quantize a row-major `[rows, cols]` matrix per row into `codes`
/// (`len == a_codes_len(rows, cols)`, each row zero-padded to a multiple
/// of four codes) and per-row `scales` (`len == rows`).
pub fn quantize_a_rows(src: &[f32], rows: usize, cols: usize, codes: &mut [i8], scales: &mut [f32]) {
    assert_eq!(src.len(), rows * cols, "A size mismatch");
    assert_eq!(codes.len(), a_codes_len(rows, cols), "A codes size mismatch");
    assert_eq!(scales.len(), rows, "A scales size mismatch");
    let stride = 4 * k_quads(cols);
    // A re-quantizes on every int8 forward (activations change per batch,
    // and a large-batch Linear puts the whole batch in A), so this pass
    // matters as much as the B pack: route full rows through the AVX-512
    // row-quant helper where the host has one.
    #[cfg(target_arch = "x86_64")]
    let fast512 = simd::isa() == Isa::Avx512;
    for i in 0..rows {
        let row = &src[i * cols..(i + 1) * cols];
        let max_abs = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let s = scale_for(max_abs);
        scales[i] = s;
        let inv = 1.0 / s;
        let dst = &mut codes[i * stride..(i + 1) * stride];
        #[cfg(target_arch = "x86_64")]
        if fast512 {
            // SAFETY: the Avx512 tier implies AVX-512F; `row` holds `cols`
            // floats and `dst` at least `cols` bytes.
            unsafe { simd::quant_row_avx512(cols, row.as_ptr(), inv, dst.as_mut_ptr()) };
            dst[cols..].fill(0);
            continue;
        }
        for (d, &v) in dst.iter_mut().zip(row) {
            *d = code(v, inv);
        }
        dst[cols..].fill(0);
    }
}

/// Quantize a row-major `[k, n]` matrix per **column** into the
/// interleaved panel `b_pack` (`len == b_pack_len(k, n)`) and per-column
/// `scales` (`len == n`).
pub fn pack_b_rowmajor(src: &[f32], k: usize, n: usize, b_pack: &mut [i8], scales: &mut [f32]) {
    assert_eq!(src.len(), k * n, "B size mismatch");
    assert_eq!(b_pack.len(), b_pack_len(k, n), "B pack size mismatch");
    assert_eq!(scales.len(), n, "B scales size mismatch");
    // Column maxima via row sweeps (contiguous reads; `max` keeps the
    // loop branchless so it auto-vectorizes. NaN propagates as in the
    // branchy form: `max` keeps the accumulator when `v` is NaN).
    scales.fill(0.0);
    for kk in 0..k {
        let row = &src[kk * n..(kk + 1) * n];
        for (s, &v) in scales.iter_mut().zip(row) {
            *s = s.max(v.abs());
        }
    }
    for s in scales.iter_mut() {
        *s = scale_for(*s);
    }
    // Code in column blocks so each column's reciprocal is computed once
    // per block (a per-element divide would dominate the whole pass) while
    // row reads stay contiguous. Full quads of source rows interleave in
    // registers through the AVX-512 helper where the host has it — the
    // stride-4 byte stores of the quad layout defeat the auto-vectorizer,
    // and this pass, not the integer GEMM, is where the int8 path's time
    // goes (it touches every B element once per forward).
    const BLK: usize = 512;
    let quads = k_quads(k);
    let mut inv = [0.0f32; BLK];
    // Pad rows of a trailing partial quad read from here instead of
    // branching inside the kernel: code(0 · inv) is 0, so the SIMD
    // interleave writes the pad slots correctly for free.
    #[cfg(target_arch = "x86_64")]
    let zero_row = [0.0f32; BLK];
    #[cfg(target_arch = "x86_64")]
    let fast512 = simd::isa() == Isa::Avx512;
    let mut j0 = 0;
    while j0 < n {
        let cols = BLK.min(n - j0);
        for (t, s) in scales[j0..j0 + cols].iter().enumerate() {
            inv[t] = 1.0 / s;
        }
        for q in 0..quads {
            let k0 = 4 * q;
            let dst = &mut b_pack[q * 4 * n + 4 * j0..][..4 * cols];
            #[cfg(target_arch = "x86_64")]
            if fast512 {
                let row_ptr = |t: usize| -> *const f32 {
                    if k0 + t < k {
                        src[(k0 + t) * n + j0..].as_ptr()
                    } else {
                        zero_row.as_ptr()
                    }
                };
                // SAFETY: the Avx512 tier implies AVX-512F; each row
                // pointer (real row from column j0, or the zero pad row)
                // holds ≥ cols floats, inv holds ≥ cols, dst holds 4·cols.
                unsafe {
                    simd::quant_interleave4_avx512(
                        cols,
                        row_ptr(0),
                        row_ptr(1),
                        row_ptr(2),
                        row_ptr(3),
                        inv.as_ptr(),
                        dst.as_mut_ptr(),
                    );
                }
                continue;
            }
            // Portable path: real rows coded, pad slots zeroed.
            for t in 0..4 {
                if k0 + t < k {
                    let row = &src[(k0 + t) * n + j0..][..cols];
                    for (jj, &v) in row.iter().enumerate() {
                        dst[4 * jj + t] = code(v, inv[jj]);
                    }
                } else {
                    for jj in 0..cols {
                        dst[4 * jj + t] = 0;
                    }
                }
            }
        }
        j0 += cols;
    }
}

/// Quantize a row-major `[n, k]` matrix as the **transposed** B operand
/// (`B(kk, j) = src[j·k + kk]`, the Linear-layer weight layout) into the
/// interleaved panel and per-column `scales` (`len == n`). Each packed
/// column is one contiguous source row, so the max/code sweeps stream.
pub fn pack_b_transposed(src: &[f32], n: usize, k: usize, b_pack: &mut [i8], scales: &mut [f32]) {
    assert_eq!(src.len(), n * k, "B size mismatch");
    assert_eq!(b_pack.len(), b_pack_len(k, n), "B pack size mismatch");
    assert_eq!(scales.len(), n, "B scales size mismatch");
    b_pack.fill(0);
    for j in 0..n {
        let row = &src[j * k..(j + 1) * k];
        let max_abs = row.iter().fold(0.0f32, |m, &v| if v.abs() > m { v.abs() } else { m });
        let s = scale_for(max_abs);
        scales[j] = s;
        let inv = 1.0 / s;
        for (kk, &v) in row.iter().enumerate() {
            b_pack[(kk / 4) * 4 * n + 4 * j + (kk % 4)] = code(v, inv);
        }
    }
}

/// Output columns processed per accumulator block (stack i32/f32 scratch,
/// no workspace traffic). Sized so the B subpanel the block touches —
/// `4 · I8_BLOCK` bytes per k-quad — stays L1-resident across the row
/// loop: at the zoo's largest im2col depth (k = 576, 144 quads) that is
/// ~74 KiB touched but only the active quad rows are hot, and at the
/// common k ≤ 288 the whole window fits. Larger blocks re-stream the
/// panel from L2 for every A row and the int8 kernel turns memory-bound.
const I8_BLOCK: usize = 128;

/// Int8 GEMM with dequantizing epilogue:
/// `writer(i, j, acc[i,j] · a_scales[i] · b_scales[j])` where
/// `acc = qa · qb` in exact i32 arithmetic.
///
/// `a_codes`/`a_scales` come from [`quantize_a_rows`]; `b_pack`/`b_scales`
/// from [`pack_b_rowmajor`] or [`pack_b_transposed`]. Counts the same
/// `2·m·n·k` FLOPs as the f32 engine so throughput is comparable.
#[allow(clippy::too_many_arguments)] // mirrors the f32 engine's operand list
pub fn gemm_i8<W: TileWriter>(
    m: usize,
    k: usize,
    n: usize,
    a_codes: &[i8],
    a_scales: &[f32],
    b_pack: &[i8],
    b_scales: &[f32],
    writer: &mut W,
) {
    assert_eq!(a_codes.len(), a_codes_len(m, k), "A codes size mismatch");
    assert_eq!(a_scales.len(), m, "A scales size mismatch");
    assert_eq!(b_pack.len(), b_pack_len(k, n), "B pack size mismatch");
    assert_eq!(b_scales.len(), n, "B scales size mismatch");
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
    let quads = k_quads(k);
    let stride = 4 * quads;
    // The VNNI `vpdpbusd` kernel where the host has it (and no scalar
    // override is in force), else the portable loop.
    let vnni = simd::isa() == Isa::Avx512 && simd::avx512vnni();
    // Cache-line-aligned stack scratch: the kernels store/load these in
    // 64-byte vectors, and a split-line access on every store costs real
    // time at this loop's intensity.
    #[repr(align(64))]
    struct Aligned<T>(T);
    let mut acc = Aligned([0i32; I8_BLOCK]);
    let mut row_out = Aligned([0.0f32; I8_BLOCK]);
    let mut bsum = Aligned([0i32; I8_BLOCK]);
    let (acc, row_out, bsum) = (&mut acc.0, &mut row_out.0, &mut bsum.0);
    // Column blocks outermost so the VNNI bias correction — the column
    // sums of the quantized panel — is computed once per block and
    // amortized over every A row.
    let mut j0 = 0;
    while j0 < n {
        let cols = I8_BLOCK.min(n - j0);
        if vnni {
            // bsum[t] = Σ_kk qb(kk, j0 + t); pad slots are zero so the
            // sweep can stay a straight sum over the packed quads.
            bsum[..cols].fill(0);
            for q in 0..quads {
                let row = &b_pack[q * 4 * n + 4 * j0..][..4 * cols];
                for (s, quad) in bsum[..cols].iter_mut().zip(row.chunks_exact(4)) {
                    *s += quad[0] as i32 + quad[1] as i32 + quad[2] as i32 + quad[3] as i32;
                }
            }
        }
        for i in 0..m {
            let a_row = &a_codes[i * stride..(i + 1) * stride];
            let sa = a_scales[i];
            if vnni {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: AVX-512F and VNNI are confirmed by runtime
                // detection; a_row holds 4·quads codes, b_pack holds
                // quads·4·n, j0 + cols <= n, and bsum/acc hold
                // I8_BLOCK >= cols slots.
                unsafe {
                    simd::gemm_i8_block_vnni(
                        quads,
                        n,
                        j0,
                        cols,
                        a_row.as_ptr(),
                        b_pack.as_ptr(),
                        bsum.as_ptr(),
                        acc.as_mut_ptr(),
                    );
                }
                #[cfg(not(target_arch = "x86_64"))]
                unreachable!("VNNI tier selected on non-x86-64 host");
            } else {
                gemm_i8_block_scalar(quads, n, j0, cols, a_row, b_pack, acc);
            }
            for (t, o) in row_out[..cols].iter_mut().enumerate() {
                *o = acc[t] as f32 * sa * b_scales[j0 + t];
            }
            writer.write_row(i, j0, &row_out[..cols]);
        }
        j0 += cols;
    }
}

/// Portable fallback over the same interleaved panel layout.
fn gemm_i8_block_scalar(
    quads: usize,
    n: usize,
    col0: usize,
    cols: usize,
    a_row: &[i8],
    b_pack: &[i8],
    acc: &mut [i32],
) {
    acc[..cols].fill(0);
    for q in 0..quads {
        let a0 = a_row[4 * q] as i32;
        let a1 = a_row[4 * q + 1] as i32;
        let a2 = a_row[4 * q + 2] as i32;
        let a3 = a_row[4 * q + 3] as i32;
        let row = &b_pack[q * 4 * n + 4 * col0..][..4 * cols];
        for (aj, quad) in acc[..cols].iter_mut().zip(row.chunks_exact(4)) {
            *aj += a0 * quad[0] as i32
                + a1 * quad[1] as i32
                + a2 * quad[2] as i32
                + a3 * quad[3] as i32;
        }
    }
}

/// Worst-case absolute error of one output element of the int8 product
/// versus the exact f32 product, given operand magnitudes: each operand's
/// rounding error is half a quantization step.
pub fn error_bound(k: usize, max_a: f32, scale_a: f32, max_b: f32, scale_b: f32) -> f32 {
    k as f32 * (max_a * scale_b / 2.0 + max_b * scale_a / 2.0 + scale_a * scale_b / 4.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm_naive, Store};
    use crate::rng::seeded_rng;
    use rand::Rng;

    fn random(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = seeded_rng(seed);
        (0..len).map(|_| rng.gen_range(-2.0..2.0)).collect()
    }

    fn run_i8_rowmajor(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut qa = vec![0i8; a_codes_len(m, k)];
        let mut sa = vec![0.0f32; m];
        quantize_a_rows(a, m, k, &mut qa, &mut sa);
        let mut bp = vec![0i8; b_pack_len(k, n)];
        let mut sb = vec![0.0f32; n];
        pack_b_rowmajor(b, k, n, &mut bp, &mut sb);
        let mut c = vec![0.0f32; m * n];
        gemm_i8(m, k, n, &qa, &sa, &bp, &sb, &mut Store { c: &mut c, ldc: n });
        c
    }

    #[test]
    fn int8_product_within_analytic_bound() {
        for &(m, k, n) in &[(1, 1, 1), (3, 7, 5), (6, 13, 45), (16, 27, 100), (8, 64, 33)] {
            let a = random(m * k, 100 + k as u64);
            let b = random(k * n, 200 + n as u64);
            let got = run_i8_rowmajor(m, k, n, &a, &b);
            let want = gemm_naive(m, k, n, |i, kk| a[i * k + kk], |kk, j| b[kk * n + j]);
            // Recompute the per-element bound from the actual scales.
            let mut qa = vec![0i8; a_codes_len(m, k)];
            let mut sa = vec![0.0f32; m];
            quantize_a_rows(&a, m, k, &mut qa, &mut sa);
            let mut bp = vec![0i8; b_pack_len(k, n)];
            let mut sb = vec![0.0f32; n];
            pack_b_rowmajor(&b, k, n, &mut bp, &mut sb);
            for i in 0..m {
                for j in 0..n {
                    let bound = error_bound(k, sa[i] * 127.0, sa[i], sb[j] * 127.0, sb[j]);
                    let err = (got[i * n + j] - want[i * n + j]).abs();
                    assert!(err <= bound * 1.01 + 1e-5, "({i},{j}): err {err} > bound {bound}");
                }
            }
        }
    }

    #[test]
    fn transposed_pack_matches_rowmajor_pack() {
        let (k, n) = (19, 23);
        let b = random(k * n, 7);
        // b stored [k, n]; its transpose stored [n, k].
        let mut bt = vec![0.0f32; n * k];
        for kk in 0..k {
            for j in 0..n {
                bt[j * k + kk] = b[kk * n + j];
            }
        }
        let mut p1 = vec![0i8; b_pack_len(k, n)];
        let mut s1 = vec![0.0f32; n];
        pack_b_rowmajor(&b, k, n, &mut p1, &mut s1);
        let mut p2 = vec![0i8; b_pack_len(k, n)];
        let mut s2 = vec![0.0f32; n];
        pack_b_transposed(&bt, n, k, &mut p2, &mut s2);
        assert_eq!(p1, p2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn scalar_and_simd_tiers_agree_exactly() {
        // Integer arithmetic: both tiers must produce bit-identical
        // accumulators, hence identical dequantized outputs. n = 600 spans
        // five `I8_BLOCK` column blocks (the VNNI `bsum` correction is
        // recomputed per block) and two 512-column pack blocks, the second
        // ending in the interleave's sub-16 tail.
        for &(m, k, n) in &[(5, 31, 77), (3, 37, 600)] {
            let a = random(m * k, 11);
            let b = random(k * n, 12);
            let auto = run_i8_rowmajor(m, k, n, &a, &b);
            let scalar = {
                let _g = simd::ScalarGuard::new();
                run_i8_rowmajor(m, k, n, &a, &b)
            };
            assert_eq!(auto, scalar, "({m}, {k}, {n})");
        }
    }

    #[test]
    fn zero_and_constant_rows() {
        // Zero rows/cols quantize to scale 1.0 with zero codes; output 0.
        let (m, k, n) = (2, 4, 3);
        let a = vec![0.0f32; m * k];
        let b = vec![5.0f32; k * n];
        let c = run_i8_rowmajor(m, k, n, &a, &b);
        assert!(c.iter().all(|&v| v == 0.0), "{c:?}");
    }

    #[test]
    fn k_zero_writes_zeros() {
        let mut c = vec![9.0f32; 4];
        gemm_i8(2, 0, 2, &[], &[1.0, 1.0], &[], &[1.0, 1.0], &mut Store { c: &mut c, ldc: 2 });
        assert_eq!(c, vec![0.0; 4]);
    }
}
