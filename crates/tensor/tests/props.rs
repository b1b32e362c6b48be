//! Property-based tests of the tensor kernels: algebraic identities the
//! numeric substrate must satisfy for any input.

use kemf_tensor::conv::{col2im, im2col, input_grad, weight_grad, ConvGeom};
use kemf_tensor::gemm::{
    gemm_naive, gemm_ops, Accumulate, ColMajor, NchwGather, NchwScatterBias, Operand, RowMajor,
    Store,
};
use kemf_tensor::matmul::{matmul_into, matmul_nt_into, matmul_tn_into};
use kemf_tensor::ops::{softmax, sum_rows, transpose2d};
use kemf_tensor::rng::seeded_rng;
use kemf_tensor::Tensor;
use proptest::prelude::*;
use rand::Rng;

/// Bit patterns, for equality that tells `0.0` from `-0.0` and compares
/// NaNs.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn tensor_strategy(n: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-4.0f32..4.0, n)
}

/// A slice entry point of `kemf_tensor::matmul`.
type MatmulInto = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);

/// `A·B` of two matrices through the slice entry point `f`
/// (`matmul_into`, or a transposed variant with `a`/`b` stored that way).
fn product(
    f: MatmulInto,
    a: &Tensor,
    b: &Tensor,
    (m, k, n): (usize, usize, usize),
) -> Tensor {
    let mut c = Tensor::zeros(&[m, n]);
    f(a.data(), b.data(), c.data_mut(), m, k, n);
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_identity(v in tensor_strategy(25)) {
        let a = Tensor::from_vec(v, &[5, 5]);
        let i = Tensor::eye(5);
        kemf_tensor::assert_close(product(matmul_into, &a, &i, (5, 5, 5)).data(), a.data(), 1e-5);
        kemf_tensor::assert_close(product(matmul_into, &i, &a, (5, 5, 5)).data(), a.data(), 1e-5);
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in tensor_strategy(12),
        b in tensor_strategy(20),
        c in tensor_strategy(20),
    ) {
        let a = Tensor::from_vec(a, &[3, 4]);
        let b = Tensor::from_vec(b, &[4, 5]);
        let c = Tensor::from_vec(c, &[4, 5]);
        let mm = |x: &Tensor, y: &Tensor| product(matmul_into, x, y, (3, 4, 5));
        let lhs = mm(&a, &b.add(&c));
        let rhs = mm(&a, &b).add(&mm(&a, &c));
        kemf_tensor::assert_close(lhs.data(), rhs.data(), 1e-3);
    }

    #[test]
    fn matmul_scalar_commutes(a in tensor_strategy(12), b in tensor_strategy(8), s in -3.0f32..3.0) {
        let a = Tensor::from_vec(a, &[3, 4]);
        let b = Tensor::from_vec(b, &[4, 2]);
        let lhs = product(matmul_into, &a.scale(s), &b, (3, 4, 2));
        let rhs = product(matmul_into, &a, &b, (3, 4, 2)).scale(s);
        kemf_tensor::assert_close(lhs.data(), rhs.data(), 1e-3);
    }

    #[test]
    fn transpose_is_involution(v in tensor_strategy(24)) {
        let t = Tensor::from_vec(v, &[4, 6]);
        let tt = transpose2d(&transpose2d(&t));
        prop_assert_eq!(tt.data(), t.data());
    }

    #[test]
    fn tn_variant_equals_pretransposed(a in tensor_strategy(12), b in tensor_strategy(8)) {
        // (Aᵀ)·B via matmul_tn_into == transpose(A)·B via matmul_into.
        let a_km = Tensor::from_vec(a, &[4, 3]); // stored [k=4, m=3]
        let b_kn = Tensor::from_vec(b, &[4, 2]);
        let fast = product(matmul_tn_into, &a_km, &b_kn, (3, 4, 2));
        let slow = product(matmul_into, &transpose2d(&a_km), &b_kn, (3, 4, 2));
        kemf_tensor::assert_close(fast.data(), slow.data(), 1e-4);
    }

    #[test]
    fn nt_variant_equals_pretransposed(a in tensor_strategy(12), b in tensor_strategy(8)) {
        let a_mk = Tensor::from_vec(a, &[3, 4]);
        let b_nk = Tensor::from_vec(b, &[2, 4]); // stored [n=2, k=4]
        let fast = product(matmul_nt_into, &a_mk, &b_nk, (3, 4, 2));
        let slow = product(matmul_into, &a_mk, &transpose2d(&b_nk), (3, 4, 2));
        kemf_tensor::assert_close(fast.data(), slow.data(), 1e-4);
    }

    #[test]
    fn softmax_preserves_argmax(v in tensor_strategy(10)) {
        let t = Tensor::from_vec(v, &[2, 5]);
        let s = softmax(&t);
        prop_assert_eq!(
            kemf_tensor::ops::argmax_rows(&t),
            kemf_tensor::ops::argmax_rows(&s)
        );
    }

    #[test]
    fn sum_rows_matches_total(v in tensor_strategy(21)) {
        let t = Tensor::from_vec(v, &[3, 7]);
        let s = sum_rows(&t);
        prop_assert!((s.sum() - t.sum()).abs() < 1e-3);
    }

    #[test]
    fn im2col_col2im_adjoint(
        x in tensor_strategy(2 * 2 * 6 * 6),
        stride in 1usize..3,
        pad in 0usize..2,
    ) {
        let geom = ConvGeom { n: 2, c: 2, h: 6, w: 6, kh: 3, kw: 3, stride, pad };
        let ysz = geom.patch_len() * geom.cols();
        // Fixed pseudo-random y derived from x to keep the test deterministic.
        let y: Vec<f32> = (0..ysz).map(|i| ((i * 2654435761) % 1000) as f32 / 500.0 - 1.0).collect();
        let mut cols = vec![0.0; ysz];
        im2col(&x, &geom, &mut cols);
        let lhs: f64 = cols.iter().zip(y.iter()).map(|(&a, &b)| (a as f64) * (b as f64)).sum();
        let mut xg = vec![0.0; x.len()];
        col2im(&y, &geom, &mut xg);
        let rhs: f64 = x.iter().zip(xg.iter()).map(|(&a, &b)| (a as f64) * (b as f64)).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2, "adjoint mismatch: {lhs} vs {rhs}");
    }

    #[test]
    fn axpy_matches_manual(a in tensor_strategy(9), b in tensor_strategy(9), alpha in -2.0f32..2.0) {
        let mut x = Tensor::from_vec(a.clone(), &[9]);
        let y = Tensor::from_vec(b.clone(), &[9]);
        x.axpy(alpha, &y);
        for i in 0..9 {
            prop_assert!((x.data()[i] - (a[i] + alpha * b[i])).abs() < 1e-4);
        }
    }

    #[test]
    fn packed_gemm_matches_naive_all_layouts(
        mi in 0usize..5,
        ki in 0usize..5,
        ni in 0usize..5,
        seed in 0u64..(1 << 32),
    ) {
        // Dimensions straddle every blocking boundary of the packed
        // engine: microtile edges (1, 7), interior (17), exactly one
        // macro-row-block (64), and past the parallel-split threshold
        // guard (129 > MC).
        const DIMS: [usize; 5] = [1, 7, 17, 64, 129];
        let (m, k, n) = (DIMS[mi], DIMS[ki], DIMS[ni]);
        let mut rng = seeded_rng(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();

        let expect = gemm_naive(m, k, n, |i, kk| a[i * k + kk], |kk, j| b[kk * n + j]);
        let mut c = vec![0.0; m * n];
        matmul_into(&a, &b, &mut c, m, k, n);
        kemf_tensor::assert_close(&c, &expect, 1e-4);

        // Same product expressed through the TN layout (A stored [k, m])…
        let mut a_km = vec![0.0; k * m];
        for i in 0..m {
            for kk in 0..k {
                a_km[kk * m + i] = a[i * k + kk];
            }
        }
        let mut c_tn = vec![0.0; m * n];
        matmul_tn_into(&a_km, &b, &mut c_tn, m, k, n);
        kemf_tensor::assert_close(&c_tn, &expect, 1e-4);

        // …and the NT layout (B stored [n, k]).
        let mut b_nk = vec![0.0; n * k];
        for kk in 0..k {
            for j in 0..n {
                b_nk[j * k + kk] = b[kk * n + j];
            }
        }
        let mut c_nt = vec![0.0; m * n];
        matmul_nt_into(&a, &b_nk, &mut c_nt, m, k, n);
        kemf_tensor::assert_close(&c_nt, &expect, 1e-4);
    }

    #[test]
    fn simd_dispatch_tiers_agree_with_naive(
        mi in 0usize..5,
        ki in 0usize..5,
        ni in 0usize..5,
        seed in 0u64..(1 << 32),
    ) {
        // The same product through every dispatch tier available on this
        // host: whatever `simd::isa()` auto-selects (AVX-512 8×32 or
        // AVX2 6×16 where present) and the forced portable scalar 8×8
        // path must both agree with the triple-loop reference (which adds
        // unfused, hence the tolerance) — and, running the same FMA chain
        // per element, with each other bit for bit.
        const DIMS: [usize; 5] = [1, 5, 8, 33, 70];
        let (m, k, n) = (DIMS[mi], DIMS[ki], DIMS[ni]);
        let mut rng = seeded_rng(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let expect = gemm_naive(m, k, n, |i, kk| a[i * k + kk], |kk, j| b[kk * n + j]);

        let mut c_auto = vec![0.0; m * n];
        matmul_into(&a, &b, &mut c_auto, m, k, n);
        kemf_tensor::assert_close(&c_auto, &expect, 1e-4);

        let mut c_scalar = vec![0.0; m * n];
        {
            let _g = kemf_tensor::simd::ScalarGuard::new();
            matmul_into(&a, &b, &mut c_scalar, m, k, n);
        }
        kemf_tensor::assert_close(&c_scalar, &expect, 1e-4);
        prop_assert_eq!(bits(&c_auto), bits(&c_scalar));
    }

    #[test]
    fn gather_rows_then_concat_is_permutation(v in tensor_strategy(12)) {
        let t = Tensor::from_vec(v, &[4, 3]);
        let g = t.gather_rows(&[2, 0, 3, 1]);
        let mut orig: Vec<f32> = t.data().to_vec();
        let mut gath: Vec<f32> = g.data().to_vec();
        orig.sort_by(f32::total_cmp);
        gath.sort_by(f32::total_cmp);
        prop_assert_eq!(orig, gath);
    }
}

/// The scatter loop `col2im` replaced, kept as the reference for its
/// summation order: output positions outermost, so an input pixel meets
/// its addends in ascending `(oy, ox)`.
fn col2im_scatter(cols: &[f32], geom: &ConvGeom, input_grad: &mut [f32]) {
    let (oh, ow) = (geom.oh(), geom.ow());
    let ncols = geom.cols();
    input_grad.fill(0.0);
    let (h, w) = (geom.h, geom.w);
    for n in 0..geom.n {
        for oy in 0..oh {
            let iy0 = (oy * geom.stride) as isize - geom.pad as isize;
            for ox in 0..ow {
                let ix0 = (ox * geom.stride) as isize - geom.pad as isize;
                let col = (n * oh + oy) * ow + ox;
                let ky_lo = (-iy0).max(0) as usize;
                let ky_hi = geom.kh.min((h as isize - iy0).max(0) as usize);
                let kx_lo = (-ix0).max(0) as usize;
                let kx_hi = geom.kw.min((w as isize - ix0).max(0) as usize);
                for c in 0..geom.c {
                    let in_base = (n * geom.c + c) * h * w;
                    let row_base = c * geom.kh * geom.kw;
                    for ky in ky_lo..ky_hi {
                        let iy = (iy0 + ky as isize) as usize;
                        for kx in kx_lo..kx_hi {
                            let ix = (ix0 + kx as isize) as usize;
                            input_grad[in_base + iy * w + ix] +=
                                cols[(row_base + ky * geom.kw + kx) * ncols + col];
                        }
                    }
                }
            }
        }
    }
}

/// Every geometry of the sweep: k ∈ {1,3,5} (square and not), stride ∈
/// {1,2}, pad ∈ {0,1,2}, output planes from 1×1 up with OW ∈ {1,2,4,16}
/// and OH ≠ OW, so both loop shapes of the kernels and their switch-over
/// are covered.
fn conv_sweep() -> Vec<ConvGeom> {
    let mut out = Vec::new();
    for (kh, kw) in [(1, 1), (3, 3), (5, 5), (3, 5)] {
        for stride in [1, 2] {
            for pad in [0, 1, 2] {
                for (oh, ow) in [(1, 1), (2, 2), (3, 1), (4, 4), (5, 4), (3, 16), (9, 2)] {
                    // Smallest input with that output size, plus one row and
                    // column the last window does not reach when strided.
                    let extent = |o: usize, k: usize| ((o - 1) * stride + k + stride - 1).checked_sub(2 * pad);
                    let (Some(h), Some(w)) = (extent(oh, kh), extent(ow, kw)) else { continue };
                    if h == 0 || w == 0 {
                        continue;
                    }
                    let geom = ConvGeom { n: 3, c: 2, h, w, kh, kw, stride, pad };
                    assert_eq!((geom.oh(), geom.ow()), (oh, ow));
                    out.push(geom);
                }
            }
        }
    }
    assert!(out.len() > 100, "sweep shrank to {}", out.len());
    out
}

#[test]
fn im2col_matches_its_definition_on_every_geometry() {
    let mut rng = seeded_rng(77);
    for g in conv_sweep() {
        let x: Vec<f32> = (0..g.n * g.c * g.h * g.w).map(|_| rng.gen_range(-1.0..1.0)).collect();
        // Stale contents: the kernel must write every element itself.
        let mut cols = vec![f32::NAN; g.patch_len() * g.cols()];
        im2col(&x, &g, &mut cols);
        let (oh, ow) = (g.oh(), g.ow());
        for (idx, &got) in cols.iter().enumerate() {
            let (row, col) = (idx / g.cols(), idx % g.cols());
            let (c, ky, kx) = (row / (g.kh * g.kw), row / g.kw % g.kh, row % g.kw);
            let (n, oy, ox) = (col / (oh * ow), col / ow % oh, col % ow);
            let iy = (oy * g.stride + ky).checked_sub(g.pad).filter(|&iy| iy < g.h);
            let ix = (ox * g.stride + kx).checked_sub(g.pad).filter(|&ix| ix < g.w);
            let want = match (iy, ix) {
                (Some(iy), Some(ix)) => x[((n * g.c + c) * g.h + iy) * g.w + ix],
                _ => 0.0,
            };
            assert_eq!(got.to_bits(), want.to_bits(), "{g:?} row {row} col {col}");
        }
    }
}

#[test]
fn col2im_matches_the_scatter_loop_bit_for_bit() {
    let mut rng = seeded_rng(78);
    for g in conv_sweep() {
        let cols: Vec<f32> =
            (0..g.patch_len() * g.cols()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut want = vec![f32::NAN; g.n * g.c * g.h * g.w];
        col2im_scatter(&cols, &g, &mut want);
        let mut got = vec![f32::NAN; want.len()];
        col2im(&cols, &g, &mut got);
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{g:?} pixel {i}: {a} vs {b}");
        }
    }
}

#[test]
fn nchw_gather_bulk_fills_equal_at_across_image_boundaries() {
    fn check<const L: usize>(op: &NchwGather<'_>, rows: usize, cols: usize) {
        for i in 0..rows {
            for j0 in 0..=cols.saturating_sub(L) {
                let want: Vec<f32> = (0..L.min(cols)).map(|t| op.at(i, j0 + t)).collect();
                let mut got = vec![f32::NAN; want.len()];
                op.fill_row(i, j0, &mut got);
                assert_eq!(got, want, "fill_row({i}, {j0}), plane {}", op.plane);
                if L <= cols {
                    let mut arr = [f32::NAN; L];
                    op.fill_row_arr(i, j0, &mut arr);
                    assert_eq!(arr[..], want[..], "fill_row_arr({i}, {j0}), plane {}", op.plane);
                }
            }
        }
        for j in 0..cols {
            for i0 in 0..=rows.saturating_sub(L) {
                let want: Vec<f32> = (0..L.min(rows)).map(|t| op.at(i0 + t, j)).collect();
                let mut got = vec![f32::NAN; want.len()];
                op.fill_col(j, i0, &mut got);
                assert_eq!(got, want, "fill_col({j}, {i0}), plane {}", op.plane);
                if L <= rows {
                    let mut arr = [f32::NAN; L];
                    op.fill_col_arr(j, i0, &mut arr);
                    assert_eq!(arr[..], want[..], "fill_col_arr({j}, {i0}), plane {}", op.plane);
                }
            }
        }
    }
    // Planes shorter than, equal to and longer than the segment, so one
    // segment crosses several images, exactly one boundary, or none.
    for (n, o, plane) in [(40, 9, 1), (12, 8, 3), (7, 6, 8), (4, 9, 16), (3, 8, 40)] {
        let data: Vec<f32> = (0..n * o * plane).map(|v| v as f32).collect();
        let op = NchwGather { data: &data, o, plane };
        assert_eq!(op.at(o - 1, n * plane - 1), *data.last().unwrap());
        check::<6>(&op, o, n * plane);
        check::<8>(&op, o, n * plane);
        check::<32>(&op, o, n * plane);
    }
}

/// An operand the engine may not read in place: every method but
/// `in_place` forwards, so the product takes the
/// packed-B route — the only route there was before the in-place kernels.
struct Packed<T>(T);

impl<T: Operand> Operand for Packed<T> {
    const ROWS_CONTIGUOUS: bool = T::ROWS_CONTIGUOUS;

    fn at(&self, i: usize, j: usize) -> f32 {
        self.0.at(i, j)
    }

    fn fill_row(&self, i: usize, j0: usize, dst: &mut [f32]) {
        self.0.fill_row(i, j0, dst);
    }

    fn fill_col(&self, j: usize, i0: usize, dst: &mut [f32]) {
        self.0.fill_col(j, i0, dst);
    }

    fn fill_row_arr<const L: usize>(&self, i: usize, j0: usize, dst: &mut [f32; L]) {
        self.0.fill_row_arr(i, j0, dst);
    }

    fn fill_col_arr<const L: usize>(&self, j: usize, i0: usize, dst: &mut [f32; L]) {
        self.0.fill_col_arr(j, i0, dst);
    }
}

#[test]
fn conv_forward_is_bit_identical_reading_cols_in_place_or_packed() {
    // The forward product of a convolution, `W · cols` scattered to NCHW:
    // with O ≤ 16 the widest tier reads `cols` in place, otherwise (and on
    // every other tier) it packs it. Same bits either way, on every tier
    // this host has.
    let mut rng = seeded_rng(79);
    let g = ConvGeom { n: 5, c: 6, h: 9, w: 7, kh: 3, kw: 3, stride: 1, pad: 1 };
    let x: Vec<f32> = (0..g.n * g.c * g.h * g.w).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let (patch, ncols, plane) = (g.patch_len(), g.cols(), g.oh() * g.ow());
    let mut cols = vec![0.0; patch * ncols];
    im2col(&x, &g, &mut cols);
    for o in [4, 8, 16, 24] {
        let w: Vec<f32> = (0..o * patch).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let bias: Vec<f32> = (0..o).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let forward = |packed: bool| {
            let mut y = vec![f32::NAN; g.n * o * plane];
            let a = RowMajor { data: &w, ld: patch };
            let b = RowMajor { data: &cols, ld: ncols };
            let mut out = NchwScatterBias { out: &mut y, o, plane, bias: &bias };
            if packed {
                gemm_ops(o, patch, ncols, &a, &Packed(b), &mut out);
            } else {
                gemm_ops(o, patch, ncols, &a, &b, &mut out);
            }
            y
        };
        assert_eq!(bits(&forward(false)), bits(&forward(true)), "O = {o}, native tier");
        let _scalar = kemf_tensor::simd::ScalarGuard::new();
        assert_eq!(bits(&forward(false)), bits(&forward(true)), "O = {o}, scalar tier");
    }
}

/// Both gradients of one lowered convolution as `Conv2d::backward` asks
/// for them: `dw0 + g · colsᵀ` and `col2im(Wᵀ · g)`.
fn conv_backward(
    geom: &ConvGeom,
    o: usize,
    (x, w, g, dw0): (&[f32], &[f32], &[f32], &[f32]),
) -> (Vec<f32>, Vec<f32>) {
    let mut cols = vec![f32::NAN; geom.patch_len() * geom.cols()];
    im2col(x, geom, &mut cols);
    let mut dw = dw0.to_vec();
    weight_grad(g, o, &cols, geom, &mut dw);
    // As in the layer: the patch matrix is the input gradient's scratch.
    let mut gx = vec![f32::NAN; x.len()];
    input_grad(w, g, o, geom, &mut cols, &mut gx);
    (dw, gx)
}

/// The same two gradients by the route the in-place kernels replaced:
/// `cols` packed as a column-major B, the whole patch gradient stored and
/// scattered by the output-position-outermost loop.
fn conv_backward_packed(
    geom: &ConvGeom,
    o: usize,
    (x, w, g, dw0): (&[f32], &[f32], &[f32], &[f32]),
) -> (Vec<f32>, Vec<f32>) {
    let (patch, ncols, plane) = (geom.patch_len(), geom.cols(), geom.oh() * geom.ow());
    let mut cols = vec![f32::NAN; patch * ncols];
    im2col(x, geom, &mut cols);
    let g_mat = NchwGather { data: g, o, plane };
    let mut dw = dw0.to_vec();
    gemm_ops(
        o,
        ncols,
        patch,
        &g_mat,
        &Packed(ColMajor { data: &cols, ld: ncols }),
        &mut Accumulate { c: &mut dw, ldc: patch },
    );
    let mut dcols = vec![f32::NAN; patch * ncols];
    gemm_ops(patch, o, ncols, &ColMajor { data: w, ld: patch }, &g_mat, &mut Store {
        c: &mut dcols,
        ldc: ncols,
    });
    let mut gx = vec![f32::NAN; x.len()];
    col2im_scatter(&dcols, geom, &mut gx);
    (dw, gx)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn conv_backward_routes_agree_bit_for_bit(
        oi in 0usize..7,
        ci in 0usize..6,
        pi in 0usize..7,
        stride in 1usize..3,
        seed in 0u64..(1 << 32),
    ) {
        // Filter banks on both sides of the in-place kernel's 16-row
        // bound and of its 4- and 8-row tiles; patch lengths off the
        // vector width (27, 36, 72, 576; 4 and 8 for 1×1); column counts
        // 16 to 4096 with planes from 1×1 (offset-table `col2im`, whole
        // patch gradient) to 16×16 (row runs, one image per panel) and a
        // 10×10 that leaves every 16-block a tail.
        const O: [usize; 7] = [1, 3, 4, 8, 16, 17, 64];
        const FILTERS: [(usize, usize); 6] = [(3, 3), (4, 3), (8, 3), (64, 3), (4, 1), (8, 1)];
        const OUTPUTS: [(usize, usize); 7] =
            [(16, 1), (1, 4), (4, 4), (16, 4), (1, 16), (10, 10), (16, 16)];
        let (o, (c, k), (mut n, out)) = (O[oi], FILTERS[ci], OUTPUTS[pi]);
        // Keep the scalar-tier leg short: the widest banks see fewer images.
        while n > 1 && o * c * k * k * n * out * out > (1 << 23) {
            n /= 2;
        }
        let pad = k / 2;
        let hw = (out - 1) * stride + k - 2 * pad;
        let geom = ConvGeom { n, c, h: hw, w: hw, kh: k, kw: k, stride, pad };
        prop_assert_eq!((geom.oh(), geom.ow()), (out, out));
        let mut rng = seeded_rng(seed);
        let mut draw = |len: usize| (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect::<Vec<_>>();
        let (x, w) = (draw(n * c * hw * hw), draw(o * geom.patch_len()));
        // A gradient already in `weight.grad`: the product accumulates.
        let (g, dw0) = (draw(n * o * out * out), draw(o * geom.patch_len()));
        let operands = (&x[..], &w[..], &g[..], &dw0[..]);

        let (dw, gx) = conv_backward(&geom, o, operands);
        let (dw_packed, gx_packed) = conv_backward_packed(&geom, o, operands);
        prop_assert!(bits(&dw) == bits(&dw_packed), "weight gradient vs packed route, {:?} O {}", geom, o);
        prop_assert!(bits(&gx) == bits(&gx_packed), "input gradient vs whole-matrix route, {:?} O {}", geom, o);
        let _scalar = kemf_tensor::simd::ScalarGuard::new();
        let (dw_scalar, gx_scalar) = conv_backward(&geom, o, operands);
        prop_assert!(bits(&dw) == bits(&dw_scalar), "weight gradient vs scalar tier, {:?} O {}", geom, o);
        prop_assert!(bits(&gx) == bits(&gx_scalar), "input gradient vs scalar tier, {:?} O {}", geom, o);
    }
}
