//! Matrix multiplication kernels.
//!
//! Three layouts cover every use in the stack without materializing
//! transposes:
//!
//! * [`matmul_into`]    — `C = A · B`          (forward passes)
//! * [`matmul_tn_into`] — `C = Aᵀ · B`         (weight gradients)
//! * [`matmul_nt_into`] — `C = A · Bᵀ`         (input gradients)
//!
//! All three are thin layout adapters over the packed, cache-blocked
//! engine in [`crate::gemm`]: the stored layout is expressed as a
//! [`RowMajor`]/[`ColMajor`] operand and the result goes through the plain
//! [`Store`] writer. The layers call [`gemm_ops`] themselves with fused
//! epilogues; these entry points remain as the kernel benchmarks' baseline
//! (plain slices in, plain slice out, on the calling thread).
//!
//! There is deliberately no zero-skip fast path: `0 × ∞` and `0 × NaN`
//! must produce `NaN` in the output, matching IEEE-754 and the naive
//! reference (see `zero_times_nonfinite_propagates`).

use crate::gemm::{gemm_ops, ColMajor, RowMajor, Store};

/// `C[m,n] = A[m,k] · B[k,n]`, writing into `c`.
pub fn matmul_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A size mismatch");
    assert_eq!(b.len(), k * n, "B size mismatch");
    assert_eq!(c.len(), m * n, "C size mismatch");
    let (a, b) = (RowMajor { data: a, ld: k }, RowMajor { data: b, ld: n });
    gemm_ops(m, k, n, &a, &b, &mut Store { c, ldc: n });
}

/// `C[m,n] = Aᵀ[m,k] · B[k,n]` where `A` is stored as `[k, m]`.
pub fn matmul_tn_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), k * m, "A size mismatch");
    assert_eq!(b.len(), k * n, "B size mismatch");
    assert_eq!(c.len(), m * n, "C size mismatch");
    // Logical A(i, kk) = a[kk·m + i]: a column-major view with ld = m.
    let (a, b) = (ColMajor { data: a, ld: m }, RowMajor { data: b, ld: n });
    gemm_ops(m, k, n, &a, &b, &mut Store { c, ldc: n });
}

/// `C[m,n] = A[m,k] · Bᵀ[k,n]` where `B` is stored as `[n, k]`.
pub fn matmul_nt_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A size mismatch");
    assert_eq!(b.len(), n * k, "B size mismatch");
    assert_eq!(c.len(), m * n, "C size mismatch");
    // Logical B(kk, j) = b[j·k + kk]: a column-major view with ld = k.
    let (a, b) = (RowMajor { data: a, ld: k }, ColMajor { data: b, ld: k });
    gemm_ops(m, k, n, &a, &b, &mut Store { c, ldc: n });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;
    use crate::rng::seeded_rng;
    use rand::Rng;

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    #[test]
    fn identity() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let mut c = [0.0; 4];
        matmul_into(&a, &[1.0, 0.0, 0.0, 1.0], &mut c, 2, 2, 2);
        assert_eq!(c, a);
    }

    #[test]
    fn known_product() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let b = [7.0, 8.0, 9.0, 10.0, 11.0, 12.0];
        let mut c = [0.0; 4];
        matmul_into(&a, &b, &mut c, 2, 3, 2);
        assert_eq!(c, [58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn random_sizes_match_naive() {
        let mut rng = seeded_rng(7);
        // Includes shapes above the packed-path threshold and past one
        // macro tile, not just tiny ones.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 2),
            (17, 33, 9),
            (40, 8, 40),
            (5, 64, 1),
            (65, 33, 70),
            (130, 70, 129),
        ] {
            let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut c = vec![0.0; m * n];
            matmul_into(&a, &b, &mut c, m, k, n);
            assert_close(&c, &naive(&a, &b, m, k, n), 1e-4);
        }
    }

    #[test]
    fn tn_matches_explicit_transpose() {
        let mut rng = seeded_rng(8);
        for &(m, k, n) in &[(6, 11, 4), (129, 40, 67)] {
            // A stored [k, m]
            let a: Vec<f32> = (0..k * m).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut at = vec![0.0; m * k];
            for i in 0..k {
                for j in 0..m {
                    at[j * k + i] = a[i * m + j];
                }
            }
            let mut c = vec![0.0; m * n];
            matmul_tn_into(&a, &b, &mut c, m, k, n);
            assert_close(&c, &naive(&at, &b, m, k, n), 1e-4);
        }
    }

    #[test]
    fn nt_matches_explicit_transpose() {
        let mut rng = seeded_rng(9);
        for &(m, k, n) in &[(5, 7, 13), (70, 50, 131)] {
            let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
            // B stored [n, k]
            let b: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut bt = vec![0.0; k * n];
            for i in 0..n {
                for j in 0..k {
                    bt[j * n + i] = b[i * k + j];
                }
            }
            let mut c = vec![0.0; m * n];
            matmul_nt_into(&a, &b, &mut c, m, k, n);
            assert_close(&c, &naive(&a, &bt, m, k, n), 1e-4);
        }
    }

    #[test]
    fn zero_times_nonfinite_propagates() {
        // Regression: the former kernels skipped `a == 0.0` terms, so a
        // zero row silently masked Inf/NaN in the other operand. IEEE-754
        // (and the naive reference) say 0·∞ = NaN.
        let m = 2;
        let k = 3;
        let n = 2;
        let a_zero = vec![0.0f32; m * k];
        let mut b_bad = vec![1.0f32; k * n];
        b_bad[0] = f32::INFINITY;
        b_bad[1] = f32::NAN;

        let mut c = vec![0.0f32; m * n];
        matmul_into(&a_zero, &b_bad, &mut c, m, k, n);
        assert!(c[0].is_nan() && c[1].is_nan(), "matmul_into dropped 0·∞: {c:?}");

        // TN: A stored [k, m], all zeros.
        let mut c = vec![0.0f32; m * n];
        matmul_tn_into(&a_zero, &b_bad, &mut c, m, k, n);
        assert!(c[0].is_nan() && c[1].is_nan(), "matmul_tn_into dropped 0·∞: {c:?}");

        // NT: B stored [n, k] with a non-finite entry against zero A.
        let mut b_nk = vec![1.0f32; n * k];
        b_nk[0] = f32::NEG_INFINITY;
        let mut c = vec![0.0f32; m * n];
        matmul_nt_into(&a_zero, &b_nk, &mut c, m, k, n);
        assert!(c[0].is_nan(), "matmul_nt_into dropped 0·∞: {c:?}");
    }

    #[test]
    #[should_panic]
    fn size_mismatch_panics() {
        // A is [2, 3]; a [4, 2] B does not have k·n = 6 elements.
        matmul_into(&[0.0; 6], &[0.0; 8], &mut [0.0; 4], 2, 3, 2);
    }
}
