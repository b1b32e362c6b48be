//! Process-wide GEMM FLOP accounting.
//!
//! Every call into [`crate::gemm::gemm_ops`] — which is the single engine
//! behind all matmul layouts and the im2col-lowered convolutions — adds
//! its `2·m·n·k` multiply-add count to one global counter. The counter is
//! monotonic; consumers (the federated engine's observability layer)
//! measure *deltas* around a region of work:
//!
//! ```
//! let before = kemf_tensor::flops::total();
//! // ... run some training step ...
//! let spent = kemf_tensor::flops::total() - before;
//! # assert_eq!(spent, 0);
//! ```
//!
//! Deltas are exact for a single engine because its phases run
//! sequentially and every client task it fans out to adds into the same
//! counter before the phase joins. They are *not* isolated across
//! concurrently running engines in one process (e.g. parallel tests):
//! treat cross-engine deltas as upper bounds, and never assert equality
//! on FLOP counts in tests that may share the process.
//!
//! Cost: one relaxed `fetch_add` per GEMM call — O(1) against the
//! O(m·n·k) kernel it meters, unmeasurable even for the smallest
//! dispatched products.

use std::sync::atomic::{AtomicU64, Ordering};

static GEMM_FLOPS: AtomicU64 = AtomicU64::new(0);

/// Cumulative GEMM FLOPs (2·m·n·k per product) since process start,
/// wrapping on u64 overflow (~6 exaFLOPs; unreachable in practice).
pub fn total() -> u64 {
    GEMM_FLOPS.load(Ordering::Relaxed)
}

/// Credit `n` FLOPs to the global counter. Called by the GEMM entry
/// point; public so future non-GEMM kernels can participate.
#[inline]
pub fn add(n: u64) {
    GEMM_FLOPS.fetch_add(n, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm_ops, RowMajor, Store};

    #[test]
    fn gemm_credits_two_mnk_flops() {
        let (m, k, n) = (5, 7, 3);
        let a = vec![1.0f32; m * k];
        let b = vec![1.0f32; k * n];
        let mut c = vec![0.0f32; m * n];
        let before = total();
        let (a, b) = (RowMajor { data: &a, ld: k }, RowMajor { data: &b, ld: n });
        gemm_ops(m, k, n, &a, &b, &mut Store { c: &mut c, ldc: n });
        let spent = total() - before;
        // Other tests may run concurrently and add their own FLOPs, so
        // assert a lower bound only.
        assert!(spent >= (2 * m * n * k) as u64, "counted {spent}");
    }

    #[test]
    fn degenerate_products_cost_nothing() {
        let before = total();
        let mut c = vec![0.0f32; 4];
        let ones = [1.0f32; 6];
        let (a, b) = (RowMajor { data: &ones, ld: 3 }, RowMajor { data: &ones, ld: 2 });
        gemm_ops(2, 0, 2, &a, &b, &mut Store { c: &mut c, ldc: 2 });
        gemm_ops(0, 3, 2, &a, &b, &mut Store { c: &mut c, ldc: 2 });
        // Monotonicity is all we can assert under parallel tests.
        assert!(total() >= before);
    }
}
