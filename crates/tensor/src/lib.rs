//! # kemf-tensor
//!
//! Dense `f32` tensor kernels for the FedKEMF stack: the numeric substrate
//! every higher layer (neural networks, federated algorithms, experiment
//! harnesses) is built on.
//!
//! The design goals, in order:
//!
//! 1. **Correctness** — every kernel is unit-tested and the hot ones are
//!    cross-checked against naive reference implementations and finite
//!    differences (in `kemf-nn`).
//! 2. **Predictable performance on CPU** — row-major contiguous storage, a
//!    packed cache-blocked GEMM ([`gemm`]) with runtime-dispatched
//!    microkernels and fused epilogues, an int8 symmetric quantized
//!    inference path
//!    ([`quant`]), convolution run direct for filter banks of at most 16
//!    and lowered to matmul through `im2col` otherwise ([`conv`]), and a
//!    [`workspace::Workspace`] scratch arena so steady-state training
//!    steps perform no heap allocation.
//!
//!    Products and layer passes run whole on the thread that calls them;
//!    the process's compute width ([`par`]: the calling thread and parked
//!    helpers) goes to independent models — a cohort's clients, an
//!    ensemble's teachers — so every width returns the same bits.
//!
//!    Dispatch ([`simd`]) picks the widest tier the host supports at the
//!    first GEMM call and can be capped with `KEMF_SIMD=avx2|scalar`:
//!
//!    * f32: AVX-512F 8×32 tile → AVX2+FMA 6×16 tile → portable scalar
//!      8×8 tile; a convolution's direct route on AVX-512F, the lowered
//!      route elsewhere — every tier the same bits.
//!    * int8: AVX-512 VNNI `vpdpbusd` kernel → portable scalar loop, both
//!      over the same k-quad interleaved panel and bit-identical (exact
//!      i32 accumulation).
//! 3. **Small, explicit API** — tensors are plain `Vec<f32>` + shape; there
//!    is no autograd graph here. Backpropagation lives in `kemf-nn` as
//!    explicit `backward` methods, which keeps the numeric core simple and
//!    auditable.
//!
//! ## Quick example
//!
//! ```
//! use kemf_tensor::gemm::{gemm_ops, RowMajor, Store};
//! use kemf_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let mut c = Tensor::zeros(&[2, 2]);
//! let (ra, rb) = (RowMajor { data: a.data(), ld: 2 }, RowMajor { data: b.data(), ld: 2 });
//! gemm_ops(2, 2, 2, &ra, &rb, &mut Store { c: c.data_mut(), ldc: 2 });
//! assert_eq!(c.data(), a.data());
//! ```

pub mod conv;
pub mod flops;
pub mod gemm;
pub mod matmul;
pub mod ops;
pub mod par;
pub mod quant;
pub mod rng;
pub mod shape;
pub mod simd;
pub mod tensor;
pub mod workspace;

pub use shape::Shape;
pub use tensor::Tensor;

/// Absolute tolerance used throughout the test-suites of the workspace when
/// comparing floating point kernels against references.
pub const TEST_EPS: f32 = 1e-4;

/// Assert two f32 slices are element-wise close; used by tests across crates.
pub fn assert_close(a: &[f32], b: &[f32], tol: f32) {
    assert_eq!(a.len(), b.len(), "length mismatch: {} vs {}", a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert!(
            (x - y).abs() <= tol + tol * x.abs().max(y.abs()),
            "element {i} differs: {x} vs {y} (tol {tol})"
        );
    }
}
