//! # fedkemf — facade crate
//!
//! Re-exports the whole FedKEMF stack behind one dependency, so examples,
//! integration tests, and downstream users can write `use fedkemf::...`.
//!
//! * [`tensor`] — dense f32 kernels (matmul, direct and im2col conv, softmax).
//! * [`nn`] — layers with explicit backprop, losses, SGD, the model zoo.
//! * [`data`] — synthetic vision datasets + Dirichlet non-IID partitioner.
//! * [`fl`] — federated engine, communication accounting, baselines
//!   (FedAvg, FedProx, FedNova, SCAFFOLD).
//! * [`core`] — the paper's contribution: FedKEMF (deep mutual learning
//!   knowledge extraction, ensemble strategies, server distillation,
//!   multi-model resource-aware deployment).

pub use kemf_core as core;
pub use kemf_data as data;
pub use kemf_fl as fl;
pub use kemf_nn as nn;
pub use kemf_tensor as tensor;

pub mod prelude {
    //! Glob-importable prelude for examples and quick scripts.
    pub use kemf_core::prelude::*;
    pub use kemf_data::prelude::*;
    pub use kemf_fl::prelude::*;
    pub use kemf_nn::prelude::*;
    pub use kemf_tensor::Tensor;
}
