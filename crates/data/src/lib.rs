//! # kemf-data
//!
//! Datasets and federated partitioning for the FedKEMF stack:
//!
//! * [`synth`] — seeded synthetic vision tasks standing in for CIFAR-10
//!   and MNIST (offline substitution documented in DESIGN.md), with
//!   multi-mode class structure, translations, and tunable noise;
//! * [`dirichlet`] — the non-IID benchmark partitioner (per-class
//!   `Dir(α)` proportions, Li et al. 2021) with in-house Gamma sampling;
//! * [`dataset`] — in-memory datasets, shuffled mini-batching, subsets;
//! * [`stats`] — heterogeneity diagnostics for partitions.
//!
//! ```
//! use kemf_data::synth::{SynthConfig, SynthTask};
//! use kemf_data::dirichlet::dirichlet_partition;
//!
//! let task = SynthTask::new(SynthConfig::cifar_like(0));
//! let train = task.generate(200, 0);
//! let shards = dirichlet_partition(&train.labels, 10, 4, 0.1, 10, 0);
//! assert_eq!(shards.iter().map(Vec::len).sum::<usize>(), 200);
//! ```

pub mod dataset;
pub mod dirichlet;
pub mod partition;
pub mod stats;
pub mod synth;

pub mod prelude {
    //! Common imports for downstream crates.
    pub use crate::dataset::Dataset;
    pub use crate::dirichlet::dirichlet_partition;
    pub use crate::partition::{quantity_skew_partition, shard_partition};
    pub use crate::stats::heterogeneity;
    pub use crate::synth::{SynthConfig, SynthTask};
}
