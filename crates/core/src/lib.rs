//! # kemf-core — FedKEMF
//!
//! The paper's contribution: **resource-aware federated learning with
//! knowledge extraction and multi-model fusion** (Yu, Qian, Jannesari,
//! SC 2023).
//!
//! * [`dml`] — deep-mutual-learning knowledge extraction (Algorithm 1):
//!   the client's local model and the tiny knowledge network teach each
//!   other; only the knowledge network is uploaded.
//! * [`ensemble`] — max-logits / avg-logits / majority-vote combination
//!   of the collected knowledge networks (Eq. 5 + ablation).
//! * [`distill`] — server-side ensemble distillation into the global
//!   knowledge network on unlabeled data (Algorithm 2, Eq. 4).
//! * [`fusion`] — the alternative weight-average fusion mode.
//! * [`resource`] — device tiers and heterogeneous model assignment
//!   (ResNet-20/32/44 side by side, Table 3).
//! * [`fedkemf`] — the full algorithm, pluggable into `kemf-fl::engine`.
//! * [`client_models`] — the persistent per-client local-model
//!   population (store, checkpoint sections, evaluation) that FedKEMF,
//!   FedMD and FedGEMS share.
//! * [`fedgems`] — the server-larger-than-client baseline: a big server
//!   model fed by selective per-sample fusion of client logits
//!   (communication stays logit-sized either way).
//!
//! ```no_run
//! use kemf_core::prelude::*;
//! use kemf_data::prelude::*;
//! use kemf_fl::prelude::*;
//! use kemf_nn::prelude::*;
//!
//! let task = SynthTask::new(SynthConfig::cifar_like(0));
//! let train = task.generate(400, 0);
//! let test = task.generate(100, 1);
//! let cfg = FlConfig { n_clients: 8, ..Default::default() };
//! let ctx = FlContext::new(cfg, &train, test);
//! let knowledge = ModelSpec::scaled(Arch::ResNet20, 3, 16, 10, 999);
//! let clients = uniform_specs(Arch::Vgg11, 8, 3, 16, 10, 1);
//! let pool = task.generate_unlabeled(200, 7);
//! let mut algo = FedKemf::new(FedKemfConfig::uniform(knowledge, clients, pool));
//! let report = Engine::run(&mut algo, &ctx, RunOptions::new()).unwrap();
//! println!("{}", report.history.to_csv());
//! ```

pub mod client_models;
pub mod distill;
pub mod dml;
pub mod ensemble;
pub mod feddf;
pub mod fedgems;
pub mod fedkemf;
pub mod fedmd;
pub mod fusion;
pub mod resource;

pub mod prelude {
    //! Common imports for downstream crates.
    pub use crate::distill::{distill_ensemble, DistillConfig, DistillOutcome};
    pub use crate::dml::{dml_local_update, DmlConfig, DmlOutcome};
    pub use crate::ensemble::{
        ensemble_forward, ensemble_forward_with_precision, ensemble_logits, EnsembleStrategy,
    };
    pub use crate::feddf::FedDf;
    pub use crate::fedgems::FedGems;
    pub use crate::fedkemf::{FedKemf, FedKemfConfig};
    pub use crate::fedmd::FedMd;
    pub use crate::fusion::{weight_average_fusion_weighted, FusionMode};
    pub use crate::resource::{assign_tiers, heterogeneous_specs, uniform_specs, ResourceTier};
}
