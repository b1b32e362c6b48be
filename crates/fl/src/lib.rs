//! # kemf-fl
//!
//! The federated-learning engine of the FedKEMF stack plus the four
//! baselines the paper compares against:
//!
//! * [`engine`] — round loop, client sampling, the [`engine::FedAlgorithm`]
//!   trait every algorithm (including FedKEMF in `kemf-core`) plugs into,
//!   and the [`engine::Engine::run`]/[`engine::RunOptions`] entry point;
//! * [`state`] / [`checkpoint`] — the algorithm-state bundle and the
//!   crash-consistent run-checkpoint layer behind resumable runs;
//! * [`client_store`] — per-client state at population scale: memory
//!   slots for small worlds, atomic disk spill (O(cohort) resident) for
//!   million-client ones;
//! * [`cohort`] — the cohort driver: the one function that streams a
//!   sampled cohort through local training (`cohort_batch` chunking,
//!   the `LocalUpdate` span, the per-client fan-out) for all nine
//!   algorithms;
//! * [`context`] — immutable experiment state: Dirichlet-partitioned
//!   client shards and the test set;
//! * [`local`] — the shared local-SGD loop with gradient hooks (proximal
//!   terms, control variates);
//! * [`lifecycle`] — the fault-aware round execution model: per-client
//!   download → train → upload outcomes, fault injection, and quorum;
//! * [`scheduler`] — the discrete-event round scheduler every round runs
//!   through (FedBuff-style): simulated arrival times, a bounded fusion
//!   buffer — the whole cohort in synchronous mode — and
//!   staleness-weighted updates behind [`scheduler::AsyncConfig`];
//! * [`comm`] / [`metrics`] — communication accounting and the derived
//!   metrics of the paper's tables and figures;
//! * [`trace`] — structured round-lifecycle observability: phase-timed
//!   spans with step/batch/FLOP/byte counters behind an [`trace::EventSink`];
//! * [`transport`] — the real-socket federation path: framed localhost
//!   TCP traffic to a worker pool behind
//!   [`transport::SocketConfig`], with fault injection enacted
//!   on real frames and byte counters measured at the wire;
//! * [`fedavg`], [`fedprox`], [`fednova`], [`scaffold`] — the baselines;
//! * [`fedrolex`] — rolling-window sub-model training: a server model
//!   wider than any client, each client training an index-windowed
//!   slice sized to its budget ([`lifecycle::ModelView::Window`]).
//!
//! ```no_run
//! use kemf_fl::prelude::*;
//! use kemf_data::prelude::*;
//! use kemf_nn::prelude::*;
//!
//! let task = SynthTask::new(SynthConfig::mnist_like(0));
//! let train = task.generate(240, 0);
//! let test = task.generate(80, 1);
//! let ctx = FlContext::new(FlConfig { n_clients: 4, min_per_client: 10, ..Default::default() }, &train, test);
//! let mut algo = FedAvg::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0));
//! let report = Engine::run(&mut algo, &ctx, RunOptions::new()).unwrap();
//! println!("final accuracy {:.1}%", report.history.final_accuracy() * 100.0);
//! ```

pub mod checkpoint;
pub mod client_store;
pub mod cohort;
pub mod comm;
pub mod compress;
pub mod config;
pub mod context;
pub mod engine;
pub mod fedavg;
pub mod fednova;
pub mod fedprox;
pub mod fedrolex;
pub mod lifecycle;
pub mod local;
pub mod metrics;
pub mod network;
pub mod scaffold;
pub mod scheduler;
pub mod state;
pub mod trace;
pub mod transport;
pub mod weight_common;

pub mod prelude {
    //! Common imports for downstream crates.
    pub use crate::checkpoint::CheckpointPolicy;
    pub use crate::client_store::{ClientBlob, ClientStateStore, SpillConfig, StoreError};
    pub use crate::comm::{CostError, CostModel};
    pub use crate::compress::{dequantize, quantize, CompressError, QuantizedWeights};
    pub use crate::config::{ConfigError, FlConfig};
    pub use crate::context::FlContext;
    pub use crate::engine::{
        Engine, EngineError, FedAlgorithm, ResumeError, RoundOutcome, RunOptions, RunReport,
    };
    pub use crate::lifecycle::{
        ClientOutcome, ClientPlan, ClientRound, FaultConfig, ModelView, RoundComm, RoundPlan,
        WirePayload,
    };
    pub use crate::fedavg::FedAvg;
    pub use crate::fednova::FedNova;
    pub use crate::fedprox::FedProx;
    pub use crate::fedrolex::{FedRolex, FedRolexConfig};
    pub use crate::local::{local_train, LocalCfg};
    pub use crate::metrics::{fairness_summary, FairnessSummary, History, RoundRecord};
    pub use crate::network::NetworkModel;
    pub use crate::scaffold::Scaffold;
    pub use crate::scheduler::{AsyncConfig, PreparedUpdate, UpdatePayload};
    pub use crate::state::{AlgorithmState, RestoreError, TensorBlob};
    pub use crate::trace::{
        Counters, EventSink, NoopSink, Phase, PhaseSummary, RoundScope, RunTrace, Span, TraceSink,
    };
    pub use crate::transport::{
        worker_entry_if_requested, worker_main_from_env, SocketConfig, TransportError,
        TransportStats, WorkerMode,
    };
}
