//! The integration suites' shared fixture: one small world, the nine
//! algorithms of the comparison, the fault taxonomy, scratch directories,
//! a training-free probe and a delegating wrapper that notes cohorts.
//! `golden_histories.rs` keeps its own world, because its pinned hashes
//! depend on every number in it.
#![allow(dead_code)] // each suite links the whole module and uses a part

pub mod equivalence;

use fedkemf::core::fedkemf::{FedKemf, FedKemfConfig};
use fedkemf::fl::engine::FedAlgorithm;
use fedkemf::nn::codec::Writer;
use fedkemf::prelude::*;
use std::path::{Path, PathBuf};

/// Four clients over 240 labelled images (Dirichlet α = 0.5), three of
/// them sampled a round.
pub fn world(seed: u64, rounds: usize) -> (FlContext, SynthTask) {
    let task = SynthTask::new(SynthConfig::mnist_like(seed));
    let train = task.generate(240, 0);
    let test = task.generate(80, 1);
    let cfg = FlConfig {
        n_clients: 4,
        sample_ratio: 0.75,
        rounds,
        local_epochs: 1,
        batch_size: 16,
        alpha: 0.5,
        min_per_client: 10,
        seed,
        ..Default::default()
    };
    (FlContext::new(cfg, &train, test), task)
}

/// Every algorithm in the comparison, built fresh on `ctx`; with `spill`,
/// the four that keep per-client state spill it under there.
pub fn all_algorithms(
    ctx: &FlContext,
    task: &SynthTask,
    spill: Option<&Path>,
) -> Vec<Box<dyn FedAlgorithm>> {
    let spec = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 3);
    let knowledge = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 99);
    let clients = uniform_specs(Arch::Cnn2, ctx.cfg.n_clients, 1, 12, 10, 5);
    let pool = task.generate_unlabeled(40, 2);
    let wide_mlp = ModelSpec { width: 32, ..ModelSpec::scaled(Arch::Mlp1, 1, 12, 10, 7) };
    let big_server = ModelSpec { width: 8, ..ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 900) };
    let mut scaffold = Scaffold::new(spec);
    let mut md = FedMd::new(clients.clone(), pool.clone());
    let mut kemf = FedKemfConfig::uniform(knowledge, clients.clone(), pool.clone());
    let mut gems = FedGems::new(clients, big_server, pool.clone());
    if let Some(dir) = spill {
        scaffold = scaffold.with_spill(SpillConfig::new(dir.join("scaffold")));
        md = md.with_spill(SpillConfig::new(dir.join("md")));
        kemf = kemf.with_spill(SpillConfig::new(dir.join("kemf")));
        gems = gems.with_spill(SpillConfig::new(dir.join("gems")));
    }
    vec![
        Box::new(FedAvg::new(spec)),
        Box::new(FedProx::new(spec, 0.01)),
        Box::new(FedNova::new(spec)),
        Box::new(scaffold),
        Box::new(FedDf::new(spec, pool)),
        Box::new(md),
        Box::new(FedKemf::new(kemf)),
        Box::new(FedRolex::new(FedRolexConfig { server_spec: wide_mlp, client_width: 8 })),
        Box::new(gems),
    ]
}

/// Indices into [`all_algorithms`] of the four that keep per-client state
/// in a client store, and so can spill it.
pub const STORE_BACKED: [usize; 4] = [3, 5, 6, 8];

/// A fresh, empty scratch directory under the system temp dir, unique to
/// this process and `tag`.
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kemf_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The fault modes of the taxonomy, each isolated, plus the combined
/// storm.
pub fn fault_modes() -> Vec<(&'static str, FaultConfig)> {
    vec![
        ("reliable", FaultConfig::reliable()),
        ("drop_before_download", FaultConfig { drop_before_download: 0.4, ..Default::default() }),
        ("drop_after_download", FaultConfig { drop_after_download: 0.4, ..Default::default() }),
        (
            "straggler_deadline",
            FaultConfig {
                straggler_prob: 0.6,
                straggler_delay_s: 60.0,
                round_deadline_s: Some(15.0),
                ..Default::default()
            },
        ),
        (
            "upload_retry",
            FaultConfig { upload_failure_prob: 0.5, upload_retries: 2, ..Default::default() },
        ),
        (
            "combined",
            FaultConfig {
                drop_before_download: 0.1,
                drop_after_download: 0.1,
                straggler_prob: 0.3,
                straggler_delay_s: 40.0,
                round_deadline_s: Some(10.0),
                upload_failure_prob: 0.3,
                upload_retries: 1,
                min_quorum: 2,
            },
        ),
    ]
}

/// The probe's fixed asymmetric per-client payload.
pub const PROBE_PAYLOAD: WirePayload = WirePayload { down_bytes: 1000, up_bytes: 100 };

/// A training-free algorithm, so fault and transport sweeps cost rounds,
/// not gradient descent: a fixed asymmetric payload, one free update per
/// reporter, loss 1.0 (NaN for an empty fold), and a `LocalUpdate` and a
/// `Fusion` span carrying the reporter count.
pub struct Probe;

impl FedAlgorithm for Probe {
    fn name(&self) -> String {
        "probe".into()
    }
    fn client_plans(&self, _round: usize, sampled: &[usize]) -> Vec<ClientPlan> {
        ClientPlan::uniform(sampled, ModelView::Full, PROBE_PAYLOAD)
    }
    fn train_cohort(
        &mut self,
        _wave: usize,
        sampled: &[usize],
        _ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<Vec<PreparedUpdate>, EngineError> {
        scope.phase(Phase::LocalUpdate, |c| c.clients = sampled.len());
        Ok(sampled
            .iter()
            .map(|&client| PreparedUpdate {
                client,
                n_samples: 1,
                steps: 0,
                loss: 1.0,
                payload: UpdatePayload::Empty,
                commit: None,
            })
            .collect())
    }
    fn fuse(
        &mut self,
        _round: usize,
        updates: Vec<(PreparedUpdate, f32)>,
        _ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<RoundOutcome, EngineError> {
        scope.phase(Phase::Fusion, |c| c.clients = updates.len());
        let train_loss = if updates.is_empty() { f32::NAN } else { 1.0 };
        Ok(RoundOutcome { train_loss })
    }
    fn evaluate(&mut self, _ctx: &FlContext) -> f32 {
        0.5
    }
}

/// Delegates every method to `inner` and notes each cohort it trained:
/// the wave, the clients it was handed, and the local steps their updates
/// carry. The engine trains every round, sync or async, through
/// `train_cohort`, so every cohort is noted; `global_model` is forwarded,
/// so a socket broadcast embeds the quantized model.
pub struct Tap {
    pub inner: Box<dyn FedAlgorithm>,
    pub waves: Vec<(usize, Vec<usize>, u64)>,
}

impl Tap {
    pub fn new(inner: Box<dyn FedAlgorithm>) -> Self {
        Tap { inner, waves: Vec::new() }
    }
}

impl FedAlgorithm for Tap {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn identity(&self, w: &mut Writer) {
        self.inner.identity(w)
    }
    fn init(&mut self, ctx: &FlContext) -> Result<(), ConfigError> {
        self.inner.init(ctx)
    }
    fn client_plans(&self, round: usize, sampled: &[usize]) -> Vec<ClientPlan> {
        self.inner.client_plans(round, sampled)
    }
    fn train_cohort(
        &mut self,
        wave: usize,
        sampled: &[usize],
        ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<Vec<PreparedUpdate>, EngineError> {
        let updates = self.inner.train_cohort(wave, sampled, ctx, scope)?;
        let steps = updates.iter().map(|u| u.steps as u64).sum();
        self.waves.push((wave, sampled.to_vec(), steps));
        Ok(updates)
    }
    fn fuse(
        &mut self,
        round: usize,
        updates: Vec<(PreparedUpdate, f32)>,
        ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<RoundOutcome, EngineError> {
        self.inner.fuse(round, updates, ctx, scope)
    }
    fn evaluate(&mut self, ctx: &FlContext) -> f32 {
        self.inner.evaluate(ctx)
    }
    fn state(&self) -> Result<AlgorithmState, EngineError> {
        self.inner.state()
    }
    fn restore(&mut self, state: &AlgorithmState) -> Result<(), RestoreError> {
        self.inner.restore(state)
    }
    fn global_model(&self) -> Option<(ModelSpec, ModelState)> {
        self.inner.global_model()
    }
}
