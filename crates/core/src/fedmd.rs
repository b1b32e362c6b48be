//! FedMD (Li & Wang 2019) — *heterogeneous federated learning via model
//! distillation* — the classic logit-communication baseline from the
//! paper's related work. Clients never share weights at all; each round:
//!
//! 1. the server broadcasts **consensus logits** on a public dataset;
//! 2. every client *digests* the consensus (distills it into its own,
//!    arbitrary-architecture model), then *revisits* its private data
//!    (a few epochs of supervised training);
//! 3. clients upload their own logits on the public set;
//! 4. the server averages them into the next consensus.
//!
//! The per-round payload is `2 × |public set| × classes × 4` bytes per
//! client — independent of every model size, like FedKEMF's knowledge
//! network but with no transferable global *model*: the server owns only
//! logits, so `global_model()` is `None` and evaluation reports the mean
//! client-model accuracy.

use crate::fedkemf::{fresh_local_blob, model_from_blob};
use kemf_data::dataset::Dataset;
use kemf_fl::client_store::{ClientBlob, ClientStateStore, SpillConfig, StoreError};
use kemf_fl::config::ConfigError;
use kemf_fl::context::FlContext;
use kemf_fl::engine::{EngineError, FedAlgorithm, RoundOutcome};
use kemf_fl::lifecycle::{ClientPlan, ModelView, WirePayload};
use kemf_fl::local::{local_train, LocalCfg};
use kemf_fl::scheduler::{PreparedUpdate, UpdatePayload};
use kemf_fl::state::{
    check_model_layout, check_tensor_dims, AlgorithmState, RestoreError, TensorBlob,
};
use kemf_fl::trace::{Phase, RoundScope};
use kemf_nn::loss::kl_to_target;
use kemf_nn::model::Model;
use kemf_nn::models::ModelSpec;
use kemf_nn::optim::{clip_grad_norm, Sgd};
use kemf_nn::loss::soften;
use kemf_tensor::rng::{child_seed, seeded_rng};
use kemf_tensor::Tensor;
use rand::seq::SliceRandom;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// FedMD hyper-parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct FedMdConfig {
    /// Epochs of consensus digestion per round.
    pub digest_epochs: usize,
    /// Digestion temperature.
    pub temperature: f32,
    /// Digestion learning rate.
    pub digest_lr: f32,
}

impl Default for FedMdConfig {
    fn default() -> Self {
        FedMdConfig { digest_epochs: 1, temperature: 2.0, digest_lr: 0.02 }
    }
}

/// The FedMD baseline (heterogeneous-capable).
pub struct FedMd {
    /// Per-client model specs (may differ per client).
    client_specs: Vec<ModelSpec>,
    cfg: FedMdConfig,
    /// Public reference set whose logits are communicated.
    public: Tensor,
    /// Current consensus logits `[pool, classes]` (None before round 0).
    consensus: Option<Tensor>,
    /// Per-client local models, held in the client-state store (resident
    /// for memory mode, spilled to disk for population-scale cohorts).
    store: ClientStateStore,
    spill: Option<SpillConfig>,
    classes: usize,
}

impl FedMd {
    /// New FedMD population over a public reference set.
    pub fn new(client_specs: Vec<ModelSpec>, public: Tensor, classes: usize, cfg: FedMdConfig) -> Self {
        assert!(!client_specs.is_empty(), "need at least one client spec");
        FedMd {
            client_specs,
            cfg,
            public,
            consensus: None,
            store: ClientStateStore::in_memory(0),
            spill: None,
            classes,
        }
    }

    /// Spill per-client local models to `spill.dir` instead of holding
    /// `n_clients` of them resident.
    pub fn with_spill(mut self, spill: SpillConfig) -> Self {
        self.spill = Some(spill);
        self
    }

    /// Per-direction payload: the logit matrix on the public set.
    pub fn payload_bytes(&self) -> u64 {
        (self.public.dims()[0] * self.classes * 4) as u64
    }

    /// Mean per-client accuracy of the local models on `tests`. A count
    /// mismatch or unreadable stored model is a typed error, not a panic.
    pub fn evaluate_local_models(
        &self,
        tests: &[Dataset],
        eval_batch: usize,
    ) -> Result<f32, EngineError> {
        if tests.len() != self.store.n_clients() {
            return Err(EngineError::Config(ConfigError::AlgorithmSetup {
                algorithm: self.name(),
                reason: format!(
                    "need one test set per client: {} sets for {} clients",
                    tests.len(),
                    self.store.n_clients()
                ),
            }));
        }
        let mut total = 0.0;
        for (k, t) in tests.iter().enumerate() {
            let spec = self.client_specs[k];
            let blob = self.store.read(k, |_| fresh_local_blob(spec))?;
            let mut model = model_from_blob(&blob, k, spec)?;
            total += model.evaluate(&t.images, &t.labels, eval_batch);
        }
        Ok(total / tests.len() as f32)
    }
}

/// Distill `targets` (softened consensus probabilities) into `model` on
/// the public images. Returns the number of digestion steps taken.
fn digest(
    model: &mut Model,
    public: &Tensor,
    targets: &Tensor,
    cfg: &FedMdConfig,
    sgd: kemf_nn::optim::SgdConfig,
    seed: u64,
) -> usize {
    let n = public.dims()[0];
    let mut opt = Sgd::new(kemf_nn::optim::SgdConfig { lr: cfg.digest_lr, ..sgd });
    let mut rng = seeded_rng(seed);
    let mut steps = 0;
    for _ in 0..cfg.digest_epochs {
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        for chunk in order.chunks(32) {
            let images = public.gather_rows(chunk);
            let target = targets.gather_rows(chunk);
            model.zero_grad();
            let logits = model.forward(&images, true);
            let (_, grad) = kl_to_target(&logits, &target, cfg.temperature);
            let _ = model.backward(&grad);
            let _ = clip_grad_norm(model.net_mut(), 5.0);
            opt.step(model.net_mut());
            steps += 1;
        }
    }
    steps
}

impl FedAlgorithm for FedMd {
    fn name(&self) -> String {
        "FedMD".into()
    }

    fn init(&mut self, ctx: &FlContext) -> Result<(), ConfigError> {
        if self.client_specs.len() != ctx.cfg.n_clients {
            return Err(ConfigError::AlgorithmSetup {
                algorithm: self.name(),
                reason: format!(
                    "need one client spec per client: {} specs for {} clients",
                    self.client_specs.len(),
                    ctx.cfg.n_clients
                ),
            });
        }
        self.store = match &self.spill {
            Some(spill) => ClientStateStore::sharded(ctx.cfg.n_clients, spill.clone())
                .map_err(|e| ConfigError::AlgorithmSetup {
                    algorithm: self.name(),
                    reason: format!("opening spill store: {e}"),
                })?,
            None => {
                let mut store = ClientStateStore::in_memory(ctx.cfg.n_clients);
                let specs = &self.client_specs;
                store.seed_all(|k| fresh_local_blob(specs[k]));
                store
            }
        };
        Ok(())
    }

    fn client_plans(&self, _round: usize, sampled: &[usize]) -> Vec<ClientPlan> {
        // The logit matrix on the public set, each way.
        ClientPlan::uniform(sampled, ModelView::Logits, WirePayload::symmetric(self.payload_bytes()))
    }

    fn train_cohort(
        &mut self,
        wave: usize,
        sampled: &[usize],
        ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<Vec<PreparedUpdate>, EngineError> {
        self.store.begin_round(wave);
        if sampled.is_empty() {
            return Ok(Vec::new());
        }
        let local = LocalCfg {
            epochs: ctx.cfg.local_epochs,
            batch: ctx.cfg.batch_size,
            sgd: ctx.cfg.sgd_at(wave),
        };
        // Clients digest the consensus that was current when they were
        // dispatched — a stale worker keeps learning from the snapshot it
        // downloaded, exactly as a real device would.
        let consensus_targets = self
            .consensus
            .as_ref()
            .map(|c| soften(c, self.cfg.temperature));
        let chunk = ctx.cfg.cohort_chunk(sampled.len());
        let mut out = Vec::with_capacity(sampled.len());
        scope.phase(Phase::LocalUpdate, |c| -> Result<(), EngineError> {
            for batch in sampled.chunks(chunk) {
                let mut locals: Vec<(usize, Model)> = Vec::with_capacity(batch.len());
                for &k in batch {
                    let spec = self.client_specs[k];
                    let blob = self.store.fetch(k, |_| fresh_local_blob(spec))?;
                    locals.push((k, model_from_blob(&blob, k, spec)?));
                }
                let cfg = self.cfg;
                let public = &self.public;
                let results: Vec<(usize, Model, Tensor, f32, usize)> = locals
                    .into_par_iter()
                    .map(|(k, mut model)| {
                        let seed =
                            child_seed(ctx.cfg.seed, 0x3D ^ ((wave as u64) << 16 | k as u64));
                        let digest_steps = if let Some(targets) = &consensus_targets {
                            digest(&mut model, public, targets, &cfg, local.sgd, seed)
                        } else {
                            0
                        };
                        // Revisit private data, then publish logits on the
                        // public set (batch statistics: local models take few
                        // steps per round, same rationale as FedKEMF's
                        // distillation targets).
                        let shard = ctx.client_shard(k);
                        let out = local_train(&mut model, &shard, &local, seed ^ 7, None);
                        let logits = model.predict_batch_stats(public);
                        (k, model, logits, out.mean_loss, digest_steps + out.steps)
                    })
                    .collect();
                c.clients += results.len();
                c.steps += results.iter().map(|r| r.4 as u64).sum::<u64>();
                c.batches = c.steps;
                for (k, model, logits, loss, steps) in results {
                    out.push(PreparedUpdate {
                        client: k,
                        n_samples: ctx.client_shard_len(k),
                        steps,
                        loss,
                        payload: UpdatePayload::Logits(TensorBlob {
                            dims: logits.dims().to_vec(),
                            values: logits.data().to_vec(),
                        }),
                        commit: Some(
                            ClientBlob::new().with_model("model", model.state()),
                        ),
                    });
                }
            }
            Ok(())
        })?;
        Ok(out)
    }

    fn fuse(
        &mut self,
        round: usize,
        updates: Vec<(PreparedUpdate, f32)>,
        _ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<RoundOutcome, EngineError> {
        self.store.begin_round(round);
        if updates.is_empty() {
            return Ok(RoundOutcome { train_loss: f32::NAN });
        }
        let dims = [self.public.dims()[0], self.classes];
        let mut logits: Vec<Tensor> = Vec::with_capacity(updates.len());
        let mut weights: Vec<f32> = Vec::with_capacity(updates.len());
        let mut loss_sum = 0.0f32;
        for (u, w) in updates {
            let UpdatePayload::Logits(blob) = u.payload else {
                return Err(EngineError::Config(ConfigError::AlgorithmSetup {
                    algorithm: self.name(),
                    reason: format!("client {}: expected a logit payload", u.client),
                }));
            };
            if blob.dims != dims {
                return Err(EngineError::Config(ConfigError::AlgorithmSetup {
                    algorithm: self.name(),
                    reason: format!(
                        "client {}: logit payload is {:?}, public set needs {dims:?}",
                        u.client, blob.dims
                    ),
                }));
            }
            if let Some(commit) = u.commit {
                self.store.commit(u.client, commit)?;
            }
            logits.push(Tensor::from_vec(blob.values, &dims));
            weights.push(w);
            loss_sum += u.loss;
        }
        let reported = logits.len();
        scope.phase(Phase::Fusion, |c| {
            c.clients = reported;
            // Weighted elementwise mean with the same clone/axpy/scale
            // structure as `elementwise_mean`: with every weight at 1.0
            // the first scale is ×1.0 (a bitwise no-op), each axpy adds
            // 1.0·t, and Σw is the exact count — bit-identical.
            let mut acc = logits[0].clone();
            acc.scale_inplace(weights[0]);
            for (t, &w) in logits[1..].iter().zip(weights[1..].iter()) {
                acc.axpy(w, t);
            }
            let total: f32 = weights.iter().sum();
            acc.scale_inplace(1.0 / total);
            self.consensus = Some(acc);
        });
        Ok(RoundOutcome { train_loss: loss_sum / reported as f32 })
    }

    /// FedMD has no global model; report the mean client accuracy on the
    /// shared test set (the metric its paper uses).
    fn evaluate(&mut self, ctx: &FlContext) -> f32 {
        let n = self.store.n_clients();
        if n == 0 {
            return 0.0;
        }
        let mut total = 0.0;
        for k in 0..n {
            let spec = self.client_specs[k];
            let blob = match self.store.read(k, |_| fresh_local_blob(spec)) {
                Ok(b) => b,
                Err(_) => continue,
            };
            let Ok(mut model) = model_from_blob(&blob, k, spec) else { continue };
            total += model.evaluate(&ctx.test.images, &ctx.test.labels, ctx.cfg.eval_batch);
        }
        total / n as f32
    }

    fn state(&self) -> Result<AlgorithmState, EngineError> {
        // In sharded mode the local models already live in the spill
        // directory (write-through commits), so the checkpoint carries only
        // the population size for validation; memory mode embeds them all,
        // keeping the v1 checkpoint format unchanged.
        let mut s = AlgorithmState::new(self.name(), 1);
        if self.store.is_sharded() {
            s = s.with_scalar("sharded_clients", self.store.n_clients() as f64);
        } else {
            for k in 0..self.store.n_clients() {
                let blob = self.store.read(k, |_| ClientBlob::new())?;
                let m = blob.model("model").ok_or(StoreError::Corrupt {
                    client: k,
                    detail: "missing local-model entry `model`".into(),
                })?;
                s.push_model(format!("local.{k}"), m.clone());
            }
        }
        // Presence of the entry encodes the Option: no consensus exists
        // before the first completed round.
        if let Some(c) = &self.consensus {
            s.push_tensor("consensus", c.dims().to_vec(), c.data().to_vec());
        }
        Ok(s)
    }

    fn restore(&mut self, state: &AlgorithmState) -> Result<(), RestoreError> {
        state.expect_header(&self.name(), 1)?;
        let consensus = match state.opt_tensor("consensus") {
            Some(blob) => {
                let dims = [self.public.dims()[0], self.classes];
                check_tensor_dims("consensus", blob, &dims)?;
                Some(Tensor::from_vec(blob.values.clone(), &dims))
            }
            None => None,
        };
        if self.store.is_sharded() {
            let n = self.store.n_clients();
            let recorded = state.scalar("sharded_clients")?;
            if recorded != n as f64 {
                return Err(RestoreError::ShapeMismatch {
                    name: "sharded_clients".into(),
                    detail: format!("checkpoint covers {recorded} clients, store has {n}"),
                });
            }
        } else {
            // Pre-check every local model before mutating anything, so a
            // failed restore leaves the instance untouched.
            let n = self.store.n_clients();
            for k in 0..n {
                let name = format!("local.{k}");
                let layout = Model::new(self.client_specs[k]).state();
                check_model_layout(&name, state.model(&name)?, &layout)?;
            }
            for k in 0..n {
                let name = format!("local.{k}");
                let incoming = state.model(&name)?.clone();
                self.store
                    .commit(k, ClientBlob::new().with_model("model", incoming))
                    .map_err(|e| RestoreError::Store { detail: e.to_string() })?;
            }
        }
        self.consensus = consensus;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::{assign_tiers, heterogeneous_specs, uniform_specs};
    use kemf_data::synth::{SynthConfig, SynthTask};
    use kemf_fl::config::FlConfig;
    use kemf_fl::engine::{Engine, RunOptions};
    use kemf_fl::metrics::History;
    use kemf_nn::models::Arch;

    fn run(algo: &mut dyn FedAlgorithm, ctx: &FlContext) -> History {
        Engine::run(algo, ctx, RunOptions::new()).unwrap().history
    }

    fn world(seed: u64, n: usize) -> (FlContext, SynthTask) {
        let task = SynthTask::new(SynthConfig::mnist_like(seed));
        let train = task.generate(60 * n, 0);
        let test = task.generate(80, 1);
        let cfg = FlConfig {
            n_clients: n,
            sample_ratio: 1.0,
            rounds: 6,
            local_epochs: 2,
            batch_size: 16,
            alpha: 0.5,
            min_per_client: 10,
            seed,
            ..Default::default()
        };
        (FlContext::new(cfg, &train, test), task)
    }

    #[test]
    fn fedmd_learns_above_chance() {
        let (ctx, task) = world(81, 4);
        let specs = uniform_specs(Arch::Cnn2, 4, 1, 12, 10, 2);
        let public = task.generate_unlabeled(100, 3);
        let mut algo = FedMd::new(specs, public, 10, FedMdConfig::default());
        let h = run(&mut algo, &ctx);
        assert!(h.best_accuracy() > 0.3, "got {}", h.best_accuracy());
    }

    #[test]
    fn fedmd_supports_heterogeneous_models() {
        let (ctx, task) = world(82, 6);
        let tiers = assign_tiers(6, 1);
        let specs = heterogeneous_specs(&tiers, 1, 12, 10, 2);
        let public = task.generate_unlabeled(80, 3);
        let mut algo = FedMd::new(specs, public, 10, FedMdConfig::default());
        let h = run(&mut algo, &ctx);
        assert!(h.accuracies().iter().all(|a| a.is_finite()));
        assert!(h.best_accuracy() > 0.15);
    }

    #[test]
    fn payload_is_logits_only() {
        let (ctx, task) = world(83, 3);
        let specs = uniform_specs(Arch::ResNet32, 3, 1, 12, 10, 2);
        let public = task.generate_unlabeled(50, 3);
        let mut algo = FedMd::new(specs, public, 10, FedMdConfig::default());
        assert_eq!(algo.payload_bytes(), 50 * 10 * 4);
        let model_bytes = Model::new(ModelSpec::scaled(Arch::ResNet32, 1, 12, 10, 0)).state_bytes() as u64;
        assert!(algo.payload_bytes() < model_bytes / 4, "logits ≪ model weights");
        let h = run(&mut algo, &ctx);
        assert_eq!(h.total_bytes(), 6 * 3 * 2 * algo.payload_bytes());
    }

    #[test]
    fn consensus_builds_after_first_round() {
        let (ctx, task) = world(84, 3);
        let specs = uniform_specs(Arch::Cnn2, 3, 1, 12, 10, 2);
        let public = task.generate_unlabeled(40, 3);
        let mut algo = FedMd::new(specs, public, 10, FedMdConfig::default());
        algo.init(&ctx).unwrap();
        assert!(algo.consensus.is_none());
        let mut sink = kemf_fl::trace::NoopSink;
        let mut scope = RoundScope::new(&mut sink, 0);
        algo.round(0, &[0, 1, 2], &ctx, &mut scope).unwrap();
        let c = algo.consensus.as_ref().expect("consensus after round 0");
        assert_eq!(c.dims(), &[40, 10]);
    }
}
