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

use crate::client_models::{mean_accuracy, ClientModels};
use kemf_data::dataset::Dataset;
use kemf_fl::client_store::SpillConfig;
use kemf_fl::cohort;
use kemf_fl::config::ConfigError;
use kemf_fl::context::FlContext;
use kemf_fl::engine::{EngineError, FedAlgorithm, RoundOutcome};
use kemf_fl::lifecycle::{ClientPlan, ModelView, WirePayload};
use kemf_fl::local::local_train;
use kemf_fl::scheduler::{PreparedUpdate, UpdatePayload};
use kemf_fl::state::{check_tensor_dims, AlgorithmState, RestoreError, TensorBlob};
use kemf_fl::trace::{Phase, RoundScope};
use kemf_nn::loss::{kl_to_target_ws, soften};
use kemf_nn::model::Model;
use kemf_nn::models::ModelSpec;
use kemf_nn::optim::{clip_grad_norm, Sgd, SgdConfig};
use kemf_tensor::rng::{child_seed, seeded_rng};
use kemf_tensor::Tensor;
use rand::seq::SliceRandom;
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
    cfg: FedMdConfig,
    /// Public reference set whose logits are communicated.
    public: Tensor,
    /// Current consensus logits `[pool, classes]` (None before round 0).
    consensus: Option<Tensor>,
    /// Per-client local models (architectures may differ per client).
    clients: ClientModels,
    classes: usize,
}

impl FedMd {
    /// New FedMD population over a public reference set.
    pub fn new(client_specs: Vec<ModelSpec>, public: Tensor, classes: usize, cfg: FedMdConfig) -> Self {
        assert!(!client_specs.is_empty(), "need at least one client spec");
        FedMd {
            cfg,
            public,
            consensus: None,
            clients: ClientModels::new(client_specs, None),
            classes,
        }
    }

    /// Spill per-client local models to `spill.dir` instead of holding
    /// `n_clients` of them resident.
    pub fn with_spill(mut self, spill: SpillConfig) -> Self {
        self.clients.set_spill(spill);
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
        Ok(mean_accuracy(&self.clients.evaluate_per_client(
            &self.name(),
            tests.iter(),
            eval_batch,
        )?))
    }
}

/// Distill `model` toward softened `targets` on `images` for `epochs`
/// (seeded shuffle, 32-sample chunks, gradient clipping at 5.0) — the
/// digestion loop of FedMD, which FedGEMS runs in both directions.
/// `sgd.lr` is the distillation rate, not the supervised one. Returns
/// the number of steps taken.
pub(crate) fn digest(
    model: &mut Model,
    images: &Tensor,
    targets: &Tensor,
    epochs: usize,
    temperature: f32,
    sgd: SgdConfig,
    seed: u64,
) -> usize {
    let n = images.dims()[0];
    let mut opt = Sgd::new(sgd);
    let mut rng = seeded_rng(seed);
    let mut steps = 0;
    for _ in 0..epochs {
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        for chunk in order.chunks(32) {
            let x = images.gather_rows(chunk);
            let t = targets.gather_rows(chunk);
            model.train_step(
                &x,
                &mut opt,
                |logits, ws| kl_to_target_ws(logits, &t, temperature, ws),
                |net| {
                    clip_grad_norm(net, 5.0);
                },
            );
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
        self.clients.init(&self.name(), ctx)
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
        self.clients.begin_round(wave);
        let local = ctx.cfg.local_cfg(wave);
        // Clients digest the consensus that was current when they were
        // dispatched — a stale worker keeps learning from the snapshot it
        // downloaded, exactly as a real device would.
        let consensus_targets = self.consensus.as_ref().map(|c| soften(c, self.cfg.temperature));
        let (cfg, public) = (self.cfg, &self.public);
        let clients = &mut self.clients;
        cohort::train_cohort(
            sampled,
            ctx,
            scope,
            |k| clients.fetch(k),
            |k, mut model: Model| {
                let seed = child_seed(ctx.cfg.seed, 0x3D ^ ((wave as u64) << 16 | k as u64));
                let digest_steps = consensus_targets.as_ref().map_or(0, |targets| {
                    let sgd = SgdConfig { lr: cfg.digest_lr, ..local.sgd };
                    digest(&mut model, public, targets, cfg.digest_epochs, cfg.temperature, sgd, seed)
                });
                // Revisit private data, then publish logits on the public
                // set (batch statistics: local models take few steps per
                // round, same rationale as FedKEMF's distillation targets).
                let out = local_train(&mut model, &ctx.client_shard(k), &local, seed ^ 7, None);
                let logits = model.predict_batch_stats(public);
                let payload = UpdatePayload::Logits(TensorBlob {
                    dims: logits.dims().to_vec(),
                    values: logits.data().to_vec(),
                });
                PreparedUpdate::new(k, ctx, digest_steps + out.steps, out.mean_loss, payload)
                    .with_commit(ClientModels::blob(&model))
            },
        )
    }

    fn fuse(
        &mut self,
        round: usize,
        updates: Vec<(PreparedUpdate, f32)>,
        _ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<RoundOutcome, EngineError> {
        self.clients.begin_round(round);
        if updates.is_empty() {
            return Ok(RoundOutcome { train_loss: f32::NAN });
        }
        let dims = [self.public.dims()[0], self.classes];
        let (members, train_loss) =
            self.clients.unpack_logits(&self.name(), dims, updates, |w, _| w)?;
        scope.phase(Phase::Fusion, |c| {
            c.clients = members.len();
            // Weighted elementwise mean with the same clone/axpy/scale
            // structure as `elementwise_mean`: with every weight at 1.0
            // the first scale is ×1.0 (a bitwise no-op), each axpy adds
            // 1.0·t, and Σw is the exact count — bit-identical.
            let mut acc = members[0].0.clone();
            acc.scale_inplace(members[0].1);
            for (t, w) in &members[1..] {
                acc.axpy(*w, t);
            }
            let total: f32 = members.iter().map(|(_, w)| w).sum();
            acc.scale_inplace(1.0 / total);
            self.consensus = Some(acc);
        });
        Ok(RoundOutcome { train_loss })
    }

    /// FedMD has no global model; report the mean client accuracy on the
    /// shared test set (the metric its paper uses). A stored model that
    /// cannot be read makes the metric undefined: NaN, like the loss of
    /// a quorum-aborted round — never a plausible lower number.
    fn evaluate(&mut self, ctx: &FlContext) -> f32 {
        let shared = (0..self.clients.n_clients()).map(|_| &ctx.test);
        self.clients
            .evaluate_per_client(&self.name(), shared, ctx.cfg.eval_batch)
            .map_or(f32::NAN, |per_client| mean_accuracy(&per_client))
    }

    fn state(&self) -> Result<AlgorithmState, EngineError> {
        let mut s = AlgorithmState::new(self.name(), 1);
        self.clients.push_state(&mut s)?;
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
        self.clients.restore_state(state)?;
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
    fn digest_stops_missing_the_pool_after_the_first_step() {
        // 32 public samples are one chunk, so every step sees the same
        // shapes; after the first, logits, loss gradient and input
        // gradient must all come back out of the model's pool.
        let public = SynthTask::new(SynthConfig::mnist_like(85)).generate_unlabeled(32, 3);
        let mut model = Model::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 1));
        let targets = soften(&model.predict(&public), 2.0);
        let sgd = SgdConfig { lr: 0.02, momentum: 0.9, weight_decay: 0.0, nesterov: false };
        let misses = |m: &mut Model| {
            let ws = m.ws_mut();
            ws.fresh_allocations() + ws.fresh_usize_allocations() + ws.fresh_i8_allocations()
        };
        assert_eq!(digest(&mut model, &public, &targets, 1, 2.0, sgd, 4), 1);
        let warm = misses(&mut model);
        assert_eq!(digest(&mut model, &public, &targets, 4, 2.0, sgd, 5), 4);
        assert_eq!(misses(&mut model), warm, "pool misses after the first step");
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
