//! FedGEMS (Cheng et al. 2021) — *federated learning of larger server
//! models via selective knowledge fusion* — the server-larger-than-client
//! counterpart of FedMD. The server hosts a model **bigger than any
//! client's** and never ships it; all communication is logits on a
//! shared public pool:
//!
//! 1. the server broadcasts its own logits on the public pool;
//! 2. every client digests them (KL distillation into its own,
//!    arbitrary-architecture model), revisits its private shard, and
//!    uploads its logits on the pool;
//! 3. the server **selectively fuses** the client logits per sample:
//!    only confident candidates (max softmax ≥ a threshold) vote; a
//!    weighted majority picks the consensus class; the fused target is
//!    the weighted mean of the candidates that agree with it; samples
//!    with no confident, agreeing candidate fall back to the server's
//!    own prediction, so unreliable clients cannot poison the server;
//! 4. the server distills itself toward the fused targets.
//!
//! The per-round payload is `2 × |pool| × classes × 4` bytes per client
//! regardless of the server size ([`kemf_fl::lifecycle::ModelView::Logits`]
//! both ways) — the redesigned per-client plan API is what lets the
//! engine bill that honestly while `evaluate()` reports the big server
//! model's accuracy.

use crate::client_models::ClientModels;
use crate::fedmd::digest;
use kemf_fl::client_store::SpillConfig;
use kemf_fl::cohort;
use kemf_fl::config::ConfigError;
use kemf_fl::context::FlContext;
use kemf_fl::engine::{EngineError, FedAlgorithm, RoundOutcome};
use kemf_fl::lifecycle::{ClientPlan, ModelView, WirePayload};
use kemf_fl::local::local_train;
use kemf_fl::scheduler::{PreparedUpdate, UpdatePayload};
use kemf_fl::state::{check_model_layout, AlgorithmState, RestoreError, TensorBlob};
use kemf_fl::trace::{Phase, RoundScope};
use kemf_nn::loss::soften;
use kemf_nn::model::Model;
use kemf_nn::models::ModelSpec;
use kemf_nn::optim::SgdConfig;
use kemf_tensor::rng::child_seed;
use kemf_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// FedGEMS hyper-parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct FedGemsConfig {
    /// Epochs each client distills the server's broadcast logits.
    pub digest_epochs: usize,
    /// Epochs the server distills the fused targets.
    pub server_epochs: usize,
    /// Distillation temperature (both directions).
    pub temperature: f32,
    /// Distillation learning rate (both directions).
    pub distill_lr: f32,
    /// Minimum max-softmax probability a client prediction needs to
    /// vote in the selective fusion. Samples where no client clears it
    /// keep the server's own prediction.
    pub confidence_threshold: f32,
}

impl Default for FedGemsConfig {
    fn default() -> Self {
        FedGemsConfig {
            digest_epochs: 1,
            server_epochs: 1,
            temperature: 2.0,
            distill_lr: 0.02,
            confidence_threshold: 0.4,
        }
    }
}

/// The FedGEMS algorithm: a large server model fed by selective
/// client-logit fusion.
pub struct FedGems {
    cfg: FedGemsConfig,
    /// The big server model's architecture.
    server_spec: ModelSpec,
    /// Server model weights (never communicated).
    server: kemf_nn::serialize::ModelState,
    eval_model: Model,
    /// Public reference set whose logits are communicated.
    public: Tensor,
    /// Has the server fused at least one cohort? Clients skip digestion
    /// of an untrained (freshly initialized) server.
    server_trained: bool,
    /// Per-client local models (architectures may differ per client;
    /// all smaller than the server).
    clients: ClientModels,
    classes: usize,
}

/// Max softmax probability of one logit row (confidence of the
/// prediction) and its argmax class.
fn row_confidence(row: &[f32]) -> (usize, f32) {
    let mut arg = 0usize;
    let mut max = f32::NEG_INFINITY;
    for (c, &v) in row.iter().enumerate() {
        if v > max {
            max = v;
            arg = c;
        }
    }
    let denom: f32 = row.iter().map(|&v| (v - max).exp()).sum();
    (arg, 1.0 / denom)
}

impl FedGems {
    /// New FedGEMS population: per-client specs, the (larger) server
    /// spec, and the public pool whose logits cross the wire.
    pub fn new(
        client_specs: Vec<ModelSpec>,
        server_spec: ModelSpec,
        public: Tensor,
        classes: usize,
        cfg: FedGemsConfig,
    ) -> Self {
        assert!(!client_specs.is_empty(), "need at least one client spec");
        let eval_model = Model::new(server_spec);
        let server = eval_model.state();
        FedGems {
            cfg,
            server_spec,
            server,
            eval_model,
            public,
            server_trained: false,
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

    /// Server parameter count (for the ≥2×-any-client headline).
    pub fn server_params(&self) -> usize {
        self.server.params.numel()
    }

    /// Largest client parameter count.
    pub fn largest_client_params(&self) -> usize {
        self.clients
            .specs()
            .iter()
            .map(|s| Model::new(*s).state().params.numel())
            .max()
            .unwrap_or(0)
    }

    /// The server's current logits on the public pool.
    fn server_logits(&mut self) -> Tensor {
        self.eval_model.set_state(&self.server);
        self.eval_model.predict_batch_stats(&self.public)
    }

    /// Selective knowledge fusion (the algorithm's core): per public
    /// sample, confident client predictions vote at their fusion
    /// coefficient; the fused target is the coefficient-weighted mean
    /// of the candidates agreeing with the winning class, falling back
    /// to the server's own logits where nobody qualifies. Returns the
    /// fused `[pool, classes]` targets and how many samples kept the
    /// server's prediction.
    fn selective_fuse(
        &self,
        server_logits: &Tensor,
        members: &[(Tensor, f32)],
    ) -> (Tensor, usize) {
        let pool = self.public.dims()[0];
        let k = self.classes;
        let mut fused = vec![0.0f32; pool * k];
        let mut fallbacks = 0usize;
        let server_rows = server_logits.data();
        for i in 0..pool {
            let mut votes = vec![0.0f32; k];
            let mut confident: Vec<(usize, &[f32], f32)> = Vec::new();
            for (logits, coeff) in members {
                let row = &logits.data()[i * k..(i + 1) * k];
                let (arg, conf) = row_confidence(row);
                if conf >= self.cfg.confidence_threshold {
                    votes[arg] += coeff;
                    confident.push((arg, row, *coeff));
                }
            }
            // Deterministic argmax: strict > keeps the lowest class on a
            // tie, independent of member order.
            let consensus = votes
                .iter()
                .enumerate()
                .fold((0usize, 0.0f32), |best, (c, &v)| if v > best.1 { (c, v) } else { best });
            let out = &mut fused[i * k..(i + 1) * k];
            if consensus.1 > 0.0 {
                let mut total = 0.0f32;
                for (arg, row, coeff) in &confident {
                    if *arg == consensus.0 {
                        for (o, &v) in out.iter_mut().zip(row.iter()) {
                            *o += coeff * v;
                        }
                        total += coeff;
                    }
                }
                for o in out.iter_mut() {
                    *o /= total;
                }
            } else {
                out.copy_from_slice(&server_rows[i * k..(i + 1) * k]);
                fallbacks += 1;
            }
        }
        (Tensor::from_vec(fused, &[pool, k]), fallbacks)
    }

    /// Fuse the collected client logits into the server model: selective
    /// fusion, then server self-distillation toward the fused targets.
    fn fuse_into_server(&mut self, round: usize, ctx: &FlContext, members: &[(Tensor, f32)]) {
        let server_logits = self.server_logits();
        let (fused, _fallbacks) = self.selective_fuse(&server_logits, members);
        let targets = soften(&fused, self.cfg.temperature);
        let mut server = Model::from_state(self.server_spec, &self.server)
            .expect("the server state has the server spec's layout");
        let seed = child_seed(ctx.cfg.seed, 0x4745_4D53 ^ (((round as u64) << 1) | 1));
        digest(
            &mut server,
            &self.public,
            &targets,
            self.cfg.server_epochs,
            self.cfg.temperature,
            SgdConfig { lr: self.cfg.distill_lr, ..ctx.cfg.sgd_at(round) },
            seed,
        );
        self.server = server.state();
        self.server_trained = true;
    }
}

impl FedAlgorithm for FedGems {
    fn name(&self) -> String {
        "FedGEMS".into()
    }

    fn init(&mut self, ctx: &FlContext) -> Result<(), ConfigError> {
        if !(0.0..=1.0).contains(&self.cfg.confidence_threshold) {
            return Err(ConfigError::AlgorithmSetup {
                algorithm: self.name(),
                reason: format!(
                    "confidence_threshold {} is not a probability",
                    self.cfg.confidence_threshold
                ),
            });
        }
        self.clients.init(&self.name(), ctx)
    }

    fn client_plans(&self, _round: usize, sampled: &[usize]) -> Vec<ClientPlan> {
        // Logits on the public pool each way, however large the server is.
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
        // Broadcast: the server's current logits, softened for digestion.
        // A never-fused server is noise — clients skip digesting it.
        let broadcast = self
            .server_trained
            .then(|| soften(&self.server_logits(), self.cfg.temperature));
        let (cfg, public) = (self.cfg, &self.public);
        let clients = &mut self.clients;
        cohort::train_cohort(
            sampled,
            ctx,
            scope,
            |k| clients.fetch(k),
            |k, mut model: Model| {
                let seed =
                    child_seed(ctx.cfg.seed, 0x4745_4D53 ^ ((wave as u64) << 16 | k as u64));
                let digest_steps = broadcast.as_ref().map_or(0, |targets| {
                    let sgd = SgdConfig { lr: cfg.distill_lr, ..local.sgd };
                    digest(&mut model, public, targets, cfg.digest_epochs, cfg.temperature, sgd, seed)
                });
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
        ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<RoundOutcome, EngineError> {
        self.clients.begin_round(round);
        if updates.is_empty() {
            return Ok(RoundOutcome { train_loss: f32::NAN });
        }
        let dims = [self.public.dims()[0], self.classes];
        let (members, train_loss) =
            self.clients.unpack_logits(&self.name(), dims, updates, |w, n| w * n as f32)?;
        scope.phase(Phase::Fusion, |c| {
            c.clients = members.len();
            self.fuse_into_server(round, ctx, &members);
        });
        Ok(RoundOutcome { train_loss })
    }

    /// The headline metric: the *large server model's* accuracy on the
    /// shared test set (clients keep their small local models).
    fn evaluate(&mut self, ctx: &FlContext) -> f32 {
        self.eval_model.set_state(&self.server);
        self.eval_model
            .evaluate(&ctx.test.images, &ctx.test.labels, ctx.cfg.eval_batch)
    }

    fn state(&self) -> Result<AlgorithmState, EngineError> {
        let mut s = AlgorithmState::new(self.name(), 1)
            .with_model("server", self.server.clone())
            .with_scalar("server_trained", self.server_trained as u64 as f64);
        self.clients.push_state(&mut s)?;
        Ok(s)
    }

    fn restore(&mut self, state: &AlgorithmState) -> Result<(), RestoreError> {
        state.expect_header(&self.name(), 1)?;
        let server = state.model("server")?;
        check_model_layout("server", server, &self.server)?;
        let server_trained = state.scalar("server_trained")? != 0.0;
        self.clients.restore_state(state)?;
        self.server = server.clone();
        self.server_trained = server_trained;
        Ok(())
    }

    fn global_model(&self) -> Option<(ModelSpec, kemf_nn::serialize::ModelState)> {
        // The server model exists but never crosses the wire (every view
        // is Logits); exposing it here serves checkpoint inspection only.
        Some((self.server_spec, self.server.clone()))
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

    /// A server clearly larger than the Cnn2 clients.
    fn server_spec() -> ModelSpec {
        ModelSpec { width: 8, ..ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 900) }
    }

    #[test]
    fn fedgems_learns_above_chance_with_a_larger_server() {
        let (ctx, task) = world(91, 4);
        let specs = uniform_specs(Arch::Cnn2, 4, 1, 12, 10, 2);
        let public = task.generate_unlabeled(100, 3);
        let mut algo = FedGems::new(specs, server_spec(), public, 10, FedGemsConfig::default());
        assert!(
            algo.server_params() >= 2 * algo.largest_client_params(),
            "server {} vs largest client {}",
            algo.server_params(),
            algo.largest_client_params()
        );
        let h = run(&mut algo, &ctx);
        assert!(h.best_accuracy() > 0.2, "got {}", h.best_accuracy());
        assert_eq!(h.payload_kind, "logits");
    }

    #[test]
    fn payload_is_logits_regardless_of_server_size() {
        let (ctx, task) = world(92, 3);
        let specs = uniform_specs(Arch::Cnn2, 3, 1, 12, 10, 2);
        let public = task.generate_unlabeled(50, 3);
        let mut algo = FedGems::new(specs, server_spec(), public, 10, FedGemsConfig::default());
        assert_eq!(algo.payload_bytes(), 50 * 10 * 4);
        let server_bytes = 4 * algo.server_params() as u64;
        assert!(algo.payload_bytes() < server_bytes, "logits ≪ server model");
        let h = run(&mut algo, &ctx);
        assert_eq!(h.total_bytes(), 6 * 3 * 2 * algo.payload_bytes());
    }

    #[test]
    fn fedgems_supports_heterogeneous_clients() {
        let (ctx, task) = world(93, 6);
        let tiers = assign_tiers(6, 1);
        let specs = heterogeneous_specs(&tiers, 1, 12, 10, 2);
        let public = task.generate_unlabeled(80, 3);
        let mut algo = FedGems::new(specs, server_spec(), public, 10, FedGemsConfig::default());
        let h = run(&mut algo, &ctx);
        assert!(h.accuracies().iter().all(|a| a.is_finite()));
    }

    #[test]
    fn selective_fusion_falls_back_to_the_server_when_nobody_is_confident() {
        let (ctx, task) = world(94, 2);
        let specs = uniform_specs(Arch::Cnn2, 2, 1, 12, 10, 2);
        let public = task.generate_unlabeled(4, 3);
        let mut algo = FedGems::new(
            specs,
            server_spec(),
            public,
            10,
            FedGemsConfig { confidence_threshold: 1.0, ..Default::default() },
        );
        algo.init(&ctx).unwrap();
        // Uniform logits have confidence 1/classes < 1.0: every sample
        // must keep the server's own prediction.
        let members =
            vec![(Tensor::from_vec(vec![0.0; 4 * 10], &[4, 10]), 60.0)];
        let server_logits = algo.server_logits();
        let (fused, fallbacks) = algo.selective_fuse(&server_logits, &members);
        assert_eq!(fallbacks, 4);
        assert_eq!(fused.data(), server_logits.data());
    }

    #[test]
    fn selective_fusion_votes_by_weight_and_averages_the_agreers() {
        let (ctx, task) = world(95, 2);
        let specs = uniform_specs(Arch::Cnn2, 2, 1, 12, 10, 2);
        let public = task.generate_unlabeled(1, 3);
        let mut algo = FedGems::new(
            specs,
            server_spec(),
            public,
            10,
            FedGemsConfig { confidence_threshold: 0.5, ..Default::default() },
        );
        algo.init(&ctx).unwrap();
        // Two confident voters for class 0 (combined weight 3) beat one
        // confident voter for class 1 (weight 2); the fused row is the
        // weighted mean of the two class-0 rows only.
        let mut a = vec![0.0f32; 10];
        a[0] = 10.0;
        let mut b = vec![0.0f32; 10];
        b[0] = 20.0;
        let mut c = vec![0.0f32; 10];
        c[1] = 30.0;
        let members = vec![
            (Tensor::from_vec(a, &[1, 10]), 1.0),
            (Tensor::from_vec(b, &[1, 10]), 2.0),
            (Tensor::from_vec(c, &[1, 10]), 2.0),
        ];
        let server_logits = algo.server_logits();
        let (fused, fallbacks) = algo.selective_fuse(&server_logits, &members);
        assert_eq!(fallbacks, 0);
        let row = fused.data();
        // (1·10 + 2·20) / 3 = 50/3 in class 0; the class-1 voter is excluded.
        assert!((row[0] - 50.0 / 3.0).abs() < 1e-5, "row {row:?}");
        assert_eq!(row[1], 0.0, "disagreeing voter leaked in: {row:?}");
    }

    #[test]
    fn empty_cohort_leaves_the_server_untouched() {
        let (ctx, task) = world(98, 2);
        let specs = uniform_specs(Arch::Cnn2, 2, 1, 12, 10, 2);
        let public = task.generate_unlabeled(20, 3);
        let mut algo = FedGems::new(specs, server_spec(), public, 10, FedGemsConfig::default());
        algo.init(&ctx).unwrap();
        let before = algo.server.params.values.clone();
        let mut sink = kemf_fl::trace::NoopSink;
        let mut scope = RoundScope::new(&mut sink, 0);
        let out = algo.round(0, &[], &ctx, &mut scope).unwrap();
        assert!(out.train_loss.is_nan());
        assert_eq!(algo.server.params.values, before);
        assert!(!algo.server_trained, "an empty cohort must not mark the server trained");
    }

    #[test]
    fn state_round_trips_including_the_server_model() {
        let (ctx, task) = world(96, 3);
        let specs = uniform_specs(Arch::Cnn2, 3, 1, 12, 10, 2);
        let public = task.generate_unlabeled(40, 3);
        let mut algo =
            FedGems::new(specs.clone(), server_spec(), public.clone(), 10, FedGemsConfig::default());
        let _ = run(&mut algo, &ctx);
        let snap = algo.state().unwrap();
        let mut fresh = FedGems::new(specs, server_spec(), public, 10, FedGemsConfig::default());
        fresh.init(&ctx).unwrap();
        fresh.restore(&snap).unwrap();
        assert!(fresh.server_trained);
        assert_eq!(fresh.server.params.values, algo.server.params.values);
    }

    #[test]
    fn fedgems_is_deterministic() {
        let run_once = || {
            let (ctx, task) = world(97, 3);
            let specs = uniform_specs(Arch::Cnn2, 3, 1, 12, 10, 2);
            let public = task.generate_unlabeled(40, 3);
            let mut algo =
                FedGems::new(specs, server_spec(), public, 10, FedGemsConfig::default());
            run(&mut algo, &ctx).accuracies()
        };
        assert_eq!(run_once(), run_once());
    }
}
