//! Shared plumbing for the weight-sharing algorithms (FedAvg, FedProx,
//! FedNova, SCAFFOLD, FedDF, FedRolex): a global model holder with
//! evaluation, the per-client "train a fresh copy of the global model"
//! body they hand to the cohort driver, and the sample-count-weighted
//! state average FedAvg and FedProx fuse with.
//!
//! Nothing here keeps a `Model` between calls. The server holds the
//! global *state*; a client's model lives for its `train` closure on
//! whichever thread the cohort driver runs it, and the evaluation model
//! for one `evaluate` — so what is live during a round's local updates
//! is the state plus one training client per thread. What these models
//! free goes back to the allocator's arena, which keeps it for the next
//! phase to reuse (`kemf_tensor::par::heap_kept`): the frees bound the
//! process's peak, not what it holds between rounds.

use crate::context::FlContext;
use crate::engine::{EngineError, RoundOutcome};
use crate::local::{local_train, GradHook, LocalCfg, LocalOutcome};
use crate::scheduler::{PreparedUpdate, UpdatePayload};
use crate::trace::{Phase, RoundScope};
use kemf_nn::model::Model;
use kemf_nn::models::ModelSpec;
use kemf_nn::serialize::{ModelState, StateAverage};
use kemf_tensor::rng::child_seed;

/// Server-side global model shared by the weight baselines.
pub struct GlobalModel {
    /// Architecture every client trains.
    pub spec: ModelSpec,
    /// Current global transmitted state.
    pub state: ModelState,
}

impl GlobalModel {
    /// Initialize from a spec (the server's round-0 model).
    pub fn new(spec: ModelSpec) -> Self {
        GlobalModel { spec, state: Model::new(spec).state() }
    }

    /// Transmitted payload size per direction, in bytes.
    pub fn payload_bytes(&self) -> u64 {
        self.state.bytes() as u64
    }

    /// Test accuracy of the current global state, on a model that lives
    /// for this call only: a kept evaluation model would pin its
    /// parameters and the workspace of one `eval_batch`-sized pass — more
    /// than a training client holds — on top of every round's local
    /// updates. Freed, those pages go back to the arena, where the next
    /// round's client models reuse them.
    pub fn evaluate(&mut self, ctx: &FlContext) -> f32 {
        let mut model = Model::from_state(self.spec, &self.state)
            .expect("the global state has its own spec's layout");
        let acc = model.evaluate(&ctx.test.images, &ctx.test.labels, ctx.cfg.eval_batch);
        kemf_tensor::conv::release_lowering();
        acc
    }
}

/// One client's local update as the weight-sharing algorithms run it
/// inside [`crate::cohort::train_cohort`]: a fresh model at the `global`
/// state the client was dispatched with, trained on client `k`'s shard
/// under `hook` (FedProx's proximal term, SCAFFOLD's correction). Takes
/// the state and spec rather than a [`GlobalModel`] so the call can run
/// on the cohort driver's worker threads (shared state must be `Sync`).
pub fn train_from_global(
    global: &ModelState,
    spec: ModelSpec,
    wave: usize,
    k: usize,
    ctx: &FlContext,
    local: &LocalCfg,
    hook: Option<GradHook<'_>>,
) -> (ModelState, LocalOutcome) {
    let mut model =
        Model::from_state(spec, global).expect("the dispatched state has the global spec's layout");
    let seed = child_seed(ctx.cfg.seed, (wave as u64) << 20 | k as u64);
    let outcome = local_train(&mut model, &ctx.client_shard(k), local, seed, hook);
    (model.state(), outcome)
}

/// [`train_from_global`] packaged as the update of an algorithm whose
/// payload is the plain post-training model state (FedAvg, FedProx,
/// FedDF).
pub fn train_state_update(
    global: &ModelState,
    spec: ModelSpec,
    wave: usize,
    k: usize,
    ctx: &FlContext,
    hook: Option<GradHook<'_>>,
) -> PreparedUpdate {
    let (state, outcome) =
        train_from_global(global, spec, wave, k, ctx, &ctx.cfg.local_cfg(), hook);
    PreparedUpdate::new(k, ctx, outcome.steps, outcome.mean_loss, UpdatePayload::State(state))
}

/// Shared `FedAlgorithm::fuse` body for the sample-count-weighted state
/// average (FedAvg, FedProx): fold the updates, in order, at coefficient
/// `weight × n_samples` (`1.0 × n` is exactly `n` in f32, so a fresh
/// update weighs its plain sample count).
pub fn fuse_state_average(
    algorithm: &str,
    global: &mut GlobalModel,
    updates: Vec<(PreparedUpdate, f32)>,
    scope: &mut RoundScope<'_>,
) -> Result<RoundOutcome, EngineError> {
    if updates.is_empty() {
        return Ok(RoundOutcome { train_loss: f32::NAN });
    }
    let total: f32 = updates.iter().map(|(u, w)| w * u.n_samples as f32).sum();
    let reported = updates.len();
    scope.phase(Phase::Fusion, |c| {
        c.clients = reported;
        let mut avg = StateAverage::new(&global.state, total);
        let mut loss_sum = 0.0f32;
        for (u, w) in updates {
            avg.add(&u.payload.into_state(algorithm, u.client)?, w * u.n_samples as f32);
            loss_sum += u.loss;
        }
        global.state = avg.finish();
        Ok(RoundOutcome { train_loss: loss_sum / reported as f32 })
    })
}
