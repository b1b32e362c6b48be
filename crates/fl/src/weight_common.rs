//! Shared plumbing for the weight-sharing baselines (FedAvg, FedProx,
//! FedNova, SCAFFOLD): a global model holder with evaluation, the
//! client-update fan-out that streams models through training in
//! `cohort_batch`-sized chunks, and the weighted averages `fuse` folds
//! the cohort's transmitted states with.

use crate::config::ConfigError;
use crate::context::FlContext;
use crate::engine::{EngineError, RoundOutcome};
use crate::local::{local_train, LocalCfg, LocalOutcome};
use crate::scheduler::{PreparedUpdate, UpdatePayload};
use crate::trace::{Phase, RoundScope};
use kemf_nn::layer::Layer;
use kemf_nn::model::Model;
use kemf_nn::models::ModelSpec;
use kemf_nn::serialize::{ModelState, Weights};
use kemf_tensor::rng::child_seed;
use rayon::prelude::*;

/// Server-side global model shared by the weight baselines.
pub struct GlobalModel {
    /// Architecture every client trains.
    pub spec: ModelSpec,
    /// Current global transmitted state.
    pub state: ModelState,
    eval_model: Model,
}

impl GlobalModel {
    /// Initialize from a spec (the server's round-0 model).
    pub fn new(spec: ModelSpec) -> Self {
        let eval_model = Model::new(spec);
        let state = eval_model.state();
        GlobalModel { spec, state, eval_model }
    }

    /// Transmitted payload size per direction, in bytes.
    pub fn payload_bytes(&self) -> u64 {
        self.state.bytes() as u64
    }

    /// Test accuracy of the current global state.
    pub fn evaluate(&mut self, ctx: &FlContext) -> f32 {
        self.eval_model.set_state(&self.state);
        self.eval_model
            .evaluate(&ctx.test.images, &ctx.test.labels, ctx.cfg.eval_batch)
    }
}

/// Owned per-client gradient hook built by `hook_for` in
/// [`fan_out_clients`] (boxed so it can cross the parallel fan-out).
pub type BoxedGradHook = Box<dyn Fn(&mut dyn Layer) + Send + Sync>;

/// One client's round result.
pub struct ClientResult {
    /// Client index.
    pub client: usize,
    /// Post-training transmitted state.
    pub state: ModelState,
    /// Local sample count (FedAvg weighting).
    pub n_samples: usize,
    /// Steps/loss bookkeeping.
    pub outcome: LocalOutcome,
}

/// Run local training on every sampled client in parallel, starting each
/// from the global state. `hook_for` builds the per-client gradient hook
/// (None for FedAvg/FedNova).
pub fn fan_out_clients(
    global: &ModelState,
    spec: ModelSpec,
    round: usize,
    sampled: &[usize],
    ctx: &FlContext,
    local: &LocalCfg,
    hook_for: &(dyn Fn(usize) -> Option<BoxedGradHook> + Sync),
) -> Vec<ClientResult> {
    sampled
        .par_iter()
        .map(|&k| {
            let mut model = Model::new(spec);
            model.set_state(global);
            let hook = hook_for(k);
            let seed = child_seed(ctx.cfg.seed, (round as u64) << 20 | k as u64);
            let shard = ctx.client_shard(k);
            let outcome = local_train(
                &mut model,
                &shard,
                local,
                seed,
                hook.as_deref().map(|h| h as &dyn Fn(&mut dyn Layer)),
            );
            ClientResult { client: k, state: model.state(), n_samples: shard.len(), outcome }
        })
        .collect()
}

/// Shared `FedAlgorithm::train_cohort` body for algorithms whose update
/// payload is the plain post-training model state (FedAvg, FedProx,
/// FedDF): fan the cohort out in `cohort_batch`-sized chunks — only a
/// chunk's models and workspaces are live at once — and return each
/// client's transmitted state as a [`PreparedUpdate`].
pub fn train_cohort_states(
    global: &GlobalModel,
    wave: usize,
    sampled: &[usize],
    ctx: &FlContext,
    local: &LocalCfg,
    hook_for: &(dyn Fn(usize) -> Option<BoxedGradHook> + Sync),
    scope: &mut RoundScope<'_>,
) -> Vec<PreparedUpdate> {
    if sampled.is_empty() {
        return Vec::new();
    }
    let chunk = ctx.cfg.cohort_chunk(sampled.len());
    let mut out = Vec::with_capacity(sampled.len());
    scope.phase(Phase::LocalUpdate, |c| {
        for batch in sampled.chunks(chunk) {
            let results =
                fan_out_clients(&global.state, global.spec, wave, batch, ctx, local, hook_for);
            c.clients += results.len();
            c.steps += results.iter().map(|r| r.outcome.steps as u64).sum::<u64>();
            c.batches = c.steps;
            for r in results {
                out.push(PreparedUpdate {
                    client: r.client,
                    n_samples: r.n_samples,
                    steps: r.outcome.steps,
                    loss: r.outcome.mean_loss,
                    payload: UpdatePayload::State(r.state),
                    commit: None,
                });
            }
        }
    });
    out
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
        for (u, w) in &updates {
            let UpdatePayload::State(state) = &u.payload else {
                return Err(EngineError::Config(ConfigError::AlgorithmSetup {
                    algorithm: algorithm.into(),
                    reason: format!("client {}: expected a model-state update payload", u.client),
                }));
            };
            avg.add(state, w * u.n_samples as f32);
            loss_sum += u.loss;
        }
        global.state = avg.finish();
        Ok(RoundOutcome { train_loss: loss_sum / reported as f32 })
    })
}

/// Streaming weighted average over [`Weights`] snapshots.
///
/// Bit-identical to [`Weights::weighted_average`] when fed the same
/// snapshots in the same order with the same coefficient total: the
/// accumulation is the identical `acc += (coeff / total) * value` inner
/// loop, just spread over `add` calls instead of one pass.
pub struct WeightsAverage {
    total: f32,
    acc: Weights,
}

impl WeightsAverage {
    /// Start an average with the layout of `layout` and a precomputed
    /// coefficient total (must be positive; callers compute it over the
    /// full cohort before streaming).
    pub fn new(layout: &Weights, total: f32) -> Self {
        assert!(total > 0.0, "coefficients must sum to a positive value");
        WeightsAverage { total, acc: layout.zeros_like() }
    }

    /// Fold one snapshot in with coefficient `coeff`.
    pub fn add(&mut self, snap: &Weights, coeff: f32) {
        assert_eq!(snap.values.len(), self.acc.values.len(), "layout mismatch");
        let w = coeff / self.total;
        for (o, &v) in self.acc.values.iter_mut().zip(snap.values.iter()) {
            *o += w * v;
        }
    }

    /// The accumulated average.
    pub fn finish(self) -> Weights {
        self.acc
    }
}

/// Streaming weighted average over full [`ModelState`]s (parameters and
/// buffers), matching [`ModelState::weighted_average`] bit-for-bit under
/// the same feeding order and coefficient total.
pub struct StateAverage {
    params: WeightsAverage,
    buffers: WeightsAverage,
}

impl StateAverage {
    /// Start an average with the layout of `layout` and a precomputed
    /// positive coefficient total.
    pub fn new(layout: &ModelState, total: f32) -> Self {
        StateAverage {
            params: WeightsAverage::new(&layout.params, total),
            buffers: WeightsAverage::new(&layout.buffers, total),
        }
    }

    /// Fold one client state in with coefficient `coeff`.
    pub fn add(&mut self, state: &ModelState, coeff: f32) {
        self.params.add(&state.params, coeff);
        self.buffers.add(&state.buffers, coeff);
    }

    /// The accumulated average.
    pub fn finish(self) -> ModelState {
        ModelState { params: self.params.finish(), buffers: self.buffers.finish() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kemf_nn::models::Arch;

    #[test]
    fn streaming_average_is_bit_identical_to_batch_average() {
        let spec = ModelSpec::scaled(Arch::Cnn2, 1, 12, 4, 3);
        let states: Vec<ModelState> =
            (0u64..5).map(|s| Model::new(ModelSpec { seed: s, ..spec }).state()).collect();
        let coeffs = [3.0f32, 1.0, 7.0, 2.0, 5.0];
        let batch = ModelState::weighted_average(&states, &coeffs);
        let total: f32 = coeffs.iter().sum();
        let mut stream = StateAverage::new(&states[0], total);
        for (s, &c) in states.iter().zip(coeffs.iter()) {
            stream.add(s, c);
        }
        let streamed = stream.finish();
        // Bit equality, not approximate: f32 addition order is identical.
        assert_eq!(
            streamed.params.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            batch.params.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
        assert_eq!(
            streamed.buffers.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            batch.buffers.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }
}
