//! FedNova (Wang et al. 2020): normalized averaging. Clients may take
//! different numbers of local steps τ_k (their shards differ in size);
//! naively averaging their weights biases the update toward clients that
//! stepped more. FedNova aggregates the *per-step normalized* directions:
//!
//! `w ← w − τ_eff · Σ_k p_k · d_k`, with `d_k = (w − w_k)/τ_k`,
//! `p_k = n_k / Σ n`, `τ_eff = Σ_k p_k τ_k`.
//!
//! We use the plain step count for τ (the momentum-corrected effective τ
//! of the paper is a scalar refinement documented in DESIGN.md). FedNova
//! ships normalization metadata alongside the weights, which the paper
//! accounts as a 2× per-round payload vs FedAvg.

use crate::cohort;
use crate::context::FlContext;
use crate::engine::{EngineError, FedAlgorithm, RoundOutcome};
use crate::lifecycle::{ClientPlan, ModelView, WirePayload};
use crate::scheduler::{PreparedUpdate, UpdatePayload};
use crate::state::{check_model_layout, AlgorithmState, RestoreError};
use crate::trace::{Phase, RoundScope};
use crate::weight_common::{train_from_global, GlobalModel};
use kemf_nn::models::ModelSpec;
use kemf_nn::serialize::{ModelState, WeightsAverage};

/// The FedNova baseline.
pub struct FedNova {
    global: GlobalModel,
}

impl FedNova {
    /// New FedNova server.
    pub fn new(spec: ModelSpec) -> Self {
        FedNova { global: GlobalModel::new(spec) }
    }
}

impl FedAlgorithm for FedNova {
    fn name(&self) -> String {
        "FedNova".into()
    }

    fn client_plans(&self, _round: usize, sampled: &[usize]) -> Vec<ClientPlan> {
        // 2× payload: weights plus normalization metadata each way.
        ClientPlan::uniform(
            sampled,
            ModelView::Full,
            WirePayload::symmetric(2 * self.global.payload_bytes()),
        )
    }

    fn train_cohort(
        &mut self,
        wave: usize,
        sampled: &[usize],
        ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<Vec<PreparedUpdate>, EngineError> {
        let local = ctx.cfg.local_cfg(wave);
        let (global, spec) = (&self.global.state, self.global.spec);
        cohort::train_cohort(
            sampled,
            ctx,
            scope,
            |_| Ok(()),
            |k, ()| {
                let (state, outcome) = train_from_global(global, spec, wave, k, ctx, &local, None);
                // The normalized direction is anchored to the global
                // weights the client actually started from, so it is
                // computed here at dispatch time, not at fusion.
                let direction = ModelState {
                    params: global.params.delta(&state.params),
                    buffers: state.buffers,
                };
                let payload = UpdatePayload::State(direction);
                PreparedUpdate::new(k, ctx, outcome.steps, outcome.mean_loss, payload)
            },
        )
    }

    fn fuse(
        &mut self,
        _round: usize,
        updates: Vec<(PreparedUpdate, f32)>,
        _ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<RoundOutcome, EngineError> {
        if updates.is_empty() {
            return Ok(RoundOutcome { train_loss: f32::NAN });
        }
        let total_n: f32 = updates.iter().map(|(u, w)| w * u.n_samples as f32).sum();
        let reported = updates.len();
        scope.phase(Phase::Fusion, |c| {
            c.clients = reported;
            let mut combined = self.global.state.params.zeros_like();
            let mut tau_eff = 0.0f32;
            let mut buffers = WeightsAverage::new(&self.global.state.buffers, total_n);
            let mut loss_sum = 0.0f32;
            for (u, w) in updates {
                let delta = u.payload.into_state("FedNova", u.client)?;
                let tau = u.steps.max(1) as f32;
                let p = w * u.n_samples as f32 / total_n;
                tau_eff += p * tau;
                combined.scale_add(1.0, &delta.params, p / tau);
                // Buffers: weighted average, as for FedAvg.
                buffers.add(&delta.buffers, w * u.n_samples as f32);
                loss_sum += u.loss;
            }
            // w ← w − τ_eff · Σ p_k d_k  (note d already points from w to w_k).
            self.global.state.params.scale_add(1.0, &combined, -tau_eff);
            self.global.state.buffers = buffers.finish();
            Ok(RoundOutcome { train_loss: loss_sum / reported as f32 })
        })
    }

    fn evaluate(&mut self, ctx: &FlContext) -> f32 {
        self.global.evaluate(ctx)
    }

    fn state(&self) -> Result<AlgorithmState, EngineError> {
        Ok(AlgorithmState::new(self.name(), 1).with_model("global", self.global.state.clone()))
    }

    fn restore(&mut self, state: &AlgorithmState) -> Result<(), RestoreError> {
        state.expect_header(&self.name(), 1)?;
        let incoming = state.model("global")?;
        check_model_layout("global", incoming, &self.global.state)?;
        self.global.state = incoming.clone();
        Ok(())
    }

    fn global_model(&self) -> Option<(kemf_nn::models::ModelSpec, kemf_nn::serialize::ModelState)> {
        Some((self.global.spec, self.global.state.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlConfig;
    use crate::engine::{Engine, RunOptions};
    use crate::metrics::History;
    use kemf_data::synth::{SynthConfig, SynthTask};
    use kemf_nn::models::Arch;

    fn run(algo: &mut dyn FedAlgorithm, ctx: &FlContext) -> History {
        Engine::run(algo, ctx, RunOptions::new()).unwrap().history
    }

    fn ctx(seed: u64) -> FlContext {
        let task = SynthTask::new(SynthConfig::mnist_like(seed));
        let train = task.generate(240, 0);
        let test = task.generate(80, 1);
        let cfg = FlConfig {
            n_clients: 4,
            sample_ratio: 1.0,
            rounds: 6,
            local_epochs: 2,
            batch_size: 16,
            // Skewed shards → heterogeneous τ_k, FedNova's raison d'être.
            alpha: 0.3,
            min_per_client: 10,
            seed,
            ..Default::default()
        };
        FlContext::new(cfg, &train, test)
    }

    #[test]
    fn fednova_learns_above_chance() {
        let c = ctx(31);
        let mut algo = FedNova::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0));
        let h = run(&mut algo, &c);
        assert!(h.best_accuracy() > 0.25, "got {}", h.best_accuracy());
    }

    #[test]
    fn fednova_pays_double_communication() {
        let c = ctx(32);
        let mut nova = FedNova::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0));
        let per_dir = nova.global.payload_bytes();
        let h = run(&mut nova, &c);
        assert_eq!(h.total_bytes(), 6 * 4 * 2 * 2 * per_dir);
    }

    #[test]
    fn normalized_update_moves_global() {
        let c = ctx(33);
        let mut algo = FedNova::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0));
        let before = algo.global.state.params.clone();
        let _ = run(&mut algo, &c);
        let moved = algo.global.state.params.delta(&before).norm();
        assert!(moved > 1e-3, "global barely moved: {moved}");
    }
}
