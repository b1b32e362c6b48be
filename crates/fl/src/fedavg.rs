//! FedAvg (McMahan et al. 2017): clients run local SGD from the global
//! weights; the server replaces the global model with the sample-count-
//! weighted average of the returned weights.

use crate::cohort;
use crate::context::FlContext;
use crate::engine::{EngineError, FedAlgorithm, RoundOutcome};
use crate::lifecycle::{ClientPlan, ModelView, WirePayload};
use crate::scheduler::PreparedUpdate;
use crate::state::{check_model_layout, AlgorithmState, RestoreError};
use crate::trace::RoundScope;
use crate::weight_common::{fuse_state_average, train_state_update, GlobalModel};
use kemf_nn::models::ModelSpec;
use kemf_nn::serialize::ModelState;

/// The FedAvg baseline.
pub struct FedAvg {
    global: GlobalModel,
}

impl FedAvg {
    /// New FedAvg server for the given client architecture.
    pub fn new(spec: ModelSpec) -> Self {
        FedAvg { global: GlobalModel::new(spec) }
    }

    /// Current global state (for tests and checkpointing).
    pub fn global_state(&self) -> &ModelState {
        &self.global.state
    }
}

impl FedAlgorithm for FedAvg {
    fn name(&self) -> String {
        "FedAvg".into()
    }

    fn client_plans(&self, _round: usize, sampled: &[usize]) -> Vec<ClientPlan> {
        ClientPlan::uniform(
            sampled,
            ModelView::Full,
            WirePayload::symmetric(self.global.payload_bytes()),
        )
    }

    fn train_cohort(
        &mut self,
        wave: usize,
        sampled: &[usize],
        ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<Vec<PreparedUpdate>, EngineError> {
        let (global, spec) = (&self.global.state, self.global.spec);
        cohort::train_cohort(
            sampled,
            ctx,
            scope,
            |_| Ok(()),
            |k, ()| train_state_update(global, spec, wave, k, ctx, None),
        )
    }

    fn fuse(
        &mut self,
        _round: usize,
        updates: Vec<(PreparedUpdate, f32)>,
        _ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<RoundOutcome, EngineError> {
        fuse_state_average("FedAvg", &mut self.global, updates, scope)
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

    fn tiny_ctx(seed: u64) -> FlContext {
        let task = SynthTask::new(SynthConfig::mnist_like(seed));
        let train = task.generate(240, 0);
        let test = task.generate(80, 1);
        let cfg = FlConfig {
            n_clients: 4,
            sample_ratio: 1.0,
            rounds: 6,
            local_epochs: 2,
            batch_size: 16,
            lr: 0.08,
            alpha: 1.0,
            min_per_client: 10,
            seed,
            ..Default::default()
        };
        FlContext::new(cfg, &train, test)
    }

    #[test]
    fn fedavg_learns_above_chance() {
        let ctx = tiny_ctx(11);
        let mut algo = FedAvg::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0));
        let h = run(&mut algo, &ctx);
        assert!(
            h.best_accuracy() > 0.3,
            "FedAvg should beat 10% chance clearly, got {}",
            h.best_accuracy()
        );
    }

    #[test]
    fn fedavg_byte_accounting_is_symmetric_and_additive() {
        let ctx = tiny_ctx(12);
        let mut algo = FedAvg::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0));
        let per_dir = algo.global.payload_bytes();
        let h = run(&mut algo, &ctx);
        // 6 rounds × 4 clients × 2 directions.
        assert_eq!(h.total_bytes(), 6 * 4 * 2 * per_dir);
    }

    #[test]
    fn fedavg_is_deterministic() {
        let run_once = || {
            let ctx = tiny_ctx(13);
            let mut algo = FedAvg::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0));
            run(&mut algo, &ctx).accuracies()
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn cohort_batching_is_bit_identical() {
        // cohort_batch is a memory knob only: the streamed average and
        // the sequential loss fold must reproduce the unbatched history
        // bit for bit, whatever the batch size.
        let history = |batch: Option<usize>| {
            let mut ctx = tiny_ctx(15);
            ctx.cfg.cohort_batch = batch;
            let mut algo = FedAvg::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0));
            run(&mut algo, &ctx).records
        };
        let whole = history(None);
        assert_eq!(whole, history(Some(1)));
        assert_eq!(whole, history(Some(3)));
    }

    #[test]
    fn aggregation_moves_global_weights() {
        let ctx = tiny_ctx(14);
        let mut algo = FedAvg::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0));
        let before = algo.global_state().params.clone();
        let _ = run(&mut algo, &ctx);
        assert_ne!(before.values, algo.global_state().params.values);
    }
}
