//! FedDF (Lin et al. 2020) — *ensemble distillation for robust model
//! fusion* — the server-side fusion method FedKEMF builds on, included as
//! an additional baseline. Clients train **full models** locally (plain
//! SGD, homogeneous architecture); the server initializes a student at
//! the weighted average of the client models and refines it by distilling
//! their ensemble on public data. Unlike FedKEMF there is no knowledge
//! network: the full model crosses the wire every round.

use crate::distill::DistillConfig;
use crate::fusion::ensemble_distill_fusion;
use kemf_fl::cohort;
use kemf_fl::context::FlContext;
use kemf_fl::engine::{EngineError, FedAlgorithm, RoundOutcome};
use kemf_fl::lifecycle::{ClientPlan, ModelView, WirePayload};
use kemf_fl::scheduler::PreparedUpdate;
use kemf_fl::state::{check_model_layout, AlgorithmState, RestoreError};
use kemf_fl::trace::{Phase, RoundScope};
use kemf_fl::weight_common::{train_state_update, GlobalModel};
use kemf_nn::codec::Writer;
use kemf_nn::models::ModelSpec;
use kemf_nn::serialize::ModelState;
use kemf_tensor::rng::child_seed;
use kemf_tensor::Tensor;

/// The FedDF baseline. Its server distils at [`DistillConfig::default`],
/// FedKEMF's default.
pub struct FedDf {
    global: GlobalModel,
    /// Server-side unlabeled pool.
    pool: Tensor,
}

impl FedDf {
    /// New FedDF server.
    pub fn new(spec: ModelSpec, pool: Tensor) -> Self {
        FedDf { global: GlobalModel::new(spec), pool }
    }
}

impl FedAlgorithm for FedDf {
    fn name(&self) -> String {
        "FedDF".into()
    }

    fn identity(&self, w: &mut Writer) {
        w.string(&self.name());
        w.spec(&self.global.spec);
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
        round: usize,
        updates: Vec<(PreparedUpdate, f32)>,
        ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<RoundOutcome, EngineError> {
        if updates.is_empty() {
            return Ok(RoundOutcome { train_loss: f32::NAN });
        }
        let mut states: Vec<ModelState> = Vec::with_capacity(updates.len());
        let mut sample_counts: Vec<usize> = Vec::with_capacity(updates.len());
        let mut weights: Vec<f32> = Vec::with_capacity(updates.len());
        let mut loss_sum = 0.0f32;
        for (u, w) in updates {
            let state = u.payload.into_state(&self.name(), u.client)?;
            states.push(state);
            sample_counts.push(u.n_samples);
            weights.push(w);
            loss_sum += u.loss;
        }
        let reported = states.len();
        scope.phase(Phase::Fusion, |c| {
            c.clients = reported;
            let (fused, out) = ensemble_distill_fusion(
                self.global.spec,
                &states,
                &sample_counts,
                &weights,
                &self.pool,
                &DistillConfig::default(),
                child_seed(ctx.cfg.seed, 0xDF ^ round as u64),
            );
            c.steps = out.steps as u64;
            c.batches = out.batches as u64;
            self.global.state = fused;
        });
        Ok(RoundOutcome { train_loss: loss_sum / reported as f32 })
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

    fn global_model(&self) -> Option<(ModelSpec, ModelState)> {
        Some((self.global.spec, self.global.state.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kemf_data::synth::{SynthConfig, SynthTask};
    use kemf_fl::config::FlConfig;
    use kemf_fl::engine::{Engine, RunOptions};
    use kemf_fl::metrics::History;
    use kemf_nn::model::Model;
    use kemf_nn::models::Arch;

    fn run(algo: &mut dyn FedAlgorithm, ctx: &FlContext) -> History {
        Engine::run(algo, ctx, RunOptions::new()).unwrap().history
    }

    fn world(seed: u64) -> (FlContext, SynthTask) {
        let task = SynthTask::new(SynthConfig::mnist_like(seed));
        let train = task.generate(240, 0);
        let test = task.generate(80, 1);
        let cfg = FlConfig {
            n_clients: 4,
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
    fn feddf_learns_above_chance() {
        let (ctx, task) = world(71);
        let pool = task.generate_unlabeled(100, 2);
        let mut algo = FedDf::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0), pool);
        let h = run(&mut algo, &ctx);
        assert!(h.best_accuracy() > 0.3, "got {}", h.best_accuracy());
    }

    #[test]
    fn feddf_pays_full_model_bytes() {
        let (ctx, task) = world(72);
        let pool = task.generate_unlabeled(60, 2);
        let spec = ModelSpec::scaled(Arch::ResNet20, 1, 12, 10, 0);
        let mut algo = FedDf::new(spec, pool);
        let per_dir = algo.global.payload_bytes();
        let h = run(&mut algo, &ctx);
        assert_eq!(h.total_bytes(), 6 * 4 * 2 * per_dir);
        assert_eq!(per_dir, Model::new(spec).state_bytes() as u64);
    }

    #[test]
    fn feddf_is_deterministic() {
        let run_once = || {
            let (ctx, task) = world(73);
            let pool = task.generate_unlabeled(60, 2);
            let mut algo = FedDf::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0), pool);
            run(&mut algo, &ctx).accuracies()
        };
        assert_eq!(run_once(), run_once());
    }
}
