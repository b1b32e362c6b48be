//! FedProx (Li et al. 2020): FedAvg plus a proximal term
//! `μ/2 · ‖w − w_global‖²` in every client's local objective, which damps
//! client drift under heterogeneous data.

use crate::cohort;
use crate::config::ConfigError;
use crate::context::FlContext;
use crate::engine::{EngineError, FedAlgorithm, RoundOutcome};
use crate::lifecycle::{ClientPlan, ModelView, WirePayload};
use crate::local::add_prox_to_grads;
use crate::scheduler::PreparedUpdate;
use crate::state::{check_model_layout, AlgorithmState, RestoreError};
use crate::trace::RoundScope;
use crate::weight_common::{fuse_state_average, train_state_update, GlobalModel};
use kemf_nn::codec::Writer;
use kemf_nn::layer::Layer;
use kemf_nn::models::ModelSpec;

/// The FedProx baseline.
pub struct FedProx {
    global: GlobalModel,
    /// Proximal coefficient μ.
    pub mu: f32,
}

impl FedProx {
    /// New FedProx server; the paper's benchmark default is μ = 0.01–0.1.
    /// `init` refuses a μ that is negative or NaN.
    pub fn new(spec: ModelSpec, mu: f32) -> Self {
        FedProx { global: GlobalModel::new(spec), mu }
    }
}

impl FedAlgorithm for FedProx {
    fn name(&self) -> String {
        "FedProx".into()
    }

    fn identity(&self, w: &mut Writer) {
        w.string(&self.name());
        w.spec(&self.global.spec);
        w.f32(self.mu);
    }

    fn init(&mut self, _ctx: &FlContext) -> Result<(), ConfigError> {
        if !(0.0..).contains(&self.mu) {
            return Err(ConfigError::AlgorithmSetup {
                algorithm: self.name(),
                reason: format!("mu {} is not a non-negative number", self.mu),
            });
        }
        Ok(())
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
        // Clients dispatched in wave `wave` anchor to the global weights
        // they were handed at dispatch time, however late they fold in.
        let (global, spec, mu) = (&self.global.state, self.global.spec, self.mu);
        let prox = |net: &mut dyn Layer| add_prox_to_grads(net, &global.params.values, mu);
        cohort::train_cohort(
            sampled,
            ctx,
            scope,
            |_| Ok(()),
            |k, ()| train_state_update(global, spec, wave, k, ctx, Some(&prox)),
        )
    }

    fn fuse(
        &mut self,
        _round: usize,
        updates: Vec<(PreparedUpdate, f32)>,
        _ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<RoundOutcome, EngineError> {
        fuse_state_average("FedProx", &mut self.global, updates, scope)
    }

    fn evaluate(&mut self, ctx: &FlContext) -> f32 {
        self.global.evaluate(ctx)
    }

    fn state(&self) -> Result<AlgorithmState, EngineError> {
        // μ is construction config, not evolving state; only the global
        // weights move between rounds.
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
    use crate::fedavg::FedAvg;
    use crate::metrics::History;
    use kemf_data::synth::{SynthConfig, SynthTask};
    use kemf_nn::models::Arch;

    fn run(algo: &mut dyn FedAlgorithm, ctx: &FlContext) -> History {
        Engine::run(algo, ctx, RunOptions::new()).unwrap().history
    }

    fn ctx(seed: u64, alpha: f64) -> FlContext {
        let task = SynthTask::new(SynthConfig::mnist_like(seed));
        let train = task.generate(240, 0);
        let test = task.generate(80, 1);
        let cfg = FlConfig {
            n_clients: 4,
            sample_ratio: 1.0,
            rounds: 5,
            local_epochs: 2,
            batch_size: 16,
            alpha,
            min_per_client: 10,
            seed,
            ..Default::default()
        };
        FlContext::new(cfg, &train, test)
    }

    #[test]
    fn fedprox_learns_above_chance() {
        let c = ctx(21, 1.0);
        let mut algo = FedProx::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0), 0.01);
        let h = run(&mut algo, &c);
        assert!(h.best_accuracy() > 0.3, "got {}", h.best_accuracy());
    }

    #[test]
    fn mu_zero_matches_fedavg_exactly() {
        let spec = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0);
        let c = ctx(22, 0.5);
        let mut prox = FedProx::new(spec, 0.0);
        let hp = run(&mut prox, &c);
        let c = ctx(22, 0.5);
        let mut avg = FedAvg::new(spec);
        let ha = run(&mut avg, &c);
        assert_eq!(hp.accuracies(), ha.accuracies(), "μ=0 FedProx must equal FedAvg");
    }

    /// `Engine::run`'s error for a FedProx at `mu`.
    fn refusal(mu: f32) -> EngineError {
        let mut algo = FedProx::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0), mu);
        let err = Engine::run(&mut algo, &ctx(24, 1.0), RunOptions::new()).unwrap_err();
        assert!(matches!(err, EngineError::Init(ConfigError::AlgorithmSetup { .. })), "{err}");
        err
    }

    #[test]
    fn init_refuses_a_negative_mu() {
        assert!(refusal(-0.1).to_string().contains("mu -0.1"));
    }

    #[test]
    fn init_refuses_a_nan_mu() {
        assert!(refusal(f32::NAN).to_string().contains("mu NaN"));
    }

    #[test]
    fn large_mu_restrains_drift() {
        // With a huge μ the clients barely move, so the global weights stay
        // close to initialization compared to μ=0.
        let spec = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0);
        let init = kemf_nn::model::Model::new(spec).weights();
        let drift = |mu: f32| {
            let mut c = ctx(23, 0.5);
            // Plain SGD so a large μ contracts instead of oscillating
            // through the momentum buffer.
            c.cfg.momentum = 0.0;
            let mut algo = FedProx::new(spec, mu);
            let _ = run(&mut algo, &c);
            algo.global.state.params.delta(&init).norm()
        };
        let free = drift(0.0);
        let pinned = drift(2.0);
        // The anchor itself advances every round, so the proximal term only
        // damps (not eliminates) cumulative drift.
        assert!(pinned < free * 0.8, "pinned {pinned} vs free {free}");
    }
}
