//! SCAFFOLD (Karimireddy et al. 2020): stochastic controlled averaging.
//! The server keeps a control variate `c` and every client a local `c_k`;
//! each local SGD step is corrected with `(c − c_k)`, cancelling client
//! drift. After local training the client refreshes its variate with
//! option II of the paper:
//!
//! `c_k⁺ = c_k − c + (w_global − w_k) / (K·η)`
//!
//! and the server updates `w ← mean(w_k)` and
//! `c ← c + (|S|/N) · mean(c_k⁺ − c_k)`.
//!
//! Control variates double the per-round payload in both directions, which
//! the paper's cost tables account as 2× FedAvg.

use crate::client_store::{ClientBlob, ClientStateStore, SpillConfig, StoreError};
use crate::cohort;
use crate::config::ConfigError;
use crate::context::FlContext;
use crate::engine::{EngineError, FedAlgorithm, RoundOutcome};
use crate::lifecycle::{ClientPlan, ModelView, WirePayload};
use crate::local::add_flat_to_grads;
use crate::scheduler::{PreparedUpdate, UpdatePayload};
use crate::state::{check_model_layout, check_tensor_dims, AlgorithmState, RestoreError};
use crate::trace::{Phase, RoundScope};
use crate::weight_common::{train_from_global, GlobalModel};
use kemf_nn::codec::Writer;
use kemf_nn::layer::Layer;
use kemf_nn::models::ModelSpec;
use kemf_nn::serialize::StateAverage;

/// The SCAFFOLD baseline.
pub struct Scaffold {
    global: GlobalModel,
    /// Server control variate (flat, parameter layout).
    c: Vec<f32>,
    /// Per-client control variates, fetched and committed through the
    /// client-state store (resident for memory mode, spilled to disk for
    /// population-scale cohorts).
    store: ClientStateStore,
    spill: Option<SpillConfig>,
}

/// A fresh client's control variate: all zeros, as the paper initializes.
fn zero_variate(dim: usize) -> ClientBlob {
    ClientBlob::new().with_tensor("c", vec![dim], vec![0.0; dim])
}

/// Pull the flat variate out of a stored blob, validating its length.
fn variate_from_blob(blob: &ClientBlob, k: usize, dim: usize) -> Result<Vec<f32>, StoreError> {
    let t = blob
        .tensor("c")
        .ok_or_else(|| StoreError::Corrupt {
            client: k,
            detail: "missing control-variate tensor `c`".into(),
        })?;
    check_tensor_dims("c", t, &[dim])
        .map_err(|e| StoreError::Corrupt { client: k, detail: e.to_string() })?;
    Ok(t.values.clone())
}

impl Scaffold {
    /// New SCAFFOLD server.
    pub fn new(spec: ModelSpec) -> Self {
        let global = GlobalModel::new(spec);
        let dim = global.state.params.numel();
        Scaffold { global, c: vec![0.0; dim], store: ClientStateStore::in_memory(0), spill: None }
    }

    /// Spill per-client control variates to `spill.dir` instead of
    /// holding `n_clients` of them resident.
    pub fn with_spill(mut self, spill: SpillConfig) -> Self {
        self.spill = Some(spill);
        self
    }
}

impl FedAlgorithm for Scaffold {
    fn name(&self) -> String {
        "SCAFFOLD".into()
    }

    fn identity(&self, w: &mut Writer) {
        w.string(&self.name());
        w.spec(&self.global.spec);
    }

    fn init(&mut self, ctx: &FlContext) -> Result<(), ConfigError> {
        let dim = self.global.state.params.numel();
        self.store = match &self.spill {
            Some(spill) => ClientStateStore::sharded(ctx.cfg.n_clients, spill.clone())
                .map_err(|e| ConfigError::AlgorithmSetup {
                    algorithm: self.name(),
                    reason: format!("opening spill store: {e}"),
                })?,
            None => {
                let mut store = ClientStateStore::in_memory(ctx.cfg.n_clients);
                store.seed_all(|_| zero_variate(dim));
                store
            }
        };
        Ok(())
    }

    fn client_plans(&self, _round: usize, sampled: &[usize]) -> Vec<ClientPlan> {
        // Weights + control variate both ways → ≈2× payload.
        let payload = WirePayload::symmetric(self.global.payload_bytes() + (self.c.len() * 4) as u64);
        ClientPlan::uniform(sampled, ModelView::Full, payload)
    }

    fn train_cohort(
        &mut self,
        wave: usize,
        sampled: &[usize],
        ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<Vec<PreparedUpdate>, EngineError> {
        self.store.begin_round(wave);
        // SCAFFOLD's control-variate refresh divides by K·η assuming plain
        // local SGD; momentum would inflate the effective step by
        // 1/(1−ρ) and blow the variates up, so it is disabled locally
        // (standard practice for SCAFFOLD implementations).
        let mut local = ctx.cfg.local_cfg();
        local.sgd.momentum = 0.0;
        let eta = local.sgd.lr;
        let dim = self.c.len();
        let (global, spec, c) = (&self.global.state, self.global.spec, &self.c);
        let store = &mut self.store;
        cohort::train_cohort(
            sampled,
            ctx,
            scope,
            |k| {
                let blob = store.fetch(k, |_| zero_variate(dim))?;
                Ok(variate_from_blob(&blob, k, dim)?)
            },
            |k, ck: Vec<f32>| {
                // Drift correction (c − c_k) on every local step.
                let correction: Vec<f32> = c.iter().zip(&ck).map(|(&c, &ck)| c - ck).collect();
                let hook = |net: &mut dyn Layer| add_flat_to_grads(net, &correction, 1.0);
                let (state, outcome) =
                    train_from_global(global, spec, wave, k, ctx, &local, Some(&hook));
                // The variate refresh is client-side work: it happens at
                // dispatch time against the global weights and server
                // variate the client was handed, but the store commit is
                // deferred into the update so an evicted (or quorum-
                // aborted) client keeps its previous variate.
                let inv = 1.0 / (outcome.steps.max(1) as f32 * eta);
                let (g, w) = (&global.params.values, &state.params.values);
                let mut ck_new = vec![0.0f32; dim];
                let mut aux = vec![0.0f32; dim];
                for j in 0..dim {
                    ck_new[j] = ck[j] - c[j] + (g[j] - w[j]) * inv;
                    aux[j] = ck_new[j] - ck[j];
                }
                let payload = UpdatePayload::StateAux { state, aux };
                PreparedUpdate::new(k, ctx, outcome.steps, outcome.mean_loss, payload)
                    .with_commit(ClientBlob::new().with_tensor("c", vec![dim], ck_new))
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
        self.store.begin_round(round);
        if updates.is_empty() {
            return Ok(RoundOutcome { train_loss: f32::NAN });
        }
        let dim = self.c.len();
        let reported = updates.len();
        let total: f32 = updates.iter().map(|(_, w)| *w).sum();
        scope.phase(Phase::Fusion, |ctr| {
            ctr.clients = reported;
            // Uniform mean of client states (SCAFFOLD aggregates with
            // global learning rate 1), discounted by staleness only.
            let mut avg = StateAverage::new(&self.global.state, total);
            let mut delta_c_mean = vec![0.0f32; dim];
            let mut loss_sum = 0.0f32;
            for (u, w) in updates {
                let (state, aux) = u.payload.into_state_aux("SCAFFOLD", u.client)?;
                if aux.len() != dim {
                    return Err(EngineError::Config(ConfigError::AlgorithmSetup {
                        algorithm: self.name(),
                        reason: format!(
                            "client {}: variate delta has {} values, model has {dim}",
                            u.client,
                            aux.len()
                        ),
                    }));
                }
                for (d, &a) in delta_c_mean.iter_mut().zip(aux.iter()) {
                    *d += (w * a) / total;
                }
                avg.add(&state, w);
                loss_sum += u.loss;
                if let Some(blob) = u.commit {
                    self.store.commit(u.client, blob)?;
                }
            }
            let frac = reported as f32 / ctx.cfg.n_clients as f32;
            for (c, &d) in self.c.iter_mut().zip(delta_c_mean.iter()) {
                *c += frac * d;
            }
            self.global.state = avg.finish();
            Ok(RoundOutcome { train_loss: loss_sum / reported as f32 })
        })
    }

    fn evaluate(&mut self, ctx: &FlContext) -> f32 {
        self.global.evaluate(ctx)
    }

    fn state(&self) -> Result<AlgorithmState, EngineError> {
        let n = self.store.n_clients();
        let dim = self.c.len();
        let mut s = AlgorithmState::new(self.name(), 1)
            .with_model("global", self.global.state.clone())
            .with_tensor("c", vec![dim], self.c.clone());
        self.store.push_population_marker(&mut s);
        if !self.store.is_sharded() {
            let mut flat = Vec::with_capacity(n * dim);
            for k in 0..n {
                let blob = self.store.read(k, |_| zero_variate(dim))?;
                flat.extend_from_slice(&variate_from_blob(&blob, k, dim)?);
            }
            s.push_tensor("c_clients", vec![n, dim], flat);
        }
        Ok(s)
    }

    fn restore(&mut self, state: &AlgorithmState) -> Result<(), RestoreError> {
        state.expect_header(&self.name(), 1)?;
        let incoming = state.model("global")?;
        check_model_layout("global", incoming, &self.global.state)?;
        let dim = self.c.len();
        let c = state.tensor("c")?;
        check_tensor_dims("c", c, &[dim])?;
        // init() has already built the store for this context, so the
        // client count is known and enforceable here.
        let n = self.store.n_clients();
        self.store.restore(state)?;
        if !self.store.is_sharded() {
            let cc = state.tensor("c_clients")?;
            check_tensor_dims("c_clients", cc, &[n, dim])?;
            for k in 0..n {
                let ck = cc.values[k * dim..(k + 1) * dim].to_vec();
                self.store
                    .commit(k, ClientBlob::new().with_tensor("c", vec![dim], ck))
                    .map_err(|e| RestoreError::Store { detail: e.to_string() })?;
            }
        }
        self.global.state = incoming.clone();
        self.c = c.values.clone();
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
            alpha: 0.3,
            min_per_client: 10,
            seed,
            ..Default::default()
        };
        FlContext::new(cfg, &train, test)
    }

    #[test]
    fn scaffold_learns_above_chance() {
        let c = ctx(41);
        let mut algo = Scaffold::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0));
        let h = run(&mut algo, &c);
        assert!(h.best_accuracy() > 0.25, "got {}", h.best_accuracy());
    }

    #[test]
    fn control_variates_become_nonzero() {
        let c = ctx(42);
        let mut algo = Scaffold::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0));
        let _ = run(&mut algo, &c);
        let norm: f32 = algo.c.iter().map(|&v| v * v).sum::<f32>().sqrt();
        assert!(norm > 1e-4, "server control variate stayed zero");
        let dim = algo.c.len();
        let any_nonzero = (0..algo.store.n_clients()).any(|k| {
            let blob = algo.store.read(k, |_| zero_variate(dim)).unwrap();
            blob.tensor("c").unwrap().values.iter().any(|&v| v != 0.0)
        });
        assert!(any_nonzero, "no client variate ever moved");
    }

    #[test]
    fn scaffold_payload_includes_control_state() {
        let c = ctx(43);
        let mut algo = Scaffold::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0));
        let model_bytes = algo.global.payload_bytes();
        let control_bytes = (algo.c.len() * 4) as u64;
        let h = run(&mut algo, &c);
        assert_eq!(h.total_bytes(), 6 * 4 * 2 * (model_bytes + control_bytes));
        // Control variates are roughly the model size → ≈2× FedAvg payload.
        assert!(control_bytes * 10 > model_bytes * 9, "control ≈ model size");
    }

    #[test]
    fn variates_stay_zero_when_clients_identical_and_full_participation() {
        // With IID-ish data and identical steps, corrections stay small and
        // training still works — smoke test for stability of the update.
        let c = ctx(44);
        let mut algo = Scaffold::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0));
        let h = run(&mut algo, &c);
        assert!(h.accuracies().iter().all(|a| a.is_finite()));
    }
}
