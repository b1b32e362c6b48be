//! [`ClientModels`]: the persistent population of per-client local
//! models that FedKEMF, FedMD and FedGEMS all keep — every client owns a
//! model of its own architecture that is trained on-device and never
//! crosses the wire.
//!
//! This is the only code that knows how that population is stored and
//! checkpointed: the client-store blob entry (`"model"`), the
//! memory-vs-sharded choice, the checkpoint sections (`local.0 ..
//! local.n-1` embedded for a memory store, the population marker alone
//! for a sharded one, whose models already live in the spill directory),
//! and the restore that validates every section before it overwrites
//! anything. An algorithm holds one `ClientModels`, fetches a client's
//! model when it is sampled, and ships the retrained model back as the
//! update's deferred commit.

use kemf_data::dataset::Dataset;
use kemf_fl::client_store::{ClientBlob, ClientStateStore, SpillConfig, StoreError};
use kemf_fl::config::ConfigError;
use kemf_fl::context::FlContext;
use kemf_fl::engine::EngineError;
use kemf_fl::scheduler::PreparedUpdate;
use kemf_fl::state::{check_model_layout, AlgorithmState, RestoreError};
use kemf_nn::model::Model;
use kemf_nn::models::ModelSpec;
use kemf_nn::serialize::ModelState;
use kemf_tensor::Tensor;

/// Name of the local model inside a client's stored blob.
const MODEL_ENTRY: &str = "model";

/// Checkpoint section holding client `k`'s model (memory stores only).
fn section(k: usize) -> String {
    format!("local.{k}")
}

/// Mean of per-client accuracies (0 for an empty population).
pub(crate) fn mean_accuracy(per_client: &[f32]) -> f32 {
    per_client.iter().sum::<f32>() / per_client.len().max(1) as f32
}

/// Per-client local models behind a [`ClientStateStore`].
pub struct ClientModels {
    specs: Vec<ModelSpec>,
    spill: Option<SpillConfig>,
    store: ClientStateStore,
}

impl ClientModels {
    /// A population with one architecture per client, resident in memory
    /// or — with `spill` — written through to disk so that only the
    /// sampled cohort is ever resident. Unusable until [`init`](Self::init).
    pub fn new(specs: Vec<ModelSpec>, spill: Option<SpillConfig>) -> Self {
        ClientModels { specs, spill, store: ClientStateStore::in_memory(0) }
    }

    /// Spill the population to `spill.dir` (takes effect at `init`).
    pub fn set_spill(&mut self, spill: SpillConfig) {
        self.spill = Some(spill);
    }

    /// The per-client architectures.
    pub fn specs(&self) -> &[ModelSpec] {
        &self.specs
    }

    /// Population size (0 until [`init`](Self::init)).
    pub fn n_clients(&self) -> usize {
        self.store.n_clients()
    }

    /// Build the store for `ctx`'s population. Memory mode deploys every
    /// client's seeded initial model now; sharded mode materializes one
    /// lazily the first time its client is fetched.
    pub fn init(&mut self, algorithm: &str, ctx: &FlContext) -> Result<(), ConfigError> {
        let n = ctx.cfg.n_clients;
        let setup = |reason: String| ConfigError::AlgorithmSetup { algorithm: algorithm.into(), reason };
        if self.specs.len() != n {
            return Err(setup(format!(
                "need one client spec per client: {} specs for {n} clients",
                self.specs.len()
            )));
        }
        self.store = match &self.spill {
            Some(spill) => ClientStateStore::sharded(n, spill.clone())
                .map_err(|e| setup(format!("opening spill store: {e}")))?,
            None => {
                let mut store = ClientStateStore::in_memory(n);
                store.seed_all(|k| Self::fresh(self.specs[k]));
                store
            }
        };
        Ok(())
    }

    /// Enter `round` (see [`ClientStateStore::begin_round`]).
    pub fn begin_round(&mut self, round: usize) {
        self.store.begin_round(round);
    }

    /// A never-sampled client's deployed model: built from its spec,
    /// whose seed makes it deterministic.
    fn fresh(spec: ModelSpec) -> ClientBlob {
        Self::blob(&Model::new(spec))
    }

    /// The blob an update carries as its deferred commit of `model`.
    pub fn blob(model: &Model) -> ClientBlob {
        ClientBlob::new().with_model(MODEL_ENTRY, model.state())
    }

    /// Rebuild client `k`'s model from a stored blob, with the layout
    /// validated against the client's spec as a typed error — a blob
    /// from the wrong population must not panic the training process.
    fn model_of(&self, k: usize, blob: ClientBlob) -> Result<Model, StoreError> {
        let stored = Self::state_of(k, blob)?;
        Model::from_state(self.specs[k], &stored).map_err(|e| {
            let e = RestoreError::ShapeMismatch { name: MODEL_ENTRY.to_string(), detail: e.to_string() };
            StoreError::Corrupt { client: k, detail: e.to_string() }
        })
    }

    fn state_of(k: usize, blob: ClientBlob) -> Result<ModelState, StoreError> {
        let entry = blob.models.into_iter().find(|(name, _)| name == MODEL_ENTRY);
        entry.map(|(_, state)| state).ok_or_else(|| StoreError::Corrupt {
            client: k,
            detail: format!("missing local-model entry `{MODEL_ENTRY}`"),
        })
    }

    /// The model client `k` starts the current round from.
    pub fn fetch(&mut self, k: usize) -> Result<Model, EngineError> {
        let spec = self.specs[k];
        let blob = self.store.fetch(k, |_| Self::fresh(spec))?;
        Ok(self.model_of(k, blob)?)
    }

    /// Client `k`'s model as of the current round (evaluation, export).
    pub fn read(&self, k: usize) -> Result<Model, StoreError> {
        let blob = self.store.read(k, |_| Self::fresh(self.specs[k]))?;
        self.model_of(k, blob)
    }

    /// Apply an update's deferred commit, if it carries one.
    pub fn commit(&mut self, k: usize, blob: Option<ClientBlob>) -> Result<(), StoreError> {
        blob.map_or(Ok(()), |blob| self.store.commit(k, blob))
    }

    /// Accuracy of every client's stored model on its own test set
    /// (`tests` yields one per client, in client order). Clients never
    /// sampled evaluate at their initial weights. A count mismatch or an
    /// unreadable stored model is a typed error.
    pub fn evaluate_per_client<'a>(
        &self,
        algorithm: &str,
        tests: impl ExactSizeIterator<Item = &'a Dataset>,
        eval_batch: usize,
    ) -> Result<Vec<f32>, EngineError> {
        let n = self.n_clients();
        if tests.len() != n {
            return Err(EngineError::Config(ConfigError::AlgorithmSetup {
                algorithm: algorithm.into(),
                reason: format!(
                    "need one test set per client: {} sets for {n} clients",
                    tests.len()
                ),
            }));
        }
        tests
            .enumerate()
            .map(|(k, t)| Ok(self.read(k)?.evaluate(&t.images, &t.labels, eval_batch)))
            .collect()
    }

    /// The front half of a logit-fusing `fuse` (FedMD, FedGEMS). Per
    /// update, in order: unwrap the logit payload, check it against the
    /// public set's `[pool, classes]`, apply the deferred local-model
    /// commit (the update folds in, so the device keeps its training),
    /// and pair the logits with `coeff(staleness_weight, n_samples)`.
    /// Returns the members and the mean client loss.
    pub fn unpack_logits(
        &mut self,
        algorithm: &str,
        dims: [usize; 2],
        updates: Vec<(PreparedUpdate, f32)>,
        coeff: impl Fn(f32, usize) -> f32,
    ) -> Result<(Vec<(Tensor, f32)>, f32), EngineError> {
        let mut members = Vec::with_capacity(updates.len());
        let mut loss_sum = 0.0f32;
        for (u, w) in updates {
            let blob = u.payload.into_logits(algorithm, u.client)?;
            if blob.dims != dims {
                return Err(EngineError::Config(ConfigError::AlgorithmSetup {
                    algorithm: algorithm.into(),
                    reason: format!(
                        "client {}: logit payload is {:?}, public set needs {dims:?}",
                        u.client, blob.dims
                    ),
                }));
            }
            self.commit(u.client, u.commit)?;
            members.push((Tensor::from_vec(blob.values, &dims), coeff(w, u.n_samples)));
            loss_sum += u.loss;
        }
        let mean_loss = loss_sum / members.len() as f32;
        Ok((members, mean_loss))
    }

    /// Append the population to a checkpoint, after the algorithm's own
    /// sections. The local models never leave their devices in the
    /// protocol, but a checkpoint is the device: dropping them would
    /// silently reset every client on resume. A memory store embeds them
    /// as `local.0 .. local.n-1`; a sharded store's models already live
    /// in the spill directory, so only its population marker is written.
    pub fn push_state(&self, state: &mut AlgorithmState) -> Result<(), EngineError> {
        self.store.push_population_marker(state);
        if !self.store.is_sharded() {
            for k in 0..self.store.n_clients() {
                let blob = self.store.read(k, |_| Self::fresh(self.specs[k]))?;
                state.push_model(section(k), Self::state_of(k, blob)?);
            }
        }
        Ok(())
    }

    /// Re-absorb what [`push_state`](Self::push_state) wrote. Every
    /// section is checked against its client's layout before the first
    /// model is overwritten, so a refused checkpoint leaves the whole
    /// population untouched; call it after the algorithm's own checks
    /// and before the algorithm assigns any of its own fields.
    pub fn restore_state(&mut self, state: &AlgorithmState) -> Result<(), RestoreError> {
        self.store.check_population_marker(state)?;
        if self.store.is_sharded() {
            return Ok(());
        }
        let n = self.store.n_clients();
        for k in 0..n {
            let name = section(k);
            check_model_layout(&name, state.model(&name)?, &Model::new(self.specs[k]).state())?;
        }
        for k in 0..n {
            let incoming = state.model(&section(k))?.clone();
            self.store
                .commit(k, ClientBlob::new().with_model(MODEL_ENTRY, incoming))
                .map_err(|e| RestoreError::Store { detail: e.to_string() })?;
        }
        Ok(())
    }
}
