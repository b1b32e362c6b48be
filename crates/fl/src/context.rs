//! [`FlContext`]: the immutable world a federated run executes in —
//! client data shards, test set, and configuration.
//!
//! Shards come from one of two sources. [`FlContext::new`] /
//! [`FlContext::with_shards`] pre-materialize every client's dataset
//! (the classic layout, right for worlds small enough to hold). For
//! population-scale simulation, [`FlContext::synthetic`] keeps no
//! per-client data at all: each client's shard is generated on demand
//! from its own deterministic stream when [`FlContext::client_shard`]
//! is called, so resident data is O(cohort), not O(population).

use crate::config::FlConfig;
use kemf_data::dataset::Dataset;
use kemf_data::dirichlet::dirichlet_partition;
use kemf_data::stats::heterogeneity;
use kemf_data::synth::SynthTask;
use kemf_tensor::rng::child_seed;
use std::ops::Deref;

/// Stream offset for on-demand client shards, clear of the small
/// hand-picked stream ids the tests and examples draw from.
const SHARD_STREAM_BASE: u64 = 1 << 32;

/// Where client training shards come from.
enum ShardSource {
    /// One pre-built dataset per client.
    Materialized(Vec<Dataset>),
    /// Generate client `k`'s shard on demand from stream
    /// `SHARD_STREAM_BASE + k`.
    Synthetic {
        task: SynthTask,
        per_client: usize,
    },
}

/// A client's training shard: borrowed from a materialized partition,
/// or generated on demand and owned by the caller for the duration of
/// the client's local update.
pub enum ClientShard<'a> {
    /// View into a pre-materialized shard.
    Borrowed(&'a Dataset),
    /// Freshly generated shard (dropped when the client finishes).
    Owned(Dataset),
}

impl Deref for ClientShard<'_> {
    type Target = Dataset;
    fn deref(&self) -> &Dataset {
        match self {
            ClientShard::Borrowed(d) => d,
            ClientShard::Owned(d) => d,
        }
    }
}

/// Shared, read-only state of one federated experiment.
pub struct FlContext {
    /// Run configuration.
    pub cfg: FlConfig,
    /// Per-client training data source.
    shards: ShardSource,
    /// Global held-out test set.
    pub test: Dataset,
    /// Measured heterogeneity of the partition (mean TV distance);
    /// `0.0` for synthetic on-demand shards (each client draws from the
    /// same generator, so the partition is IID by construction).
    pub heterogeneity: f64,
}

impl FlContext {
    /// Partition `train` across `cfg.n_clients` clients with the
    /// configured Dirichlet α and materialize per-client datasets.
    pub fn new(cfg: FlConfig, train: &Dataset, test: Dataset) -> Self {
        // Construction has no error channel; the engine re-validates and
        // returns the typed error for callers that need to recover.
        if let Err(e) = cfg.validate() {
            panic!("invalid FlConfig: {e}");
        }
        let shards = dirichlet_partition(
            &train.labels,
            train.classes,
            cfg.n_clients,
            cfg.alpha,
            cfg.min_per_client,
            child_seed(cfg.seed, 0x5041_5254), // "PART"
        );
        let het = heterogeneity(&train.labels, train.classes, &shards);
        let client_data = shards.iter().map(|s| train.subset(s)).collect();
        FlContext { cfg, shards: ShardSource::Materialized(client_data), test, heterogeneity: het }
    }

    /// Build with an explicit, pre-computed partition (used by multi-model
    /// experiments that also assign per-client local test sets).
    pub fn with_shards(cfg: FlConfig, train: &Dataset, shards: &[Vec<usize>], test: Dataset) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid FlConfig: {e}");
        }
        assert_eq!(shards.len(), cfg.n_clients, "shard count must equal client count");
        let het = heterogeneity(&train.labels, train.classes, shards);
        let client_data = shards.iter().map(|s| train.subset(s)).collect();
        FlContext { cfg, shards: ShardSource::Materialized(client_data), test, heterogeneity: het }
    }

    /// Population-scale world with no materialized shards: client `k`'s
    /// `per_client`-sample training set is generated on demand from its
    /// own deterministic stream every time `k` is fetched. Memory is
    /// O(cohort) regardless of `cfg.n_clients`.
    pub fn synthetic(cfg: FlConfig, task: SynthTask, per_client: usize, test: Dataset) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid FlConfig: {e}");
        }
        assert!(per_client > 0, "per_client must be at least 1");
        FlContext {
            cfg,
            shards: ShardSource::Synthetic { task, per_client },
            test,
            heterogeneity: 0.0,
        }
    }

    /// Client `k`'s training shard: a borrow of the materialized
    /// dataset, or a freshly generated one the caller owns for the
    /// duration of the client's local update.
    pub fn client_shard(&self, k: usize) -> ClientShard<'_> {
        match &self.shards {
            ShardSource::Materialized(data) => ClientShard::Borrowed(&data[k]),
            ShardSource::Synthetic { task, per_client } => {
                ClientShard::Owned(task.generate(*per_client, SHARD_STREAM_BASE + k as u64))
            }
        }
    }

    /// Client `k`'s training sample count, without materializing the
    /// shard.
    pub fn client_shard_len(&self, k: usize) -> usize {
        match &self.shards {
            ShardSource::Materialized(data) => data[k].len(),
            ShardSource::Synthetic { per_client, .. } => *per_client,
        }
    }

    /// Total training samples across clients.
    pub fn total_train_samples(&self) -> usize {
        match &self.shards {
            ShardSource::Materialized(data) => data.iter().map(Dataset::len).sum(),
            ShardSource::Synthetic { per_client, .. } => self.cfg.n_clients * per_client,
        }
    }

    /// Number of classes in the task.
    pub fn classes(&self) -> usize {
        self.test.classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kemf_data::synth::SynthConfig;

    #[test]
    fn synthetic_shards_are_lazy_deterministic_and_per_client() {
        let task = SynthTask::new(SynthConfig::mnist_like(7));
        let test = task.generate(20, 1);
        let cfg = FlConfig { n_clients: 1_000_000, sample_ratio: 0.01, ..Default::default() };
        let ctx = FlContext::synthetic(cfg, SynthTask::new(SynthConfig::mnist_like(7)), 16, test);
        assert_eq!(ctx.client_shard_len(999_999), 16);
        assert_eq!(ctx.total_train_samples(), 16_000_000);
        let a = ctx.client_shard(3);
        let b = ctx.client_shard(3);
        assert_eq!(a.labels, b.labels, "same client, same shard");
        assert_eq!(a.len(), 16);
        let c = ctx.client_shard(4);
        assert_ne!(
            (a.images.data(), &a.labels),
            (c.images.data(), &c.labels),
            "different clients draw from different streams"
        );
    }
}
