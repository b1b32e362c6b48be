//! The four frozen workloads: sizes, targets, and how each one's world,
//! algorithm and run options are built from `--seed`.
//!
//! Sizes and targets change only in a PR of kind `benchmark` (see
//! README.md). Run length is fixed by round count, never by time.

use kemf_core::distill::DistillConfig;
use kemf_core::fedkemf::{FedKemf, FedKemfConfig};
use kemf_core::resource::{assign_tiers, heterogeneous_specs, uniform_specs};
use kemf_data::partition::shard_partition;
use kemf_data::synth::{SynthConfig, SynthTask};
use kemf_fl::checkpoint::CheckpointPolicy;
use kemf_fl::client_store::SpillConfig;
use kemf_fl::config::FlConfig;
use kemf_fl::context::FlContext;
use kemf_fl::engine::{FedAlgorithm, RunOptions};
use kemf_fl::fedavg::FedAvg;
use kemf_fl::lifecycle::FaultConfig;
use kemf_fl::scheduler::AsyncConfig;
use kemf_fl::transport::SocketConfig;
use kemf_nn::models::{Arch, ModelSpec};
use kemf_tensor::rng::child_seed;
use kemf_tensor::Tensor;
use std::path::Path;

/// Untimed rounds at the head of every run (caches fill, pools warm).
pub const WARMUP_ROUNDS: usize = 2;
/// Timed rounds of every run.
pub const TIMED_ROUNDS: usize = 40;
/// Rounds of a `--smoke` run (warm-up, timed).
pub const SMOKE_ROUNDS: (usize, usize) = (2, 2);
/// Socket worker threads: the host has two cores.
pub const SOCKET_WORKERS: usize = 2;
/// Device-tier mix of the heterogeneous population. The hardware mix is a
/// workload size like the client count, so it does not follow `--seed`.
const TIER_SEED: u64 = 0x7153;

/// Which synthetic task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Task {
    /// CIFAR-like 3×16×16, 10 classes.
    Cifar,
    /// MNIST-like 1×12×12, 10 classes.
    Mnist,
}

impl Task {
    pub fn shape(self) -> (usize, usize) {
        match self {
            Task::Cifar => (3, 16),
            Task::Mnist => (1, 12),
        }
    }

    pub fn synth(self, seed: u64) -> SynthTask {
        SynthTask::new(match self {
            Task::Cifar => SynthConfig::cifar_like(seed),
            Task::Mnist => SynthConfig::mnist_like(seed),
        })
    }
}

/// Which algorithm a workload drives.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Algo {
    /// FedAvg on `arch` at `width` (`None` = the scaled default).
    FedAvg { arch: Arch, width: Option<usize> },
    /// FedKEMF, ResNet-20 knowledge network.
    FedKemf {
        /// Unlabeled server pool size.
        pool: usize,
        /// Server distillation epochs.
        distill_epochs: usize,
        /// ResNet-20/32/44 client tiers instead of uniform ResNet-20.
        hetero: bool,
        /// Spill client models to disk (`with_spill`).
        spill: bool,
    },
}

/// How rounds advance and traffic travels.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mode {
    Sync,
    /// Buffered-asynchronous cycles with simulated stragglers, plus a
    /// checkpoint every `checkpoint_every` cycles.
    Async {
        buffer: usize,
        checkpoint_every: usize,
    },
    /// Synchronous rounds over localhost sockets carrying the model.
    Socket,
}

/// One frozen workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub task: Task,
    pub algo: Algo,
    pub mode: Mode,
    pub clients: usize,
    pub per_round: usize,
    pub samples_per_client: usize,
    pub local_epochs: usize,
    /// Local learning rate.
    pub lr: f32,
    pub cohort_batch: Option<usize>,
    /// Label-sorted shards dealt to each client (McMahan's pathological
    /// split: about that many classes per client). Unlike a Dirichlet split
    /// it gives every client the same sample count, so the work of a round
    /// does not depend on the seed; see README.md.
    pub shards_per_client: usize,
    /// Test accuracy (3-round running mean) `time_to_target_s` waits for.
    pub target_acc: f32,
}

/// Local mini-batch size of every workload.
pub const BATCH: usize = 16;
/// Held-out test samples of every workload.
pub const TEST_SAMPLES: usize = 64;
/// Evaluation batch size of every workload.
pub const EVAL_BATCH: usize = 64;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "kemf_resnet20",
        why: "FedKEMF headline path: DML + ensemble + distillation in kemf-core, narrow conv GEMMs",
        task: Task::Cifar,
        algo: Algo::FedKemf { pool: 48, distill_epochs: 2, hetero: false, spill: false },
        mode: Mode::Sync,
        clients: 8,
        per_round: 4,
        samples_per_client: 24,
        local_epochs: 1,
        lr: 0.08,
        cohort_batch: None,
        shards_per_client: 2,
        target_acc: 0.30,
    },
    Workload {
        name: "avg_vgg11",
        why: "FedAvg baseline bypassing kemf-core: all local_update, wide-channel GEMMs",
        task: Task::Cifar,
        algo: Algo::FedAvg { arch: Arch::Vgg11, width: None },
        mode: Mode::Sync,
        clients: 8,
        per_round: 4,
        samples_per_client: 128,
        local_epochs: 2,
        lr: 0.08,
        cohort_batch: None,
        shards_per_client: 2,
        target_acc: 0.30,
    },
    Workload {
        name: "kemf_hetero_async",
        why: "same layers used differently: teacher-heavy fusion, spilled store, async scheduler, checkpoints",
        task: Task::Cifar,
        algo: Algo::FedKemf { pool: 32, distill_epochs: 1, hetero: true, spill: true },
        mode: Mode::Async { buffer: 4, checkpoint_every: 10 },
        clients: 24,
        per_round: 6,
        samples_per_client: 16,
        local_epochs: 1,
        // One step per client per wave: at the others' 0.08 two seeds in
        // fifty ended below the 0.2 accuracy floor.
        lr: 0.16,
        cohort_batch: Some(2),
        shards_per_client: 4,
        target_acc: 0.20,
    },
    Workload {
        name: "avg_mlp_socket",
        why: "tiny compute, 1.2 MB model over sockets: quantize, framing and CRC dominate the round",
        task: Task::Mnist,
        algo: Algo::FedAvg { arch: Arch::Mlp1, width: Some(2048) },
        mode: Mode::Socket,
        clients: 8,
        per_round: 4,
        samples_per_client: 32,
        local_epochs: 1,
        lr: 0.08,
        cohort_batch: None,
        shards_per_client: 2,
        target_acc: 0.70,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The generated inputs of one run: everything the library gets to see.
pub struct World {
    pub ctx: FlContext,
    pub task: SynthTask,
    /// Server pool (FedKEMF workloads).
    pub pool: Option<Tensor>,
}

impl Workload {
    /// Total training samples before partitioning.
    pub fn train_samples(&self) -> usize {
        self.clients * self.samples_per_client
    }

    pub fn fl_config(&self, seed: u64, rounds: usize) -> FlConfig {
        FlConfig {
            n_clients: self.clients,
            sample_ratio: self.per_round as f32 / self.clients as f32,
            rounds,
            local_epochs: self.local_epochs,
            batch_size: BATCH,
            // `alpha` and `min_per_client` stay at their defaults, unused:
            // the shards come from `shard_partition`.
            eval_batch: EVAL_BATCH,
            cohort_batch: self.cohort_batch,
            seed,
            lr: self.lr,
            ..FlConfig::default()
        }
    }

    /// Generate data, partition it, and build the federated context.
    pub fn world(&self, seed: u64, rounds: usize) -> World {
        let task = self.task.synth(child_seed(seed, 0xDA7A));
        let train = task.generate(self.train_samples(), 0);
        let test = task.generate(TEST_SAMPLES, 1);
        let pool = match self.algo {
            Algo::FedKemf { pool, .. } => Some(task.generate_unlabeled(pool, 2)),
            Algo::FedAvg { .. } => None,
        };
        let shards = shard_partition(
            &train.labels,
            self.clients,
            self.shards_per_client,
            child_seed(seed, 0x5041_5254),
        );
        let ctx = FlContext::with_shards(self.fl_config(seed, rounds), &train, &shards, test);
        World { ctx, task, pool }
    }

    /// The model whose state crosses the wire: the knowledge network for
    /// FedKEMF, the trained model itself for FedAvg.
    pub fn wire_spec(&self, seed: u64) -> ModelSpec {
        let (ch, hw) = self.task.shape();
        match self.algo {
            Algo::FedAvg { arch, width } => {
                let spec = ModelSpec::scaled(arch, ch, hw, 10, child_seed(seed, 0x90D));
                ModelSpec { width: width.unwrap_or(spec.width), ..spec }
            }
            Algo::FedKemf { .. } => {
                ModelSpec::scaled(Arch::ResNet20, ch, hw, 10, child_seed(seed, 0x6B0))
            }
        }
    }

    /// Per-client trained-model specs (all equal to the wire model for
    /// FedAvg).
    pub fn client_specs(&self, seed: u64) -> Vec<ModelSpec> {
        let (ch, hw) = self.task.shape();
        match self.algo {
            Algo::FedAvg { .. } => vec![self.wire_spec(seed); self.clients],
            Algo::FedKemf { hetero: false, .. } => {
                uniform_specs(Arch::ResNet20, self.clients, ch, hw, 10, child_seed(seed, 0xC7))
            }
            Algo::FedKemf { hetero: true, .. } => heterogeneous_specs(
                &assign_tiers(self.clients, TIER_SEED),
                ch,
                hw,
                10,
                child_seed(seed, 0xC7),
            ),
        }
    }

    pub fn distill_config(&self) -> Option<DistillConfig> {
        match self.algo {
            Algo::FedKemf { distill_epochs, .. } => {
                Some(DistillConfig { epochs: distill_epochs, ..DistillConfig::default() })
            }
            Algo::FedAvg { .. } => None,
        }
    }

    /// Build the algorithm. `work` is this run's private scratch
    /// directory (spill files live under it).
    pub fn algorithm(&self, world: &World, seed: u64, work: &Path) -> Box<dyn FedAlgorithm> {
        match self.algo {
            Algo::FedAvg { .. } => Box::new(FedAvg::new(self.wire_spec(seed))),
            Algo::FedKemf { spill, .. } => {
                let pool = world.pool.clone().expect("FedKEMF world carries a pool");
                let mut cfg =
                    FedKemfConfig::uniform(self.wire_spec(seed), self.client_specs(seed), pool);
                cfg.distill = self.distill_config().expect("FedKEMF workload distills");
                if spill {
                    cfg = cfg.with_spill(SpillConfig::new(work.join("spill")));
                }
                Box::new(FedKemf::new(cfg))
            }
        }
    }

    /// Buffered-asynchronous knobs of the workload, if it runs async.
    pub fn async_config(&self) -> Option<AsyncConfig> {
        match self.mode {
            Mode::Async { buffer, .. } => {
                Some(AsyncConfig::new(buffer).max_staleness(4).staleness_decay(0.7))
            }
            _ => None,
        }
    }

    pub fn socket_config(&self) -> Option<SocketConfig> {
        (self.mode == Mode::Socket).then(|| SocketConfig::threads(SOCKET_WORKERS))
    }

    /// Engine options: fault model, round mode, transport, checkpoints.
    /// Tracing is left to the caller.
    pub fn run_options(&self, work: &Path) -> RunOptions<'static> {
        let opts = RunOptions::new();
        match self.mode {
            Mode::Sync => opts,
            Mode::Async { checkpoint_every, .. } => opts
                // Simulated delays only: they reorder arrivals on the
                // scheduler's virtual clock, nothing sleeps.
                .faults(FaultConfig { straggler_prob: 0.5, ..FaultConfig::default() })
                .async_rounds(self.async_config().expect("async mode"))
                .checkpoint(CheckpointPolicy::new(work.join("ckpt"), checkpoint_every)),
            Mode::Socket => opts.socket_transport(self.socket_config().expect("socket mode")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_findable() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name).unwrap().name, w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let w = find("avg_mlp_socket").unwrap();
        let a = w.world(3, 4);
        let b = w.world(3, 4);
        let c = w.world(4, 4);
        assert_eq!(a.ctx.test.images.data(), b.ctx.test.images.data());
        assert_eq!(a.ctx.client_shard(0).labels, b.ctx.client_shard(0).labels);
        assert_ne!(a.ctx.test.images.data(), c.ctx.test.images.data());
        assert_eq!(a.ctx.cfg.sampled_per_round(), w.per_round);
    }

    #[test]
    fn hetero_population_mixes_all_three_tiers() {
        let w = find("kemf_hetero_async").unwrap();
        let specs = w.client_specs(1);
        assert_eq!(specs.len(), w.clients);
        for arch in [Arch::ResNet20, Arch::ResNet32, Arch::ResNet44] {
            assert!(specs.iter().any(|s| s.arch == arch), "{arch:?} missing");
        }
        // The tier mix is a frozen size; only initial weights follow the seed.
        let other = w.client_specs(2);
        assert!(specs.iter().zip(&other).all(|(a, b)| a.arch == b.arch && a.seed != b.seed));
    }
}
