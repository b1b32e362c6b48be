//! Experiment setup shared by every table/figure harness: workload
//! construction, algorithm instantiation, and the paper-scale
//! communication cost model.

use crate::Args;
use kemf_core::prelude::*;
use kemf_data::prelude::*;
use kemf_fl::prelude::*;
use kemf_nn::prelude::*;
use kemf_tensor::rng::child_seed;
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::Mutex;

/// Which synthetic task an experiment runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Workload {
    /// CIFAR-10-like (3×16×16, 10 classes).
    CifarLike,
    /// MNIST-like (1×12×12, 10 classes).
    MnistLike,
}

impl Workload {
    /// The task generator (seeded).
    pub fn task(self, seed: u64) -> SynthTask {
        match self {
            Workload::CifarLike => SynthTask::new(SynthConfig::cifar_like(seed)),
            Workload::MnistLike => SynthTask::new(SynthConfig::mnist_like(seed)),
        }
    }

    /// (channels, resolution) of the task.
    pub fn shape(self) -> (usize, usize) {
        match self {
            Workload::CifarLike => (3, 16),
            Workload::MnistLike => (1, 12),
        }
    }

    /// The paper's knowledge-network architecture for this task:
    /// ResNet-20 for CIFAR, a second 2-layer CNN for MNIST.
    pub fn knowledge_arch(self) -> Arch {
        match self {
            Workload::CifarLike => Arch::ResNet20,
            Workload::MnistLike => Arch::Cnn2,
        }
    }
}

/// One experiment's shape: everything a harness varies.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Task.
    pub workload: Workload,
    /// Client-side architecture (ignored for FedKEMF multi-model runs).
    pub arch: Arch,
    /// Number of clients.
    pub clients: usize,
    /// Per-round sample ratio.
    pub sample_ratio: f32,
    /// Communication rounds.
    pub rounds: usize,
    /// Training samples per client (average).
    pub samples_per_client: usize,
    /// Dirichlet α.
    pub alpha: f64,
    /// Experiment seed.
    pub seed: u64,
}

impl ExperimentSpec {
    /// Quick defaults (the whole evaluation finishes in minutes on two
    /// cores); the CLI overrides each field.
    pub fn quick(workload: Workload, arch: Arch) -> Self {
        ExperimentSpec {
            workload,
            arch,
            clients: 8,
            sample_ratio: 0.5,
            rounds: 15,
            samples_per_client: 80,
            alpha: 0.1,
            seed: 42,
        }
    }

    /// Test-set size (¼ of the training set, at least 200).
    pub fn test_samples(&self) -> usize {
        (self.clients * self.samples_per_client / 4).max(200)
    }

    /// Server public-pool size for distillation.
    pub fn pool_samples(&self) -> usize {
        (self.clients * self.samples_per_client / 3).clamp(100, 400)
    }

    /// Build the federated context (data generated + partitioned).
    pub fn build_ctx(&self) -> (FlContext, SynthTask) {
        let task = self.workload.task(child_seed(self.seed, 0xDA7A));
        let train = task.generate(self.clients * self.samples_per_client, 0);
        let test = task.generate(self.test_samples(), 1);
        let cfg = FlConfig {
            n_clients: self.clients,
            sample_ratio: self.sample_ratio,
            rounds: self.rounds,
            local_epochs: 2,
            batch_size: 16,
            lr: 0.08,
            momentum: 0.9,
            weight_decay: 1e-4,
            lr_schedule: LrSchedule::Constant,
            alpha: self.alpha,
            min_per_client: (self.samples_per_client / 5).max(4),
            eval_batch: 64,
            dropout_prob: 0.0,
            faults: FaultConfig::default(),
            cohort_batch: None,
            seed: self.seed,
        };
        (FlContext::new(cfg, &train, test), task)
    }
}

/// The five algorithms of the paper's comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlgoKind {
    /// FedAvg baseline.
    FedAvg,
    /// FedProx baseline (μ = 0.01).
    FedProx,
    /// FedNova baseline.
    FedNova,
    /// SCAFFOLD baseline.
    Scaffold,
    /// FedKEMF (the paper's method).
    FedKemf,
}

/// All five, in the paper's presentation order.
pub const ALL_ALGOS: [AlgoKind; 5] =
    [AlgoKind::FedAvg, AlgoKind::FedNova, AlgoKind::FedProx, AlgoKind::Scaffold, AlgoKind::FedKemf];

impl AlgoKind {
    /// Display name matching the paper.
    pub fn display(self) -> &'static str {
        match self {
            AlgoKind::FedAvg => "FedAvg",
            AlgoKind::FedProx => "FedProx",
            AlgoKind::FedNova => "FedNova",
            AlgoKind::Scaffold => "SCAFFOLD",
            AlgoKind::FedKemf => "FedKEMF",
        }
    }

    /// Auxiliary-payload multiplier of the paper's cost accounting.
    pub fn aux_multiplier(self) -> u64 {
        match self {
            AlgoKind::FedNova | AlgoKind::Scaffold => 2,
            _ => 1,
        }
    }

    /// Instantiate the algorithm for an experiment. For FedKEMF the
    /// transmitted model is the knowledge network; for baselines it is
    /// `spec.arch` itself.
    pub fn build(self, spec: &ExperimentSpec, task: &SynthTask) -> Box<dyn FedAlgorithm> {
        let (ch, hw) = spec.workload.shape();
        let model = ModelSpec::scaled(spec.arch, ch, hw, 10, child_seed(spec.seed, 0x90D));
        match self {
            AlgoKind::FedAvg => Box::new(FedAvg::new(model)),
            AlgoKind::FedProx => Box::new(FedProx::new(model, 0.01)),
            AlgoKind::FedNova => Box::new(FedNova::new(model)),
            AlgoKind::Scaffold => Box::new(Scaffold::new(model)),
            AlgoKind::FedKemf => Box::new(FedKemf::new(fedkemf_config(spec, task, |_| {}))),
        }
    }

    /// Paper-scale cost model for this algorithm on an experiment: the
    /// per-direction payload is the **full-scale** model's bytes, so cost
    /// ratios match the paper's tables even though training runs scaled
    /// models (see DESIGN.md "Substitutions").
    pub fn cost_model(self, spec: &ExperimentSpec) -> CostModel {
        // FedKEMF ships the knowledge network whatever the clients train.
        let wire_arch = match self {
            AlgoKind::FedKemf => spec.workload.knowledge_arch(),
            _ => spec.arch,
        };
        CostModel::symmetric(full_scale_bytes(wire_arch), self.aux_multiplier())
    }
}

/// Bytes of the paper-scale (full-width) variant of an architecture,
/// computed at most once each (construction costs ~100 ms for VGG-11).
pub fn full_scale_bytes(arch: Arch) -> u64 {
    static CACHE: Mutex<Vec<(Arch, u64)>> = Mutex::new(Vec::new());
    let mut cache = CACHE.lock().expect("cache poisoned");
    if let Some(&(_, bytes)) = cache.iter().find(|(a, _)| *a == arch) {
        return bytes;
    }
    let bytes = Model::new(ModelSpec::paper_scale(arch)).state_bytes() as u64;
    cache.push((arch, bytes));
    bytes
}

/// FedKEMF for `spec`: the workload's knowledge network, one `spec.arch`
/// local model per client and a server pool drawn from `task`, at the
/// paper-faithful defaults. `turn` then turns whichever knobs an ablation
/// or the multi-model fleet changes.
pub fn fedkemf_config(
    spec: &ExperimentSpec,
    task: &SynthTask,
    turn: impl FnOnce(&mut FedKemfConfig),
) -> FedKemfConfig {
    let (ch, hw) = spec.workload.shape();
    let knowledge =
        ModelSpec::scaled(spec.workload.knowledge_arch(), ch, hw, 10, child_seed(spec.seed, 0x6B0));
    let clients = uniform_specs(spec.arch, spec.clients, ch, hw, 10, child_seed(spec.seed, 0xC7));
    let pool = task.generate_unlabeled(spec.pool_samples(), 2);
    let mut cfg = FedKemfConfig::uniform(knowledge, clients, pool);
    turn(&mut cfg);
    cfg
}

/// Train `algo` on `ctx` to its round budget: the one `Engine::run` every
/// table and figure goes through. The flags choose how the run is
/// observed, never what it computes:
///
/// * `--trace <dir>` records the run through a
///   [`kemf_fl::trace::TraceSink`] and writes its round-lifecycle JSONL to
///   `<dir>/<run>.jsonl`. Tracing draws no randomness, so the history
///   matches an untraced run bit for bit.
/// * `--checkpoint-dir <dir>` checkpoints into `<dir>/<run>/` every
///   `--checkpoint-every` rounds (default 5) and, with `--resume 1`,
///   continues from the newest checkpoint there (a fresh run when there is
///   none). A resumed history is bit-identical to an uninterrupted one.
///
/// The two are mutually exclusive. `run` names this run's files, so it
/// must differ between any two runs of one invocation.
pub fn train(algo: &mut dyn FedAlgorithm, ctx: &FlContext, args: &Args, run: &str) -> History {
    assert!(
        !(args.has("trace") && args.has("checkpoint-dir")),
        "--trace and --checkpoint-dir are mutually exclusive"
    );
    let mut opts = RunOptions::new();
    if args.has("trace") {
        opts = opts.record_trace();
    }
    if args.has("checkpoint-dir") {
        let dir = Path::new(&args.get_str("checkpoint-dir", "")).join(run);
        let every = args.get::<usize>("checkpoint-every", 5).max(1);
        opts = opts.checkpoint(CheckpointPolicy::new(&dir, every));
        let resume = args.get::<usize>("resume", 0) != 0;
        if resume && matches!(kemf_fl::checkpoint::latest_checkpoint(&dir), Ok(Some(_))) {
            opts = opts.resume_from(&dir);
        }
    }
    let mut history = Engine::run(algo, ctx, opts).expect("experiment run failed").history;
    if let Some(trace) = history.trace.take() {
        let dir = args.get_str("trace", "");
        std::fs::create_dir_all(&dir).expect("trace dir");
        let path = format!("{dir}/{run}.jsonl");
        std::fs::write(&path, trace.to_jsonl()).expect("trace written");
        println!("[trace] {} spans -> {path}", trace.spans.len());
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_bytes_ordering_matches_paper() {
        let r20 = full_scale_bytes(Arch::ResNet20);
        let r32 = full_scale_bytes(Arch::ResNet32);
        let vgg = full_scale_bytes(Arch::Vgg11);
        // Paper: ResNet-20 ≈ 1.05 MB one-way, VGG ≫ ResNet-32 > ResNet-20.
        assert!(r20 > 900_000 && r20 < 1_400_000, "ResNet-20 bytes {r20}");
        assert!(r32 > r20);
        assert!(vgg > 8 * r32, "VGG {vgg} vs ResNet-32 {r32}");
        // Cached path returns identical values.
        assert_eq!(r20, full_scale_bytes(Arch::ResNet20));
    }

    #[test]
    fn cost_models_reproduce_paper_ratios() {
        let spec = ExperimentSpec::quick(Workload::CifarLike, Arch::Vgg11);
        let fedavg = AlgoKind::FedAvg.cost_model(&spec);
        let fednova = AlgoKind::FedNova.cost_model(&spec);
        let kemf = AlgoKind::FedKemf.cost_model(&spec);
        // FedNova pays 2× FedAvg at equal rounds.
        assert_eq!(
            fednova.round_cost_per_client().unwrap(),
            2 * fedavg.round_cost_per_client().unwrap()
        );
        // FedKEMF ships a ResNet-20 knowledge net instead of VGG-11: the
        // per-round ratio is the headline ~19× (paper: 42 MB vs 2.1 MB).
        let ratio = fedavg.round_cost_per_client().unwrap() as f64
            / kemf.round_cost_per_client().unwrap() as f64;
        assert!(ratio > 8.0, "VGG/knowledge-net payload ratio {ratio}");
    }

    fn tiny() -> ExperimentSpec {
        let mut spec = ExperimentSpec::quick(Workload::MnistLike, Arch::Cnn2);
        spec.rounds = 2;
        spec.clients = 4;
        spec.samples_per_client = 30;
        spec
    }

    fn run(kind: AlgoKind, spec: &ExperimentSpec, flags: &[&str]) -> History {
        let (ctx, task) = spec.build_ctx();
        let args = Args::from_iter(flags.iter().map(|f| f.to_string()));
        train(kind.build(spec, &task).as_mut(), &ctx, &args, "run")
    }

    #[test]
    fn traced_run_matches_untraced_records() {
        let dir = std::env::temp_dir().join(format!("kemf_bench_trace_{}", std::process::id()));
        let plain = run(AlgoKind::FedAvg, &tiny(), &[]);
        let traced = run(AlgoKind::FedAvg, &tiny(), &["--trace", dir.to_str().unwrap()]);
        let jsonl = std::fs::read_to_string(dir.join("run.jsonl")).expect("trace written");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(RunTrace::from_jsonl(&jsonl).expect("trace parses").rounds(), 2);
        assert_eq!(plain.to_json(), traced.to_json(), "tracing perturbed the records");
    }

    #[test]
    fn resumed_run_matches_a_straight_one() {
        let dir = std::env::temp_dir().join(format!("kemf_bench_ckpt_{}", std::process::id()));
        let dir_flag = dir.to_str().unwrap();
        let flags = ["--checkpoint-dir", dir_flag, "--checkpoint-every", "1", "--resume", "1"];
        let mut half = tiny();
        half.rounds = 1;
        run(AlgoKind::FedKemf, &half, &flags);
        let resumed = run(AlgoKind::FedKemf, &tiny(), &flags);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(run(AlgoKind::FedKemf, &tiny(), &[]).to_json(), resumed.to_json());
    }

    #[test]
    fn quick_experiment_runs_end_to_end() {
        for kind in [AlgoKind::FedAvg, AlgoKind::FedKemf] {
            let h = run(kind, &tiny(), &[]);
            assert_eq!(h.rounds(), 2);
            assert!(h.accuracies().iter().all(|a| a.is_finite()));
        }
    }
}
