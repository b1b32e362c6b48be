//! Every table and figure of the paper's evaluation from one invocation.
//!
//! An artefact is a reducer over training histories. A history is a pure
//! function of what was trained — the [`ExperimentSpec`] and the algorithm
//! with its knobs — because every run is seeded and bit-reproducible, so
//! the [`Memo`] trains each distinct run the first time a reducer asks for
//! it and hands the same history to every later asker: Fig. 5 and Fig. 6
//! read Fig. 4's curves, Table 1 reads Table 2's runs, and the ablations
//! and `hetero_baselines` reuse Fig. 4's ResNet-20 FedKEMF / FedAvg runs.
//!
//! `--only fig4,table1,…` selects artefacts (default: all, in paper
//! order). `--clients --rounds --ratio --spc --alpha --seed` override the
//! scale; `--trace <dir>` or `--checkpoint-dir <dir> [--checkpoint-every k]
//! [--resume 1]` observe every run (see [`kemf_bench::train`]);
//! `--write-docs true` regenerates the measured blocks of EXPERIMENTS.md
//! from the tables just written. Once per invocation the driver writes
//! `bench_results/experiments_manifest.json`.

use kemf_bench::report::results_dir;
use kemf_bench::*;
use kemf_core::prelude::*;
use kemf_data::prelude::*;
use kemf_fl::prelude::*;
use kemf_nn::codec::{fnv1a64, FNV_OFFSET};
use kemf_nn::prelude::*;
use kemf_tensor::rng::child_seed;
use serde::Serialize;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

/// Every flag the driver reads; anything else is a typo.
const FLAGS: [&str; 20] = [
    "only", "write-docs", "clients", "rounds", "ratio", "spc", "alpha", "seed", "model", "seeds",
    "window", "target", "target-frac", "plateau-tol", "paper-clients", "all-models", "trace",
    "checkpoint-dir", "checkpoint-every", "resume",
];

/// A reducer asks the memo for histories and builds `(csv slug, table)`s.
type Reducer = fn(&mut Memo) -> Vec<(String, Table)>;

/// Every artefact, in paper order.
const ARTEFACTS: [(&str, Reducer); 10] = [
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("fig7", fig7),
    ("ablation_ensemble", ablation_ensemble),
    ("ablation_knet_size", ablation_knet_size),
    ("hetero_baselines", hetero_baselines),
];

/// The four model/task configurations of Fig. 4–6: CSV slug and row label.
const CONFIGS: [(Workload, Arch, &str, &str); 4] = [
    (Workload::MnistLike, Arch::Cnn2, "2cnn_mnist", "2-CNN/MNIST"),
    (Workload::CifarLike, Arch::Vgg11, "vgg11_cifar", "VGG-11/CIFAR"),
    (Workload::CifarLike, Arch::ResNet20, "resnet20_cifar", "ResNet-20/CIFAR"),
    (Workload::CifarLike, Arch::ResNet32, "resnet32_cifar", "ResNet-32/CIFAR"),
];

/// Fig. 6 and Table 1 aim at this fraction of FedAvg's best accuracy
/// unless `--target-frac` or an absolute `--target` says otherwise.
const TARGET_FRAC: f32 = 0.85;

/// Which algorithm trains a spec.
#[derive(Clone, Copy)]
enum Algo<'a> {
    /// One of the paper's five at its defaults.
    Paper(AlgoKind),
    /// FedKEMF with the knobs an ablation turns.
    Kemf(&'a dyn Fn(&mut FedKemfConfig)),
    FedDf,
    FedMd,
    /// Its server is four times the clients' width.
    FedGems,
}

/// The in-process memo `(spec, algorithm) → History`.
struct Memo<'a> {
    args: &'a Args,
    runs: HashMap<(String, usize), Rc<History>>,
    requested: usize,
    trained: usize,
}

impl<'a> Memo<'a> {
    fn new(args: &'a Args) -> Self {
        Memo { args, runs: HashMap::new(), requested: 0, trained: 0 }
    }

    /// The driver's one call of [`kemf_bench::train`].
    fn train(&mut self, algo: &mut dyn FedAlgorithm, ctx: &FlContext, run: &str) -> History {
        self.requested += 1;
        self.trained += 1;
        let h = train(algo, ctx, self.args, run);
        let (n, acc, rounds) = (self.trained, h.final_accuracy(), h.rounds());
        println!("[run {n:>3}] {run}: {acc:.3} after {rounds} rounds");
        h
    }

    /// The history of `algo` on `spec`, trained now if no reducer asked
    /// for it before.
    fn history(&mut self, spec: &ExperimentSpec, algo: Algo) -> Rc<History> {
        let (ctx, task) = spec.build_ctx();
        let (ch, hw) = spec.workload.shape();
        let model = ModelSpec::scaled(spec.arch, ch, hw, 10, child_seed(spec.seed, 0x90D));
        let clients =
            || uniform_specs(spec.arch, spec.clients, ch, hw, 10, child_seed(spec.seed, 0xC7));
        let pool = || task.generate_unlabeled(spec.pool_samples(), 2);
        // What is trained, knobs included: two requests that configure the
        // same FedKEMF (an ablation's "paper" row and Fig. 4's) share a run.
        let kemf = |turn: &dyn Fn(&mut FedKemfConfig)| -> (Box<dyn FedAlgorithm>, String) {
            let c = fedkemf_config(spec, &task, turn);
            let knobs = format!(
                "FedKEMF {:?} {:?} {:?} kl={} T={} mutual={} warmup={}",
                c.knowledge_spec, c.distill, c.fusion, c.kl_weight, c.dml_temperature, c.mutual,
                c.kl_warmup_rounds
            );
            (Box::new(FedKemf::new(c)), knobs)
        };
        let (mut algo, what): (Box<dyn FedAlgorithm>, String) = match algo {
            Algo::Paper(AlgoKind::FedKemf) => kemf(&|_| {}),
            Algo::Kemf(turn) => kemf(turn),
            Algo::Paper(kind) => (kind.build(spec, &task), kind.display().into()),
            Algo::FedDf => (Box::new(FedDf::new(model, pool())), "FedDF".into()),
            Algo::FedMd => {
                let md = FedMd::new(clients(), pool(), 10, FedMdConfig::default());
                (Box::new(md), "FedMD".into())
            }
            Algo::FedGems => {
                let server = ModelSpec { width: model.width * 4, ..model };
                let gems = FedGems::new(clients(), server, pool(), 10, FedGemsConfig::default());
                (Box::new(gems), "FedGEMS".into())
            }
        };
        // The round budget stays out of the lineage so that a resumed run
        // may extend it (checkpoints do not fingerprint it either).
        let lineage = format!("{:?} {what}", ExperimentSpec { rounds: 0, ..*spec });
        let run = run_id(spec, &algo.name(), &lineage);
        let key = (lineage, spec.rounds);
        if let Some(h) = self.runs.get(&key) {
            self.requested += 1;
            return h.clone();
        }
        let h = Rc::new(self.train(algo.as_mut(), &ctx, &run));
        self.runs.insert(key, h.clone());
        h
    }
}

/// File stem for a run's trace / checkpoint directory: architecture,
/// scale and algorithm to read, a hash of the whole lineage to be unique.
fn run_id(spec: &ExperimentSpec, algo: &str, lineage: &str) -> String {
    let hash = fnv1a64(FNV_OFFSET, lineage.as_bytes()) as u32;
    format!("{:?}_c{}_{algo}_{hash:08x}", spec.arch, spec.clients).to_lowercase()
}

fn spec_for(workload: Workload, arch: Arch, args: &Args) -> ExperimentSpec {
    let mut spec = ExperimentSpec::quick(workload, arch);
    apply_overrides(&mut spec, args);
    spec
}

/// The five algorithms' histories on `spec`, FedAvg (the reference of
/// every Δ, speed-up and target) first.
fn paper_runs(memo: &mut Memo, spec: &ExperimentSpec) -> Vec<(AlgoKind, Rc<History>)> {
    const _: () = assert!(matches!(ALL_ALGOS[0], AlgoKind::FedAvg));
    ALL_ALGOS.iter().map(|&k| (k, memo.history(spec, Algo::Paper(k)))).collect()
}

/// `lead` columns, then one per algorithm.
fn algo_columns(lead: &[&'static str]) -> Vec<&'static str> {
    lead.iter().copied().chain(ALL_ALGOS.iter().map(|k| k.display())).collect()
}

/// The one target rule of Fig. 6 and Table 1. The paper picks targets
/// FedAvg can reach (65%/57%/60%); at reduced scale the analogue is a
/// fraction of FedAvg's best, so the comparison stays meaningful.
fn target_accuracy(fedavg: &History, args: &Args) -> f32 {
    let absolute = args.get("target", -1.0f32);
    if absolute > 0.0 {
        return absolute;
    }
    fedavg.best_accuracy() * args.get("target-frac", TARGET_FRAC)
}

/// Fig. 4: accuracy after every round, one CSV per configuration
/// (`--model <slug>` keeps one), algorithms as columns.
fn fig4(memo: &mut Memo) -> Vec<(String, Table)> {
    let only = memo.args.get_str("model", "all");
    let configs: Vec<_> = CONFIGS.into_iter().filter(|c| only == "all" || only == c.2).collect();
    let valid = CONFIGS.map(|c| c.2).join(" ");
    assert!(!configs.is_empty(), "unknown --model {only}; valid: all {valid}");
    let mut out = Vec::new();
    for (workload, arch, slug, _) in configs {
        let spec = spec_for(workload, arch, memo.args);
        let runs = paper_runs(memo, &spec);
        let mut table =
            Table::new(format!("Fig 4 ({slug}) final accuracies"), &algo_columns(&["round"]));
        for r in 0..spec.rounds {
            let mut cells = vec![(r + 1).to_string()];
            cells.extend(runs.iter().map(|(_, h)| format!("{:.4}", h.accuracies()[r])));
            table.row(&cells);
        }
        out.push((format!("fig4_{slug}"), table));
    }
    out
}

/// Fig. 5: the plateau-window mean of the Fig. 4 runs. `--seeds k`
/// averages each cell over k seeds and reports mean±std.
fn fig5(memo: &mut Memo) -> Vec<(String, Table)> {
    let window = memo.args.get("window", 3usize);
    let n_seeds = memo.args.get("seeds", 1usize);
    let mut table = Table::new("Fig 5 — convergence accuracy", &algo_columns(&["model"]));
    for (workload, arch, _, label) in CONFIGS {
        let spec = spec_for(workload, arch, memo.args);
        let mut cells = vec![label.to_string()];
        for kind in ALL_ALGOS {
            let accs: Vec<f32> = (0..n_seeds)
                .map(|s| {
                    let seeded = ExperimentSpec { seed: spec.seed + s as u64 * 1000, ..spec };
                    memo.history(&seeded, Algo::Paper(kind)).converged_accuracy(window)
                })
                .collect();
            let mean = accs.iter().sum::<f32>() / accs.len() as f32;
            if n_seeds > 1 {
                let var =
                    accs.iter().map(|a| (a - mean) * (a - mean)).sum::<f32>() / accs.len() as f32;
                cells.push(format!("{}+-{:.2}", fmt_pct(mean), var.sqrt() * 100.0));
            } else {
                cells.push(fmt_pct(mean));
            }
        }
        table.row(&cells);
    }
    vec![("fig5_convergence_acc".into(), table)]
}

/// Fig. 6: rounds the Fig. 4 runs take to reach [`target_accuracy`].
fn fig6(memo: &mut Memo) -> Vec<(String, Table)> {
    let mut table = Table::new(
        "Fig 6 — rounds to reach target accuracy",
        &algo_columns(&["model", "target"]),
    );
    for (workload, arch, _, label) in CONFIGS {
        let spec = spec_for(workload, arch, memo.args);
        let runs = paper_runs(memo, &spec);
        let target = target_accuracy(&runs[0].1, memo.args);
        let mut cells = vec![label.to_string(), fmt_pct(target)];
        for (_, h) in &runs {
            let reached = h.rounds_to_target(target);
            cells.push(reached.map_or(format!(">{}", spec.rounds), |r| r.to_string()));
        }
        table.row(&cells);
    }
    vec![("fig6_rounds_to_target".into(), table)]
}

/// The (client scale, model) cells of Tables 1–2. Defaults use shrunken
/// populations ({6, 10, 16} standing in for the paper's {30, 50, 100});
/// `--paper-clients true` restores the original counts. The smallest scale
/// carries the full model set (the paper evaluates VGG-11 only there); the
/// larger ones track ResNet-20, plus ResNet-32 when `wide`. Each cell
/// comes with its clients per round, by the engine's own rule.
fn cost_cells(args: &Args, wide: bool) -> Vec<(ExperimentSpec, usize)> {
    let scales: [(usize, f32); 3] = if args.get_str("paper-clients", "false") == "true" {
        [(30, 0.4), (50, 0.7), (100, 0.5)]
    } else {
        [(6, 0.4), (10, 0.7), (16, 0.5)]
    };
    let mut cells = Vec::new();
    for (i, (clients, sample_ratio)) in scales.into_iter().enumerate() {
        let archs: &[Arch] = match (i, wide) {
            (0, _) => &[Arch::ResNet20, Arch::ResNet32, Arch::Vgg11],
            (_, true) => &[Arch::ResNet20, Arch::ResNet32],
            (_, false) => &[Arch::ResNet20],
        };
        for &arch in archs {
            let quick = ExperimentSpec::quick(Workload::CifarLike, arch);
            let mut spec = ExperimentSpec { clients, sample_ratio, ..quick };
            apply_overrides(&mut spec, args);
            cells.push((spec, spec.build_ctx().0.cfg.sampled_per_round()));
        }
    }
    cells
}

/// Paper-scale bytes `kind` moves in `rounds` rounds of `sampled` clients:
/// rounds come from the measured (scaled) runs, payloads from the
/// full-scale model sizes (see DESIGN.md).
fn total_cost(kind: AlgoKind, spec: &ExperimentSpec, sampled: usize, rounds: usize) -> f64 {
    kind.cost_model(spec).total_cost(rounds, sampled).expect("paper-scale cost fits u64") as f64
}

fn round_cost(kind: AlgoKind, spec: &ExperimentSpec) -> String {
    let cost = kind.cost_model(spec).round_cost_per_client().expect("paper-scale cost fits u64");
    fmt_bytes(cost as f64)
}

/// Table 1: cost to reach [`target_accuracy`] on Table 2's runs
/// (`--all-models true` for every cell of it).
fn table1(memo: &mut Memo) -> Vec<(String, Table)> {
    let mut table = Table::new(
        "Table 1 — communication cost to target accuracy",
        &[
            "Method", "Model", "TargetAcc", "Clients", "Rounds", "Round/Client", "Total",
            "dCost", "SpeedUp",
        ],
    );
    let wide = memo.args.get_str("all-models", "false") == "true";
    for (spec, sampled) in cost_cells(memo.args, wide) {
        let runs = paper_runs(memo, &spec);
        let target = target_accuracy(&runs[0].1, memo.args);
        let fedavg_total = runs[0]
            .1
            .rounds_to_target(target)
            .map(|r| total_cost(AlgoKind::FedAvg, &spec, sampled, r));
        for (kind, h) in &runs {
            let reached = h.rounds_to_target(target);
            let total = total_cost(*kind, &spec, sampled, reached.unwrap_or(spec.rounds));
            let (dcost, speedup) = match (fedavg_total, reached) {
                (Some(f), Some(_)) => {
                    let sign = if total >= f { "+" } else { "-" };
                    (format!("{sign}{}", fmt_bytes((total - f).abs())), fmt_speedup(f / total))
                }
                _ => ("n/a".into(), "n/a".into()),
            };
            table.row(&[
                kind.display().into(),
                spec.arch.display().into(),
                fmt_pct(target),
                spec.clients.to_string(),
                reached.map_or(format!("{}*", spec.rounds), |r| r.to_string()),
                round_cost(*kind, &spec),
                fmt_bytes(total),
                dcost,
                speedup,
            ]);
        }
    }
    println!("(* = target not reached within the round budget; cost shown at budget)");
    vec![("table1_comm_cost_target".into(), table)]
}

/// Table 2: cost and accuracy at convergence; plateau detection gives
/// the converge round of each run.
fn table2(memo: &mut Memo) -> Vec<(String, Table)> {
    let tol = memo.args.get("plateau-tol", 0.01f32);
    let window = memo.args.get("window", 3usize);
    let mut table = Table::new(
        "Table 2 — communication cost to convergence",
        &[
            "Method", "Clients", "Model", "Ratio", "ConvergeRounds", "Round/Client", "Total",
            "Speedup", "ConvergeAcc", "dAcc",
        ],
    );
    for (spec, sampled) in cost_cells(memo.args, true) {
        let runs = paper_runs(memo, &spec);
        let converged = |kind: AlgoKind, h: &History| {
            (total_cost(kind, &spec, sampled, h.converge_round(tol)), h.converged_accuracy(window))
        };
        let (fedavg_total, fedavg_acc) = converged(AlgoKind::FedAvg, &runs[0].1);
        for (kind, h) in &runs {
            let (total, acc) = converged(*kind, h);
            table.row(&[
                kind.display().into(),
                spec.clients.to_string(),
                spec.arch.display().into(),
                format!("{}", spec.sample_ratio),
                h.converge_round(tol).to_string(),
                round_cost(*kind, &spec),
                fmt_bytes(total),
                fmt_speedup(fedavg_total / total),
                fmt_pct(acc),
                format!("{}{}", if acc >= fedavg_acc { "+" } else { "" }, fmt_pct(acc - fedavg_acc)),
            ]);
        }
    }
    vec![("table2_comm_cost_converge".into(), table)]
}

/// Table 3: FedKEMF runs a heterogeneous zoo (ResNet-20/32/44 assigned by
/// device tier) while the baselines train ResNet-20 everywhere; the metric
/// is the **average per-client local accuracy** of the deployed model on a
/// held-out slice of each client's own data distribution. That per-client
/// split is not an [`ExperimentSpec`] world, so these four runs bypass the
/// memo.
fn table3(memo: &mut Memo) -> Vec<(String, Table)> {
    let quick = ExperimentSpec::quick(Workload::CifarLike, Arch::ResNet20);
    let mut spec = ExperimentSpec { clients: 9, sample_ratio: 0.5, ..quick };
    apply_overrides(&mut spec, memo.args);
    let (ch, hw) = spec.workload.shape();

    // Build the partition once, then carve each client's shard into a
    // train part and a local test part (80/20) so the local test set
    // follows the client's own label distribution.
    let task = spec.workload.task(child_seed(spec.seed, 0xDA7A));
    let full = task.generate(spec.clients * spec.samples_per_client, 0);
    let shards = dirichlet_partition(
        &full.labels,
        full.classes,
        spec.clients,
        spec.alpha,
        (spec.samples_per_client / 5).max(5),
        child_seed(spec.seed, 0x5041_5254),
    );
    let mut train_shards = Vec::new();
    let mut client_tests = Vec::new();
    for (k, shard) in shards.iter().enumerate() {
        // Shuffle before the split: the partitioner appends indices class
        // by class, so a positional cut would put disjoint class sets in
        // the train and local-test slices.
        let mut shard = shard.clone();
        use rand::seq::SliceRandom;
        shard.shuffle(&mut kemf_tensor::rng::seeded_rng(child_seed(spec.seed, 0x51 + k as u64)));
        let cut = (shard.len() * 4) / 5;
        train_shards.push(shard[..cut].to_vec());
        client_tests.push(full.subset(&shard[cut..]));
    }
    let cfg = FlConfig {
        n_clients: spec.clients,
        sample_ratio: spec.sample_ratio,
        rounds: spec.rounds,
        alpha: spec.alpha,
        min_per_client: 2,
        seed: spec.seed,
        ..Default::default()
    };
    let global_test = task.generate(spec.test_samples(), 1);
    let ctx = FlContext::with_shards(cfg, &full, &train_shards, global_test);
    let mut run = |algo: &mut dyn FedAlgorithm| {
        let id = run_id(&spec, &algo.name(), "table3");
        memo.train(algo, &ctx, &id);
    };
    let mut table = Table::new(
        "Table 3 — multi-model federated learning (average local accuracy)",
        &["Method", "Model", "Clients", "SampleRatio", "AverageAcc"],
    );
    let mut row = |method: &str, model: &str, avg: f32| {
        let (clients, ratio) = (spec.clients.to_string(), format!("{}", spec.sample_ratio));
        table.row(&[method.into(), model.into(), clients, ratio, fmt_pct(avg)]);
    };

    // Baselines: uniform ResNet-20, global model deployed to every client.
    let baseline = ModelSpec::scaled(Arch::ResNet20, ch, hw, 10, child_seed(spec.seed, 0x90D));
    let baselines: [Box<dyn FedAlgorithm>; 3] = [
        Box::new(FedAvg::new(baseline)),
        Box::new(FedNova::new(baseline)),
        Box::new(FedProx::new(baseline, 0.01)),
    ];
    for mut algo in baselines {
        run(algo.as_mut());
        let (mspec, state) = algo.global_model().expect("baseline has a global model");
        let mut deployed = Model::new(mspec);
        deployed.set_state(&state);
        let hits = client_tests.iter().map(|t| deployed.evaluate(&t.images, &t.labels, 64));
        row(&algo.name(), "ResNet-20", hits.sum::<f32>() / client_tests.len() as f32);
    }

    // FedKEMF: heterogeneous zoo by device tier, local models evaluated
    // on their own client's test slice.
    let tiers = assign_tiers(spec.clients, child_seed(spec.seed, 0x7153));
    let mut kemf = FedKemf::new(fedkemf_config(&spec, &task, |c| {
        c.client_specs = heterogeneous_specs(&tiers, ch, hw, 10, child_seed(spec.seed, 0xC7));
    }));
    run(&mut kemf);
    let avg = kemf.evaluate_local_models(&client_tests, 64).expect("one test set per client");
    row("FedKEMF", "Multi-model", avg);
    vec![("table3_multimodel".into(), table)]
}

/// Fig. 7: FedKEMF and FedAvg over a grid of client count (`--clients`
/// pins it), sample ratio and heterogeneity α. The paper's claim is that
/// FedKEMF stays *stable* as heterogeneity and scale grow: accuracy and
/// its standard deviation over the tail rounds (lower = more stable).
fn fig7(memo: &mut Memo) -> Vec<(String, Table)> {
    let args = memo.args;
    let base = spec_for(Workload::CifarLike, Arch::ResNet20, args);
    let clients_grid = if args.has("clients") { vec![base.clients] } else { vec![6, 12] };
    let window = args.get("window", 5usize);
    let mut table = Table::new(
        "Fig 7 — FedKEMF stability across FL settings",
        &[
            "clients", "ratio", "alpha", "heterogeneity",
            "FedKEMF_acc", "FedKEMF_std", "FedAvg_acc", "FedAvg_std",
        ],
    );
    for clients in clients_grid {
        for sample_ratio in [0.5f32, 1.0] {
            for alpha in [0.05f64, 0.5] {
                let spec = ExperimentSpec { clients, sample_ratio, alpha, ..base };
                let het = spec.build_ctx().0.heterogeneity;
                let kemf = memo.history(&spec, Algo::Paper(AlgoKind::FedKemf));
                let avg = memo.history(&spec, Algo::Paper(AlgoKind::FedAvg));
                table.row(&[
                    clients.to_string(),
                    format!("{sample_ratio}"),
                    format!("{alpha}"),
                    format!("{het:.3}"),
                    fmt_pct(kemf.converged_accuracy(window)),
                    format!("{:.4}", kemf.tail_std(window)),
                    fmt_pct(avg.converged_accuracy(window)),
                    format!("{:.4}", avg.tail_std(window)),
                ]);
            }
        }
    }
    vec![("fig7_stability".into(), table)]
}

/// Ablations of FedKEMF's design choices on ResNet-20: the ensemble
/// strategy (the paper's own ablation), the fusion mode, deep mutual
/// learning on/off and its paper-literal weighting, and the distillation
/// temperature.
fn ablation_ensemble(memo: &mut Memo) -> Vec<(String, Table)> {
    type Turn = Box<dyn Fn(&mut FedKemfConfig)>;
    let strategy = |s: EnsembleStrategy| -> Turn { Box::new(move |c| c.distill.strategy = s) };
    let temperature = |t: f32| -> Turn { Box::new(move |c| c.distill.temperature = t) };
    let variants: [(&str, Turn); 8] = [
        ("max-logits (paper)", strategy(EnsembleStrategy::MaxLogits)),
        ("avg-logits", strategy(EnsembleStrategy::AvgLogits)),
        ("majority-vote", strategy(EnsembleStrategy::MajorityVote)),
        ("weight-average fusion", Box::new(|c| c.fusion = FusionMode::WeightAverage)),
        ("no deep mutual learning", Box::new(|c| c.mutual = false)),
        (
            "paper-literal KL (w=1, no warmup)",
            Box::new(|c| {
                c.kl_weight = 1.0;
                c.kl_warmup_rounds = 0;
            }),
        ),
        ("distill T=1", temperature(1.0)),
        ("distill T=4", temperature(4.0)),
    ];
    let spec = spec_for(Workload::CifarLike, Arch::ResNet20, memo.args);
    let window = memo.args.get("window", 3usize);
    let mut table = Table::new(
        "Ablation — FedKEMF design choices",
        &["variant", "converge_acc", "best_acc", "tail_std"],
    );
    for (label, turn) in &variants {
        let h = memo.history(&spec, Algo::Kemf(turn.as_ref()));
        table.row(&[
            label.to_string(),
            fmt_pct(h.converged_accuracy(window)),
            fmt_pct(h.best_accuracy()),
            format!("{:.4}", h.tail_std(window)),
        ]);
    }
    vec![("ablation_ensemble".into(), table)]
}

/// How tiny can the knowledge network be? FedKEMF's communication cost is
/// exactly the knowledge network's size, so the width of θ_g trades
/// accuracy against bytes.
fn ablation_knet_size(memo: &mut Memo) -> Vec<(String, Table)> {
    let spec = spec_for(Workload::CifarLike, Arch::ResNet20, memo.args);
    let (_, task) = spec.build_ctx();
    let mut table = Table::new(
        "Ablation — knowledge-network width vs accuracy vs payload",
        &["knet_width", "params", "round/client", "best_acc", "converge_acc", "bytes_to_80pct_of_best"],
    );
    let runs: Vec<_> = [2usize, 4, 8]
        .into_iter()
        .map(|w| {
            let turn = move |c: &mut FedKemfConfig| c.knowledge_spec.width = w;
            let cfg = fedkemf_config(&spec, &task, turn);
            let params = Model::new(cfg.knowledge_spec).param_count();
            let payload = FedKemf::new(cfg).payload_bytes();
            (w, params, payload, memo.history(&spec, Algo::Kemf(&turn)))
        })
        .collect();
    let best_overall = runs.iter().map(|(.., h)| h.best_accuracy()).fold(0.0f32, f32::max);
    for (w, params, payload, h) in &runs {
        table.row(&[
            w.to_string(),
            params.to_string(),
            fmt_bytes(2.0 * *payload as f64),
            fmt_pct(h.best_accuracy()),
            fmt_pct(h.converged_accuracy(3)),
            h.bytes_to_target(best_overall * 0.8).map_or("n/a".into(), |b| fmt_bytes(b as f64)),
        ]);
    }
    vec![("ablation_knet_size".into(), table)]
}

/// FedKEMF against the *heterogeneity-capable* distillation family on the
/// same non-IID task, with simulated communication time on a 4G link.
fn hetero_baselines(memo: &mut Memo) -> Vec<(String, Table)> {
    let spec = spec_for(Workload::CifarLike, Arch::ResNet20, memo.args);
    let net = NetworkModel::cellular_4g();
    let mut table = Table::new(
        "Extension — distillation-family baselines under non-IID data",
        &["method", "best_acc", "converge_acc", "total_comm", "sim_comm_time_4g"],
    );
    let (fedavg, fedkemf) = (Algo::Paper(AlgoKind::FedAvg), Algo::Paper(AlgoKind::FedKemf));
    for algo in [fedavg, Algo::FedDf, Algo::FedMd, fedkemf, Algo::FedGems] {
        let h = memo.history(&spec, algo);
        table.row(&[
            h.algorithm.clone(),
            fmt_pct(h.best_accuracy()),
            fmt_pct(h.converged_accuracy(3)),
            fmt_bytes(h.total_bytes() as f64),
            format!("{:.1}s", net.history_comm_time(&h)),
        ]);
    }
    vec![("hetero_baselines".into(), table)]
}

/// Wall seconds of one artefact's reducer, training included.
#[derive(Serialize)]
struct ArtefactTime {
    name: &'static str,
    wall_s: f64,
}

/// What an invocation was and what it cost.
#[derive(Serialize)]
struct Manifest {
    flags: Vec<String>,
    seed: u64,
    git_rev: String,
    threads: usize,
    isa: String,
    cpu_features: Vec<&'static str>,
    artefacts: Vec<ArtefactTime>,
    histories_requested: usize,
    histories_trained: usize,
    histories_from_memo: usize,
    wall_s: f64,
}

/// The artefacts `--only` names (all of them without it). An unknown flag
/// or artefact name is an error: a typo must not run the full evaluation.
fn selected(args: &Args) -> Vec<(&'static str, Reducer)> {
    args.reject_unknown(&FLAGS);
    let names = ARTEFACTS.map(|(name, _)| name);
    let only = args.get_str("only", &names.join(","));
    for name in only.split(',') {
        assert!(names.contains(&name), "unknown --only {name}; valid: {}", names.join(","));
    }
    ARTEFACTS.into_iter().filter(|(name, _)| only.split(',').any(|n| n == *name)).collect()
}

/// Replace the body of `doc`'s `<!-- measured:<slug> -->` block.
fn splice_measured(doc: &str, slug: &str, body: &str) -> String {
    let open = format!("<!-- measured:{slug} -->\n");
    let close = format!("<!-- /measured:{slug} -->");
    let start = doc.find(&open).unwrap_or_else(|| panic!("no {open} in the document")) + open.len();
    let end = start + doc[start..].find(&close).unwrap_or_else(|| panic!("no {close}"));
    format!("{}{body}{}", &doc[..start], &doc[end..])
}

fn main() {
    let started = Instant::now();
    let flags: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::from_iter(flags.clone());
    let mut memo = Memo::new(&args);
    let (mut tables, mut artefacts) = (Vec::new(), Vec::new());
    for (name, reducer) in selected(&args) {
        let began = Instant::now();
        let built = reducer(&mut memo);
        built.iter().for_each(|(slug, table)| table.emit(slug));
        tables.extend(built);
        artefacts.push(ArtefactTime { name, wall_s: began.elapsed().as_secs_f64() });
    }
    let git = std::process::Command::new("git").args(["rev-parse", "HEAD"]).output().ok();
    let manifest = Manifest {
        flags,
        seed: spec_for(Workload::CifarLike, Arch::ResNet20, &args).seed,
        git_rev: git
            .filter(|o| o.status.success())
            .map_or("unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().into()),
        threads: kemf_fl::engine::init_thread_pool(),
        isa: format!("{:?}", kemf_tensor::simd::isa()),
        cpu_features: kemf_tensor::simd::cpu_features(),
        artefacts,
        histories_requested: memo.requested,
        histories_trained: memo.trained,
        histories_from_memo: memo.requested - memo.trained,
        wall_s: started.elapsed().as_secs_f64(),
    };
    let path = results_dir().join("experiments_manifest.json");
    let json = serde_json::to_string_pretty(&manifest).expect("manifest serializes");
    std::fs::write(&path, json + "\n").expect("manifest written");
    println!(
        "[manifest] {}: {} histories requested, {} trained, {:.0} s",
        path.display(),
        manifest.histories_requested,
        manifest.histories_trained,
        manifest.wall_s
    );
    if args.get_str("write-docs", "false") == "true" {
        let stamp = format!(
            "\n_`experiments {}` · seed {} · {} threads · {} · git {:.7}_\n",
            manifest.flags.join(" "),
            manifest.seed,
            manifest.threads,
            manifest.isa,
            manifest.git_rev
        );
        let mut doc = std::fs::read_to_string("EXPERIMENTS.md").expect("EXPERIMENTS.md in the cwd");
        for (slug, table) in &tables {
            doc = splice_measured(&doc, slug, &(table.markdown() + &stamp));
        }
        std::fs::write("EXPERIMENTS.md", doc).expect("EXPERIMENTS.md written");
        println!("[docs] EXPERIMENTS.md: {} measured blocks regenerated", tables.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4-client / 2-round scale; `extra` flags are read last, so they win.
    fn tiny(extra: &[&str]) -> Args {
        let base = ["--clients", "4", "--rounds", "2", "--spc", "24"];
        Args::from_iter(base.iter().chain(extra).map(|s| s.to_string()))
    }

    fn rendered(tables: &[(String, Table)]) -> String {
        tables.iter().map(|(slug, t)| format!("{slug}\n{}", t.markdown())).collect()
    }

    /// The data rows of a table, cell by cell.
    fn rows(table: &Table) -> Vec<Vec<String>> {
        let cells = |l: &str| l.trim_matches('|').split('|').map(|c| c.trim().to_string()).collect();
        table.markdown().lines().skip(2).map(cells).collect()
    }

    #[test]
    fn shared_runs_train_once_and_reduce_to_the_same_tables() {
        let args = tiny(&[]);
        let mut shared = Memo::new(&args);
        fig4(&mut shared);
        let (five, six) = (fig5(&mut shared), fig6(&mut shared));
        // Three reducers asked for each of the 4 × 5 curves.
        assert_eq!((shared.requested, shared.trained, shared.runs.len()), (60, 20, 20));
        // The same tables from histories nobody trained before.
        assert_eq!(rendered(&fig5(&mut Memo::new(&args))), rendered(&five));
        assert_eq!(rendered(&fig6(&mut Memo::new(&args))), rendered(&six));
    }

    #[test]
    fn traced_invocation_builds_the_same_tables() {
        let dir = std::env::temp_dir().join(format!("kemf_exp_trace_{}", std::process::id()));
        let (plain, traced) = (tiny(&[]), tiny(&["--trace", dir.to_str().unwrap()]));
        let a = hetero_baselines(&mut Memo::new(&plain));
        let b = hetero_baselines(&mut Memo::new(&traced));
        let traces = std::fs::read_dir(&dir).expect("trace dir").count();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(rendered(&a), rendered(&b));
        assert_eq!(traces, 5, "one JSONL per trained run");
    }

    #[test]
    fn cost_tables_price_the_cohort_that_trained() {
        // Both flags override every scale of the tables: 12 clients, 6 a round.
        let args = tiny(&["--clients", "12", "--ratio", "0.5"]);
        let mut memo = Memo::new(&args);
        let (one, two) = (table1(&mut memo), table2(&mut memo));
        let priced = |method: &str, model: &str, rounds: &str| {
            let kind = ALL_ALGOS.into_iter().find(|k| k.display() == method).unwrap();
            let arch = [Arch::ResNet20, Arch::ResNet32, Arch::Vgg11]
                .into_iter()
                .find(|a| a.display() == model)
                .unwrap();
            let spec = spec_for(Workload::CifarLike, arch, &args);
            let per_client = kind.cost_model(&spec).round_cost_per_client().unwrap();
            let rounds: u64 = rounds.trim_end_matches('*').parse().unwrap();
            fmt_bytes((per_client * rounds * 6) as f64)
        };
        for r in rows(&one[0].1) {
            assert_eq!(r[3], "12", "Clients in {r:?}");
            assert_eq!(r[6], priced(&r[0], &r[1], &r[4]), "Total in {r:?}");
        }
        for r in rows(&two[0].1) {
            assert_eq!((r[1].as_str(), r[3].as_str()), ("12", "0.5"), "Clients, Ratio in {r:?}");
            assert_eq!(r[6], priced(&r[0], &r[2], &r[4]), "Total in {r:?}");
        }
        // With the scales collapsed, the cells differ by model only.
        assert_eq!((memo.requested, memo.trained), (25 + 35, 15));
    }

    #[test]
    #[should_panic(expected = "unknown --only fig9; valid: fig4,fig5,fig6,table1")]
    fn rejects_an_unknown_artefact() {
        selected(&Args::from_iter(["--only", "fig4,fig9"].map(String::from)));
    }

    #[test]
    #[should_panic(expected = "unknown flag --round; valid flags: --only")]
    fn rejects_a_mistyped_flag() {
        selected(&Args::from_iter(["--round", "3"].map(String::from)));
    }

    #[test]
    fn measured_blocks_are_replaced_in_place() {
        let doc = "a\n<!-- measured:x -->\nold\n<!-- /measured:x -->\nb\n";
        let new = "a\n<!-- measured:x -->\nnew\n<!-- /measured:x -->\nb\n";
        assert_eq!(splice_measured(doc, "x", "new\n"), new);
        assert_eq!(splice_measured(new, "x", "new\n"), new);
    }
}
