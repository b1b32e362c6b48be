//! Population-scale memory benchmark: peak RSS and throughput of
//! cohort-sampled training as the *population* grows.
//!
//! The sharded client-state store plus on-demand synthetic shards make
//! a round's footprint O(cohort), not O(population): doubling the
//! population at a halved sample ratio (equal cohort) must leave peak
//! RSS essentially unchanged. This binary measures exactly that, and
//! that spilling FedKEMF's client models to disk does not perturb the
//! math (bit-identical history fingerprints at equal seeds).
//!
//! Usage:
//!   bench_population --smoke            # CI: small populations, asserts, writes nothing
//!   bench_population                    # default full sweep
//!   bench_population --clients 1000000 --ratio 0.01 --rounds 2 --algo fedkemf
//!
//! Each scenario runs in a *child process* (`VmHWM` is monotonic per
//! process, so in-process scenarios would shadow each other); the parent
//! collects the records into `BENCH_population.json` in the results
//! directory (`KEMF_RESULTS_DIR`, default `bench_results/`).

use kemf_bench::report::write_json;
use kemf_bench::Args;
use kemf_core::fedkemf::{FedKemf, FedKemfConfig};
use kemf_core::resource::uniform_specs;
use kemf_data::synth::{SynthConfig, SynthTask};
use kemf_fl::client_store::SpillConfig;
use kemf_fl::config::FlConfig;
use kemf_fl::context::FlContext;
use kemf_fl::engine::{Engine, FedAlgorithm, RunOptions};
use kemf_fl::fedavg::FedAvg;
use kemf_nn::models::{Arch, ModelSpec};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// One scenario's measurement, as written to BENCH_population.json.
#[derive(Serialize, Deserialize)]
struct PopRecord {
    name: String,
    algo: String,
    clients: usize,
    ratio: f32,
    rounds: usize,
    cohort: usize,
    sharded: bool,
    peak_rss_bytes: u64,
    rounds_per_sec: f64,
    final_accuracy: f32,
    /// Hash of the full per-round history JSON — equal fingerprints
    /// mean bit-identical training trajectories.
    history_fingerprint: String,
}

/// Peak resident set size of this process, from /proc/self/status.
fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Run one scenario in this process and print its record as JSON.
fn child_main(args: &Args) {
    let algo_name = args.get_str("algo", "fedavg");
    let clients = args.get("clients", 1_000usize);
    let ratio = args.get("ratio", 0.01f32);
    let rounds = args.get("rounds", 2usize);
    let per_client = args.get("spc", 8usize);
    let seed = args.get("seed", 77u64);
    let cohort_batch = args.get("cohort_batch", 0usize);
    let spill_dir = args.get_str("spill", "");
    let name = args.get_str("name", &format!("{algo_name}_{clients}"));

    let cfg = FlConfig {
        n_clients: clients,
        sample_ratio: ratio,
        rounds,
        local_epochs: 1,
        batch_size: 8,
        min_per_client: 1,
        cohort_batch: if cohort_batch == 0 { None } else { Some(cohort_batch) },
        seed,
        ..Default::default()
    };
    let cohort = cfg.sampled_per_round();
    let task = SynthTask::new(SynthConfig::mnist_like(seed));
    let test = task.generate(64, 1);
    let pool = task.generate_unlabeled(40, 2);
    let ctx = FlContext::synthetic(cfg, task, per_client, test);

    let spec = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0);
    let mut algo: Box<dyn FedAlgorithm> = match algo_name.as_str() {
        "fedavg" => Box::new(FedAvg::new(spec)),
        "fedkemf" => {
            let knowledge = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 99);
            let specs = uniform_specs(Arch::Cnn2, clients, 1, 12, 10, 5);
            let mut kcfg = FedKemfConfig::uniform(knowledge, specs, pool);
            if !spill_dir.is_empty() {
                kcfg = kcfg.with_spill(SpillConfig::new(&spill_dir));
            }
            Box::new(FedKemf::new(kcfg))
        }
        other => panic!("unknown --algo {other} (fedavg | fedkemf)"),
    };

    let start = Instant::now();
    let history = Engine::run(algo.as_mut(), &ctx, RunOptions::new())
        .expect("benchmark run failed")
        .history;
    let elapsed = start.elapsed().as_secs_f64();

    let mut hasher = DefaultHasher::new();
    history.to_json().hash(&mut hasher);
    let record = PopRecord {
        name,
        algo: algo.name(),
        clients,
        ratio,
        rounds,
        cohort,
        sharded: !spill_dir.is_empty(),
        peak_rss_bytes: peak_rss_bytes(),
        rounds_per_sec: rounds as f64 / elapsed.max(1e-9),
        final_accuracy: history.final_accuracy(),
        history_fingerprint: format!("{:016x}", hasher.finish()),
    };
    println!("{}", serde_json::to_string(&record).expect("record serializes"));
}

/// Spawn this binary as a child for one scenario; parse its record.
fn run_scenario(flags: &[(&str, String)]) -> PopRecord {
    let exe = std::env::current_exe().expect("current exe path");
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("--child").arg("run");
    for (k, v) in flags {
        cmd.arg(format!("--{k}")).arg(v);
    }
    let out = cmd.output().expect("child scenario spawns");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "child scenario failed: {}\n{}",
        stdout,
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout.lines().last().expect("child printed a record");
    serde_json::from_str(line).expect("child record parses")
}

fn spill_tmp(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("kemf_bench_pop_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.to_string_lossy().into_owned()
}

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let smoke = raw.iter().any(|a| a == "--smoke");
    raw.retain(|a| a != "--smoke");
    let args = Args::from_iter(raw);

    if args.has("child") {
        child_main(&args);
        return;
    }

    // Explicit single-scenario mode: any sizing flag present, no smoke.
    if !smoke && (args.has("clients") || args.has("ratio") || args.has("algo")) {
        let flags: Vec<(&str, String)> = [
            ("algo", args.get_str("algo", "fedavg")),
            ("clients", args.get::<usize>("clients", 1_000_000).to_string()),
            ("ratio", args.get::<f32>("ratio", 0.01).to_string()),
            ("rounds", args.get::<usize>("rounds", 2).to_string()),
            ("spc", args.get::<usize>("spc", 8).to_string()),
            ("cohort_batch", args.get::<usize>("cohort_batch", 256).to_string()),
            ("spill", if args.get_str("algo", "fedavg") == "fedkemf" {
                spill_tmp("single")
            } else {
                String::new()
            }),
            ("name", args.get_str("name", "custom")),
        ]
        .into_iter()
        .collect();
        write_json("BENCH_population.json", &[run_scenario(&flags)]);
        return;
    }

    // The memory headline: equal cohorts from different populations.
    // Smoke keeps CI fast; the default sweep doubles everything again.
    let (big, small, rounds) = if smoke { (100_000, 50_000, 2) } else { (1_000_000, 500_000, 2) };
    let big_ratio = 1_000.0 / big as f32;
    let small_ratio = 1_000.0 / small as f32;

    println!("population sweep (smoke={smoke}): equal 1000-client cohorts");
    let rec_big = run_scenario(&[
        ("algo", "fedavg".into()),
        ("clients", big.to_string()),
        ("ratio", big_ratio.to_string()),
        ("rounds", rounds.to_string()),
        ("cohort_batch", "128".into()),
        ("name", format!("fedavg_{big}_pop")),
    ]);
    let rec_small = run_scenario(&[
        ("algo", "fedavg".into()),
        ("clients", small.to_string()),
        ("ratio", small_ratio.to_string()),
        ("rounds", rounds.to_string()),
        ("cohort_batch", "128".into()),
        ("name", format!("fedavg_{small}_pop")),
    ]);

    // Sharded-vs-eager FedKEMF: same seeds, spilled client models.
    let kemf_common: Vec<(&str, String)> = vec![
        ("algo", "fedkemf".into()),
        ("clients", "6".into()),
        ("ratio", "0.5".into()),
        ("rounds", "2".into()),
        ("spc", "16".into()),
    ];
    let mut eager_flags = kemf_common.clone();
    eager_flags.push(("name", "fedkemf_eager".into()));
    let rec_eager = run_scenario(&eager_flags);
    let mut sharded_flags = kemf_common;
    sharded_flags.push(("spill", spill_tmp("kemf")));
    sharded_flags.push(("name", "fedkemf_sharded".into()));
    let rec_sharded = run_scenario(&sharded_flags);

    let ratio = rec_big.peak_rss_bytes as f64 / rec_small.peak_rss_bytes.max(1) as f64;
    let identical = rec_eager.history_fingerprint == rec_sharded.history_fingerprint;
    println!(
        "  fedavg {}-client pop: peak RSS {:.1} MB, {:.2} rounds/s",
        rec_big.clients,
        rec_big.peak_rss_bytes as f64 / 1e6,
        rec_big.rounds_per_sec
    );
    println!(
        "  fedavg {}-client pop: peak RSS {:.1} MB, {:.2} rounds/s",
        rec_small.clients,
        rec_small.peak_rss_bytes as f64 / 1e6,
        rec_small.rounds_per_sec
    );
    println!("  RSS(2x population) / RSS(1x) = {ratio:.3}  (O(cohort) memory wants ~1)");
    println!("  fedkemf sharded == eager: {identical}");

    if !smoke {
        write_json("BENCH_population.json", &[rec_big, rec_small, rec_eager, rec_sharded]);
        return;
    }
    assert!(
        ratio < 1.5,
        "peak RSS grew with population at fixed cohort: {ratio:.3}x — memory is not O(cohort)"
    );
    assert!(identical, "sharded FedKEMF diverged from eager at equal seeds");
    println!("smoke assertions passed");
}
