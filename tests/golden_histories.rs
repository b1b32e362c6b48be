//! Integration: golden synchronous histories. The engine runs every
//! round as one cycle — `train_cohort` → dispatch → drain → `fuse` — and
//! a synchronous round is the cycle with a cohort-sized buffer, so the
//! sync == async anchor in `tests/async_rounds.rs` compares that code
//! with itself. The fingerprints below were generated from the
//! hand-written per-algorithm `round` bodies this cycle replaced
//! (commit 3a9de24) and pin the surviving path to their exact output.
//!
//! Runs under [`ScalarGuard`] so the constants do not depend on the
//! host's SIMD tier. To regenerate after an *intended* numeric change,
//! run `cargo test --test golden_histories`: the failure message prints
//! the full table in source form.
//!
//! A second leg runs the default configuration with the guard off, so
//! the widest kernels and the GEMM's read-B-in-place route are pinned as
//! well. Generated the same way at commit 645b07a (closure operands,
//! scatter-loop im2col) on an AVX-512 host, its table came out equal to
//! the scalar one — every output element of every kernel tier is one
//! FMA chain over k in ascending order — so the leg shares the constants.

use fedkemf::core::fedkemf::{FedKemf, FedKemfConfig};
use fedkemf::fl::engine::{Engine, FedAlgorithm};
use fedkemf::prelude::*;
use fedkemf::tensor::simd::ScalarGuard;
use std::path::{Path, PathBuf};

/// `(algorithm, defaults, cohort_batch 2 + fault storm + spill stores)`:
/// FNV-1a-64 of `History::to_json()`.
const GOLDEN: [(&str, u64, u64); 9] = [
    ("FedAvg", 0xef04fbc403d3a2f9, 0x659fe829fb63d1fd),
    ("FedProx", 0x5d67cee561f791ac, 0x9f4c5d3ec9e53aca),
    ("FedNova", 0xf56b0afa999359f5, 0x8d492707179fda86),
    ("SCAFFOLD", 0x612d69fd8e711635, 0xfc870ff635f4aa95),
    ("FedDF", 0x021009ea61532b15, 0x11ceb878f8261a17),
    ("FedMD", 0x90c26e5fd29ff0df, 0x2170e5249094f5e8),
    ("FedKEMF", 0x5b3aaae7bed86738, 0x245aaebc331fbc09),
    ("FedRolex", 0x4ddce0890d5a466a, 0x68f3f7f6bb2ae02d),
    ("FedGEMS", 0x9bef12f96d1ed62f, 0x98fc8f283622d988),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

fn world(storm: bool) -> (FlContext, SynthTask) {
    let task = SynthTask::new(SynthConfig::mnist_like(211));
    let train = task.generate(300, 0);
    let test = task.generate(80, 1);
    let cfg = FlConfig {
        n_clients: 5,
        sample_ratio: 1.0,
        rounds: 6,
        local_epochs: 1,
        batch_size: 16,
        alpha: 0.5,
        min_per_client: 10,
        seed: 211,
        cohort_batch: storm.then_some(2),
        ..Default::default()
    };
    (FlContext::new(cfg, &train, test), task)
}

/// All nine algorithms, built fresh; with `spill` set, the three
/// store-backed ones keep their per-client state on disk under it.
fn all_algorithms(
    ctx: &FlContext,
    task: &SynthTask,
    spill: Option<&Path>,
) -> Vec<Box<dyn FedAlgorithm>> {
    let spec = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 3);
    let knowledge = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 99);
    let clients = uniform_specs(Arch::Cnn2, ctx.cfg.n_clients, 1, 12, 10, 5);
    let pool = task.generate_unlabeled(40, 2);
    let wide_mlp = ModelSpec { width: 32, ..ModelSpec::scaled(Arch::Mlp1, 1, 12, 10, 7) };
    let big_server = ModelSpec { width: 8, ..ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 900) };
    let mut scaffold = Scaffold::new(spec);
    let mut fedmd = FedMd::new(clients.clone(), pool.clone());
    let mut kemf_cfg = FedKemfConfig::uniform(knowledge, clients.clone(), pool.clone());
    if let Some(dir) = spill {
        scaffold = scaffold.with_spill(SpillConfig::new(dir.join("scaffold")));
        fedmd = fedmd.with_spill(SpillConfig::new(dir.join("fedmd")));
        kemf_cfg = kemf_cfg.with_spill(SpillConfig::new(dir.join("fedkemf")));
    }
    vec![
        Box::new(FedAvg::new(spec)),
        Box::new(FedProx::new(spec, 0.01)),
        Box::new(FedNova::new(spec)),
        Box::new(scaffold),
        Box::new(FedDf::new(spec, pool.clone())),
        Box::new(fedmd),
        Box::new(FedKemf::new(kemf_cfg)),
        Box::new(FedRolex::new(FedRolexConfig { server_spec: wide_mlp, client_width: 8 })),
        Box::new(FedGems::new(clients, big_server, pool)),
    ]
}

/// Post-download drops, stragglers cut by a deadline, retried uploads,
/// and a quorum of two: partial cohorts most rounds, aborts on some.
fn fault_storm() -> FaultConfig {
    FaultConfig {
        drop_after_download: 0.45,
        straggler_prob: 0.3,
        straggler_delay_s: 30.0,
        round_deadline_s: Some(15.0),
        upload_failure_prob: 0.4,
        upload_retries: 1,
        min_quorum: 2,
        ..Default::default()
    }
}

fn fingerprints(storm: bool) -> Vec<(String, u64)> {
    let spill: Option<PathBuf> = storm.then(|| {
        let dir = std::env::temp_dir().join(format!("kemf_golden_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    });
    let (ctx, task) = world(storm);
    let out = all_algorithms(&ctx, &task, spill.as_deref())
        .iter_mut()
        .map(|algo| {
            let opts = if storm { RunOptions::new().faults(fault_storm()) } else { RunOptions::new() };
            let history = Engine::run(algo.as_mut(), &ctx, opts).unwrap().history;
            if storm {
                let met = history.records.iter().filter(|r| r.quorum_met).count();
                assert!(
                    0 < met && met < history.rounds(),
                    "{}: the storm must both abort and complete rounds, {met}/{} met quorum",
                    algo.name(),
                    history.rounds()
                );
                assert!(history.records.iter().any(|r| r.wasted_up_bytes > 0), "no upload retried");
            }
            (algo.name(), fnv1a64(history.to_json().as_bytes()))
        })
        .collect();
    if let Some(dir) = spill {
        let _ = std::fs::remove_dir_all(dir);
    }
    out
}

#[test]
fn sync_histories_match_the_hand_written_round_bodies() {
    let _scalar = ScalarGuard::new();
    let defaults = fingerprints(false);
    let stormy = fingerprints(true);
    let actual: Vec<(String, u64, u64)> = defaults
        .into_iter()
        .zip(stormy)
        .map(|((name, d), (_, s))| (name, d, s))
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, d, s)| format!("    (\"{name}\", {d:#018x}, {s:#018x}),\n"))
        .collect();
    let expected: Vec<(String, u64, u64)> =
        GOLDEN.iter().map(|&(n, d, s)| (n.to_string(), d, s)).collect();
    assert_eq!(actual, expected, "sync histories moved; computed table:\n{table}");
}

#[test]
fn native_tier_histories_match_the_scalar_ones() {
    let actual = fingerprints(false);
    let table: String =
        actual.iter().map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n")).collect();
    let expected: Vec<(String, u64)> =
        GOLDEN.iter().map(|&(n, d, _)| (n.to_string(), d)).collect();
    assert_eq!(actual, expected, "native-tier histories moved; computed table:\n{table}");
}
