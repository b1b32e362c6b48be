//! Integration: crash-consistent checkpoint/resume. A run killed after a
//! checkpoint and resumed toward the full horizon must produce a history
//! that is byte-for-byte identical to an uninterrupted run — for the
//! paper's own algorithm (FedKEMF) and for the stateful baselines
//! (SCAFFOLD's control variates, FedNova's global model). Also covers
//! the refusal paths (mismatched seed, mismatched algorithm), crash
//! debris in the checkpoint directory, and a property test that
//! `restore(state())` round-trips for every algorithm in the stack.

use fedkemf::core::fedkemf::{FedKemf, FedKemfConfig};
use fedkemf::fl::checkpoint::CheckpointPolicy;
use fedkemf::fl::engine::{Engine, EngineError, FedAlgorithm, ResumeError, RunOptions};
use fedkemf::prelude::*;
use proptest::prelude::*;
use std::path::PathBuf;

fn world(seed: u64, rounds: usize) -> (FlContext, SynthTask) {
    let task = SynthTask::new(SynthConfig::mnist_like(seed));
    let train = task.generate(240, 0);
    let test = task.generate(80, 1);
    let cfg = FlConfig {
        n_clients: 4,
        sample_ratio: 0.75,
        rounds,
        local_epochs: 1,
        batch_size: 16,
        alpha: 0.5,
        min_per_client: 10,
        seed,
        ..Default::default()
    };
    (FlContext::new(cfg, &train, test), task)
}

/// The kill-and-resume matrix: the paper's algorithm, the two baselines
/// that carry the most server-side state, and the two
/// server-larger-than-client algorithms (a rolling-window MLP and a
/// logit-fused big server whose `server_trained` flag must survive).
fn matrix(ctx: &FlContext, task: &SynthTask) -> Vec<Box<dyn FedAlgorithm>> {
    let spec = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 3);
    let knowledge = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 99);
    let clients = uniform_specs(Arch::Cnn2, ctx.cfg.n_clients, 1, 12, 10, 5);
    let wide_mlp = ModelSpec { width: 32, ..ModelSpec::scaled(Arch::Mlp1, 1, 12, 10, 7) };
    let big_server = ModelSpec { width: 8, ..ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 900) };
    vec![
        Box::new(FedKemf::new(FedKemfConfig::uniform(
            knowledge,
            clients.clone(),
            task.generate_unlabeled(60, 2),
        ))),
        Box::new(Scaffold::new(spec)),
        Box::new(FedNova::new(spec)),
        Box::new(FedRolex::new(FedRolexConfig { server_spec: wide_mlp, client_width: 8 })),
        Box::new(FedGems::new(
            clients,
            big_server,
            task.generate_unlabeled(40, 3),
            10,
            FedGemsConfig::default(),
        )),
    ]
}

/// A fresh per-test checkpoint directory under the system temp dir.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kemf_resume_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn killed_and_resumed_runs_are_byte_identical() {
    for idx in 0..5 {
        // Uninterrupted reference: 8 rounds straight through.
        let (ctx8, task) = world(41, 8);
        let mut straight = matrix(&ctx8, &task);
        let name = straight[idx].name();
        let reference =
            Engine::run(straight[idx].as_mut(), &ctx8, RunOptions::new()).unwrap().history;

        // "Crashed" run: the same world with a 4-round horizon stands in
        // for a process killed after round 4's checkpoint landed.
        let dir = temp_dir(&format!("matrix_{idx}"));
        let (ctx4, task4) = world(41, 4);
        let mut partial = matrix(&ctx4, &task4);
        let report = Engine::run(
            partial[idx].as_mut(),
            &ctx4,
            RunOptions::new().checkpoint(CheckpointPolicy::new(&dir, 2)),
        )
        .unwrap();
        assert!(!report.checkpoints.is_empty(), "{name}: no checkpoints written");

        // Resume toward the full horizon with a fresh algorithm instance.
        let mut resumed = matrix(&ctx8, &task);
        let report =
            Engine::run(resumed[idx].as_mut(), &ctx8, RunOptions::new().resume_from(&dir))
                .unwrap();
        assert_eq!(report.resumed_from, Some(4), "{name}: wrong resume point");
        assert_eq!(report.history.rounds(), 8, "{name}: resume must finish the horizon");
        assert_eq!(
            report.history.to_json(),
            reference.to_json(),
            "{name}: resumed history must be byte-identical to the straight run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn crash_debris_never_corrupts_the_good_checkpoint() {
    let dir = temp_dir("debris");
    let (ctx8, task) = world(43, 8);
    let mut straight = matrix(&ctx8, &task);
    let reference = Engine::run(straight[0].as_mut(), &ctx8, RunOptions::new()).unwrap().history;

    let (ctx4, task4) = world(43, 4);
    let mut partial = matrix(&ctx4, &task4);
    Engine::run(
        partial[0].as_mut(),
        &ctx4,
        RunOptions::new().checkpoint(CheckpointPolicy::new(&dir, 2)),
    )
    .unwrap();

    // Simulate a crash mid-write: a truncated temp file plus a "newer"
    // checkpoint that is pure garbage. Resume must skip both and pick the
    // newest *loadable* checkpoint.
    std::fs::write(dir.join("round_00006.ckpt.tmp"), b"truncated mid-write").unwrap();
    std::fs::write(dir.join("round_00099.ckpt"), b"not a checkpoint at all").unwrap();
    // Newest of all: a 40-byte file with a valid header whose model count
    // reads 2^32. A count the file cannot hold must be refused before
    // anything is allocated for it — otherwise the process aborts inside
    // the allocator here and the fallback below never runs.
    let mut hostile = b"KEMFCKPT".to_vec();
    hostile.extend_from_slice(&2u32.to_le_bytes());
    hostile.extend_from_slice(&0u64.to_le_bytes()); // empty meta
    hostile.extend_from_slice(&(1u64 << 32).to_le_bytes()); // model count
    hostile.extend_from_slice(&[0u8; 12]);
    assert_eq!(hostile.len(), 40);
    std::fs::write(dir.join("round_00100.ckpt"), &hostile).unwrap();

    let mut resumed = matrix(&ctx8, &task);
    let report = Engine::run(resumed[0].as_mut(), &ctx8, RunOptions::new().resume_from(&dir))
        .unwrap();
    assert_eq!(report.resumed_from, Some(4));
    assert_eq!(report.history.to_json(), reference.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A bit-flipped in-flight event in the newest *async* checkpoint: a
/// model whose `lens` no longer add up to its values. The decoder must
/// refuse the file so resume falls back to the previous checkpoint —
/// accepting it would restore the lie and panic later, mid-fusion.
#[test]
fn corrupt_in_flight_event_falls_back_to_the_previous_async_checkpoint() {
    use fedkemf::fl::checkpoint::{load_run, save_run};
    let net = NetworkModel { bandwidth_bps: 5e5, latency_s: 0.1 };
    let mode = || AsyncConfig::new(2).max_staleness(3).staleness_decay(0.7).network(net);
    let (ctx8, task) = world(46, 8);
    let reference =
        Engine::run(matrix(&ctx8, &task)[2].as_mut(), &ctx8, RunOptions::new().async_rounds(mode()))
            .unwrap()
            .history;

    let dir = temp_dir("async_event");
    let (ctx4, task4) = world(46, 4);
    Engine::run(
        matrix(&ctx4, &task4)[2].as_mut(),
        &ctx4,
        RunOptions::new().async_rounds(mode()).checkpoint(CheckpointPolicy::new(&dir, 2)),
    )
    .unwrap();

    let mut newest = load_run(&dir).unwrap();
    assert_eq!(newest.next_round, 4);
    let events = &mut newest.scheduler.as_mut().expect("async checkpoint").events;
    match &mut events.first_mut().expect("an update is in flight at the cut").update.payload {
        UpdatePayload::State(state) => state.params.lens[0] += 1,
        other => panic!("FedNova ships model states, got {other:?}"),
    }
    save_run(&newest, &dir).unwrap();

    let report = Engine::run(
        matrix(&ctx8, &task)[2].as_mut(),
        &ctx8,
        RunOptions::new().async_rounds(mode()).resume_from(&dir),
    )
    .unwrap();
    assert_eq!(report.resumed_from, Some(2), "the corrupt round-4 file must be skipped");
    assert_eq!(report.history.to_json(), reference.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The history is the byte ledger a resumed run continues from: a
/// checkpoint whose stored `cum_bytes` disagrees with its own byte
/// columns is refused, not silently carried into every later total.
#[test]
fn resume_refuses_a_tampered_cumulative_byte_count() {
    use fedkemf::fl::checkpoint::{load_run, save_run};
    let dir = temp_dir("cum_bytes");
    let (ctx, task) = world(47, 4);
    Engine::run(
        matrix(&ctx, &task)[2].as_mut(),
        &ctx,
        RunOptions::new().checkpoint(CheckpointPolicy::new(&dir, 2)),
    )
    .unwrap();
    let mut newest = load_run(&dir).unwrap();
    newest.records[1].cum_bytes += 1;
    save_run(&newest, &dir).unwrap();

    let (ctx8, task8) = world(47, 8);
    let err = Engine::run(
        matrix(&ctx8, &task8)[2].as_mut(),
        &ctx8,
        RunOptions::new().resume_from(&dir),
    )
    .unwrap_err();
    assert!(
        matches!(err, EngineError::Resume(ResumeError::Inconsistent { .. })),
        "expected an inconsistent-checkpoint refusal, got: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_refuses_a_mismatched_config_fingerprint() {
    let dir = temp_dir("fingerprint");
    let (ctx, task) = world(44, 4);
    let mut algos = matrix(&ctx, &task);
    Engine::run(
        algos[2].as_mut(),
        &ctx,
        RunOptions::new().checkpoint(CheckpointPolicy::new(&dir, 2)),
    )
    .unwrap();

    // Same algorithm and data, different seed: the stored fingerprint no
    // longer matches, so the engine must refuse rather than resume
    // divergently.
    let (mut reseeded, _) = world(44, 4);
    reseeded.cfg.seed = 999;
    let mut fresh = matrix(&reseeded, &task);
    let err =
        Engine::run(fresh[2].as_mut(), &reseeded, RunOptions::new().resume_from(&dir)).unwrap_err();
    assert!(
        matches!(err, EngineError::Resume(ResumeError::FingerprintMismatch { .. })),
        "expected fingerprint mismatch, got: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_refuses_a_different_algorithm() {
    let dir = temp_dir("algorithm");
    let (ctx, task) = world(45, 4);
    let mut algos = matrix(&ctx, &task);
    Engine::run(
        algos[1].as_mut(), // SCAFFOLD writes the checkpoint…
        &ctx,
        RunOptions::new().checkpoint(CheckpointPolicy::new(&dir, 2)),
    )
    .unwrap();

    let mut other = FedAvg::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 3));
    let err = Engine::run(&mut other, &ctx, RunOptions::new().resume_from(&dir)).unwrap_err();
    assert!(
        matches!(err, EngineError::Resume(ResumeError::AlgorithmMismatch { .. })),
        "expected algorithm mismatch, got: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every algorithm in the comparison, built fresh on a tiny world.
fn all_algorithms(ctx: &FlContext, task: &SynthTask) -> Vec<Box<dyn FedAlgorithm>> {
    let spec = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 3);
    let knowledge = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 99);
    let clients = uniform_specs(Arch::Cnn2, ctx.cfg.n_clients, 1, 12, 10, 5);
    let pool = task.generate_unlabeled(40, 2);
    let wide_mlp = ModelSpec { width: 32, ..ModelSpec::scaled(Arch::Mlp1, 1, 12, 10, 7) };
    let big_server = ModelSpec { width: 8, ..ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 900) };
    vec![
        Box::new(FedAvg::new(spec)),
        Box::new(FedProx::new(spec, 0.01)),
        Box::new(FedNova::new(spec)),
        Box::new(Scaffold::new(spec)),
        Box::new(FedDf::new(spec, pool.clone())),
        Box::new(FedMd::new(clients.clone(), pool.clone(), 10, FedMdConfig::default())),
        Box::new(FedKemf::new(FedKemfConfig::uniform(knowledge, clients.clone(), pool.clone()))),
        Box::new(FedRolex::new(FedRolexConfig { server_spec: wide_mlp, client_width: 8 })),
        Box::new(FedGems::new(clients, big_server, pool, 10, FedGemsConfig::default())),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `restore(state())` is the identity for every algorithm: a fresh
    /// instance restored from a trained instance's state reports the
    /// exact same state back.
    #[test]
    fn restore_state_round_trips_for_every_algorithm(seed in 0u64..500) {
        let (ctx, task) = world(seed, 2);
        let trained = {
            let mut algos = all_algorithms(&ctx, &task);
            for algo in &mut algos {
                Engine::run(algo.as_mut(), &ctx, RunOptions::new()).unwrap();
            }
            algos
        };
        let mut fresh = all_algorithms(&ctx, &task);
        for (t, f) in trained.iter().zip(fresh.iter_mut()) {
            let snapshot = t.state().unwrap();
            f.init(&ctx).unwrap();
            f.restore(&snapshot).unwrap();
            prop_assert!(
                f.state().unwrap() == snapshot,
                "{} state must survive a restore round-trip",
                t.name()
            );
        }
    }
}
