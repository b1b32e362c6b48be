//! Integration: crash-consistent checkpoint/resume. A killed and resumed
//! run yields the straight run's history (`equivalence.rs`'s property).
//! Covers the refusal paths (mismatched seed, mismatched algorithm, a FedKEMF
//! checkpoint under another distillation temperature), what the run
//! identity covers for each of the nine algorithms and what it leaves
//! out, crash debris in the checkpoint directory, and a property test
//! that `restore(state())` round-trips for every algorithm in the stack.

mod common;

use common::equivalence::{check, trained, Presentation, Scenario, Transport, PLAIN};
use common::{all_algorithms, temp_dir, world};
use fedkemf::core::fedkemf::{FedKemf, FedKemfConfig};
use fedkemf::fl::checkpoint::{load_run, run_fingerprint, CheckpointPolicy};
use fedkemf::fl::engine::{Engine, EngineError, FedAlgorithm, ResumeError, RunOptions};
use fedkemf::prelude::*;
use proptest::prelude::*;
use std::collections::HashSet;

/// A process killed after round 4's checkpoint landed, resumed toward an
/// 8-round horizon by a fresh instance, finishes the horizon with the
/// straight run's history: FedKEMF, SCAFFOLD, FedNova, FedRolex, FedGEMS.
#[test]
fn killed_and_resumed_runs_are_byte_identical() {
    let resumed = Presentation { resume: Some((4, Transport::InProc)), ..PLAIN };
    for algo in [6, 3, 2, 7, 8] {
        let s = Scenario { rounds: 8, ..trained(algo, 0, 41) };
        check(&format!("resume_{algo}"), &s, &[resumed]);
    }
}

#[test]
fn crash_debris_never_corrupts_the_good_checkpoint() {
    let dir = temp_dir("debris");
    let (ctx8, task) = world(43, 8);
    let mut straight = all_algorithms(&ctx8, &task, None);
    let reference = Engine::run(straight[6].as_mut(), &ctx8, RunOptions::new()).unwrap().history;

    let (ctx4, task4) = world(43, 4);
    let mut partial = all_algorithms(&ctx4, &task4, None);
    Engine::run(
        partial[6].as_mut(),
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

    let mut resumed = all_algorithms(&ctx8, &task, None);
    let report = Engine::run(resumed[6].as_mut(), &ctx8, RunOptions::new().resume_from(&dir))
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
        Engine::run(all_algorithms(&ctx8, &task, None)[2].as_mut(), &ctx8, RunOptions::new().async_rounds(mode()))
            .unwrap()
            .history;

    let dir = temp_dir("async_event");
    let (ctx4, task4) = world(46, 4);
    Engine::run(
        all_algorithms(&ctx4, &task4, None)[2].as_mut(),
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
        all_algorithms(&ctx8, &task, None)[2].as_mut(),
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
        all_algorithms(&ctx, &task, None)[2].as_mut(),
        &ctx,
        RunOptions::new().checkpoint(CheckpointPolicy::new(&dir, 2)),
    )
    .unwrap();
    let mut newest = load_run(&dir).unwrap();
    newest.records[1].cum_bytes += 1;
    save_run(&newest, &dir).unwrap();

    let (ctx8, task8) = world(47, 8);
    let err = Engine::run(
        all_algorithms(&ctx8, &task8, None)[2].as_mut(),
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
    let mut algos = all_algorithms(&ctx, &task, None);
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
    let mut fresh = all_algorithms(&reseeded, &task, None);
    let err =
        Engine::run(fresh[2].as_mut(), &reseeded, RunOptions::new().resume_from(&dir)).unwrap_err();
    assert!(
        matches!(err, EngineError::Resume(ResumeError::FingerprintMismatch { .. })),
        "expected fingerprint mismatch, got: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A FedKEMF checkpoint written at distillation temperature 2 belongs to
/// another run than one at 4: the state fits either (the architecture is
/// the same), so only the identity can keep the two histories apart.
#[test]
fn resume_refuses_a_fedkemf_checkpoint_under_another_temperature() {
    let dir = temp_dir("temperature");
    let kemf = |ctx: &FlContext, task: &SynthTask, temperature: f32| {
        let knowledge = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 99);
        let clients = uniform_specs(Arch::Cnn2, ctx.cfg.n_clients, 1, 12, 10, 5);
        let mut cfg = FedKemfConfig::uniform(knowledge, clients, task.generate_unlabeled(60, 2));
        cfg.distill.temperature = temperature;
        FedKemf::new(cfg)
    };
    let (ctx4, task4) = world(48, 4);
    let policy = CheckpointPolicy::new(&dir, 2);
    Engine::run(&mut kemf(&ctx4, &task4, 2.0), &ctx4, RunOptions::new().checkpoint(policy))
        .unwrap();

    let (ctx8, task8) = world(48, 8);
    let err = Engine::run(&mut kemf(&ctx8, &task8, 4.0), &ctx8, RunOptions::new().resume_from(&dir))
        .unwrap_err();
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
    let mut algos = all_algorithms(&ctx, &task, None);
    Engine::run(
        algos[3].as_mut(), // SCAFFOLD writes the checkpoint…
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

/// `base`, then one model spec per knob `Writer::spec` encodes, each
/// differing from `base` in that knob alone.
fn spec_knobs(base: ModelSpec) -> Vec<ModelSpec> {
    let arch = if base.arch == Arch::Mlp1 { Arch::Cnn2 } else { Arch::Mlp1 };
    vec![
        base,
        ModelSpec { arch, ..base },
        ModelSpec { in_channels: base.in_channels + 1, ..base },
        ModelSpec { input_hw: base.input_hw + 4, ..base },
        ModelSpec { classes: base.classes + 1, ..base },
        ModelSpec { width: base.width + 1, ..base },
        ModelSpec { seed: base.seed + 1, ..base },
    ]
}

/// The default distillation, then one config per knob it encodes.
fn distill_knobs() -> Vec<DistillConfig> {
    let d = DistillConfig::default();
    vec![
        d,
        DistillConfig { epochs: d.epochs + 1, ..d },
        DistillConfig { sgd: SgdConfig { lr: 0.03, ..d.sgd }, ..d },
        DistillConfig { sgd: SgdConfig { momentum: 0.5, ..d.sgd }, ..d },
        DistillConfig { sgd: SgdConfig { weight_decay: 1e-3, ..d.sgd }, ..d },
        DistillConfig { temperature: 4.0, ..d },
        DistillConfig { strategy: EnsembleStrategy::AvgLogits, ..d },
    ]
}

/// The client specs `all_algorithms` hands out, then one list per knob
/// of the first client's spec, and one with a client more.
fn client_knobs(ctx: &FlContext) -> Vec<Vec<ModelSpec>> {
    let clients = uniform_specs(Arch::Cnn2, ctx.cfg.n_clients, 1, 12, 10, 5);
    let mut out: Vec<_> = spec_knobs(clients[0])
        .into_iter()
        .map(|first| [vec![first], clients[1..].to_vec()].concat())
        .collect();
    out.push([clients.clone(), vec![clients[0]]].concat());
    out
}

/// Each of the nine algorithms as `all_algorithms` builds it, followed by
/// one instance per knob its `identity` writes, that knob alone turned.
fn knob_variants(ctx: &FlContext, task: &SynthTask) -> Vec<Vec<Box<dyn FedAlgorithm>>> {
    type Algo = Box<dyn FedAlgorithm>;
    let spec = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 3);
    let clients = client_knobs(ctx).swap_remove(0);
    let pool = task.generate_unlabeled(40, 2);
    let weights = |build: fn(ModelSpec) -> Algo| spec_knobs(spec).into_iter().map(build).collect();
    let prox = spec_knobs(spec).into_iter().map(|s| (s, 0.01)).chain([(spec, 0.1)]);

    let knowledge = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 99);
    let kemf = FedKemfConfig::uniform(knowledge, clients.clone(), pool.clone());
    let mut kemf_knobs = vec![kemf.clone()];
    for knowledge_spec in spec_knobs(kemf.knowledge_spec).into_iter().skip(1) {
        kemf_knobs.push(FedKemfConfig { knowledge_spec, ..kemf.clone() });
    }
    for client_specs in client_knobs(ctx).into_iter().skip(1) {
        kemf_knobs.push(FedKemfConfig { client_specs, ..kemf.clone() });
    }
    for distill in distill_knobs().into_iter().skip(1) {
        kemf_knobs.push(FedKemfConfig { distill, ..kemf.clone() });
    }
    kemf_knobs.extend([
        FedKemfConfig { fusion: FusionMode::WeightAverage, ..kemf.clone() },
        FedKemfConfig { kl_weight: 0.5, ..kemf.clone() },
        FedKemfConfig { mutual: false, ..kemf.clone() },
        FedKemfConfig { kl_warmup_rounds: 3, ..kemf.clone() },
    ]);
    let wide_mlp = ModelSpec { width: 32, ..ModelSpec::scaled(Arch::Mlp1, 1, 12, 10, 7) };
    let rolex = spec_knobs(wide_mlp).into_iter().filter(|s| s.arch == Arch::Mlp1);
    let rolex = rolex.map(|server_spec| FedRolexConfig { server_spec, client_width: 8 });
    let rolex = rolex.chain([FedRolexConfig { server_spec: wide_mlp, client_width: 5 }]);
    let big_server = ModelSpec { width: 8, ..ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 900) };
    let gems_knobs = spec_knobs(big_server).into_iter().map(|s| (clients.clone(), s));
    let gems_knobs =
        gems_knobs.chain(client_knobs(ctx).into_iter().skip(1).map(|c| (c, big_server)));
    vec![
        weights(|s| Box::new(FedAvg::new(s))),
        prox.map(|(s, mu)| Box::new(FedProx::new(s, mu)) as Algo).collect(),
        weights(|s| Box::new(FedNova::new(s))),
        weights(|s| Box::new(Scaffold::new(s))),
        spec_knobs(spec).into_iter().map(|s| Box::new(FedDf::new(s, pool.clone())) as Algo).collect(),
        client_knobs(ctx).into_iter().map(|c| Box::new(FedMd::new(c, pool.clone())) as Algo).collect(),
        kemf_knobs.into_iter().map(|c| Box::new(FedKemf::new(c)) as Algo).collect(),
        rolex.map(|c| Box::new(FedRolex::new(c)) as Algo).collect(),
        gems_knobs.map(|(c, s)| Box::new(FedGems::new(c, s, pool.clone())) as Algo).collect(),
    ]
}

/// Every knob an algorithm's `identity` writes is part of the run: turning
/// any one of them alone gives another fingerprint, for all nine.
#[test]
fn every_identity_knob_moves_the_fingerprint() {
    let (ctx, task) = world(49, 2);
    let faults = FaultConfig::default();
    let groups = knob_variants(&ctx, &task);
    let names: Vec<_> = all_algorithms(&ctx, &task, None).iter().map(|a| a.name()).collect();
    assert_eq!(groups.iter().map(|g| g[0].name()).collect::<Vec<_>>(), names);
    for group in &groups {
        let prints: HashSet<u64> =
            group.iter().map(|a| run_fingerprint(&ctx.cfg, &faults, a.as_ref())).collect();
        assert_eq!(prints.len(), group.len(), "{}: a knob left the fingerprint alone", group[0].name());
    }
}

/// The horizon, the transport and the spill directory are presentation:
/// a run checkpointed over sockets with its client state spilled stores
/// the fingerprint of the same run in-process, resident, at another
/// horizon.
#[test]
fn rounds_transport_and_spill_stay_out_of_the_fingerprint() {
    let dir = temp_dir("presentation");
    let (ctx1, task) = world(50, 1);
    let (ctx9, task9) = world(50, 9);
    let resident = all_algorithms(&ctx9, &task9, None);
    let presented = all_algorithms(&ctx1, &task, Some(&dir.join("spill")));
    for (idx, (plain, mut algo)) in resident.iter().zip(presented).enumerate() {
        let ckpt = dir.join(format!("ckpt_{idx}"));
        let opts = RunOptions::new()
            .socket_transport(SocketConfig::threads(1))
            .checkpoint(CheckpointPolicy::new(&ckpt, 1));
        Engine::run(algo.as_mut(), &ctx1, opts).unwrap();
        assert_eq!(
            load_run(&ckpt).unwrap().fingerprint,
            run_fingerprint(&ctx9.cfg, &FaultConfig::default(), plain.as_ref()),
            "{}",
            plain.name()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
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
            let mut algos = all_algorithms(&ctx, &task, None);
            for algo in &mut algos {
                Engine::run(algo.as_mut(), &ctx, RunOptions::new()).unwrap();
            }
            algos
        };
        let mut fresh = all_algorithms(&ctx, &task, None);
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
