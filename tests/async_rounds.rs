//! Integration: buffered-asynchronous rounds. The correctness anchor is
//! the equivalence theorem the scheduler is built around: with the
//! buffer sized to the whole cohort and zero injected delay, every
//! update arrives fresh (staleness 0, weight exactly 1.0) in sampled
//! order, so the asynchronous history must serialize byte-for-byte
//! identically to the synchronous one — for every algorithm in the
//! stack, including the FedKEMF/FedMD distillation paths. On top of the
//! anchor: staleness-cap eviction under a real network model, and
//! kill-and-resume byte-identity with in-flight updates in the queue.

use fedkemf::core::fedkemf::{FedKemf, FedKemfConfig};
use fedkemf::fl::checkpoint::CheckpointPolicy;
use fedkemf::fl::engine::{Engine, FedAlgorithm, RunOptions};
use fedkemf::fl::trace::TraceSink;
use fedkemf::nn::codec::{fnv1a64, FNV_OFFSET};
use fedkemf::prelude::*;
use std::path::PathBuf;

fn world(seed: u64, rounds: usize) -> (FlContext, SynthTask) {
    let task = SynthTask::new(SynthConfig::mnist_like(seed));
    let train = task.generate(240, 0);
    let test = task.generate(80, 1);
    let cfg = FlConfig {
        n_clients: 4,
        sample_ratio: 1.0,
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

/// Every algorithm in the comparison, built fresh.
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

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kemf_async_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The anchor: `buffer_size == cohort` + zero delay ⇒ the async history
/// is bit-for-bit the sync history, for every algorithm — weighted folds
/// at weight exactly 1.0 reproduce the synchronous f32 accumulation.
#[test]
fn full_buffer_zero_delay_matches_sync_bit_for_bit_for_every_algorithm() {
    let (ctx, task) = world(101, 3);
    let mut sync_algos = all_algorithms(&ctx, &task);
    let mut async_algos = all_algorithms(&ctx, &task);
    for (s, a) in sync_algos.iter_mut().zip(async_algos.iter_mut()) {
        let name = s.name();
        let sync = Engine::run(s.as_mut(), &ctx, RunOptions::new()).unwrap();
        let cohort = ctx.cfg.sampled_per_round();
        let report = Engine::run(
            a.as_mut(),
            &ctx,
            RunOptions::new().async_rounds(AsyncConfig::new(cohort)),
        )
        .unwrap();
        assert_eq!(
            report.history.to_json(),
            sync.history.to_json(),
            "{name}: full-buffer async must reproduce the sync history exactly"
        );
        // No network model, no stragglers: the virtual clock never moves.
        assert_eq!(report.sim_time_s, Some(0.0), "{name}");
        assert_eq!(sync.sim_time_s, None, "{name}: sync runs have no virtual clock");
    }
}

/// A cohort-sized buffer over a network model still folds every wave in
/// its own cycle (uniform transfer times arrive together), but the
/// virtual clock now advances by the modeled transfer times.
#[test]
fn uniform_network_delays_preserve_equivalence_and_advance_the_clock() {
    let (ctx, task) = world(102, 3);
    let mut algos = all_algorithms(&ctx, &task);
    let sync = Engine::run(algos[0].as_mut(), &ctx, RunOptions::new()).unwrap();
    let net = NetworkModel { bandwidth_bps: 1e6, latency_s: 0.05 };
    let mut avg = all_algorithms(&ctx, &task);
    let report = Engine::run(
        avg[0].as_mut(),
        &ctx,
        RunOptions::new().async_rounds(AsyncConfig::new(4).network(net)),
    )
    .unwrap();
    assert_eq!(report.history.to_json(), sync.history.to_json());
    let t = report.sim_time_s.unwrap();
    assert!(t > 0.0, "transfer times must advance the virtual clock, got {t}");
}

/// With a one-slot buffer and a tight staleness cap, updates queue up,
/// age past the cap, and are evicted: their uplink bytes are charged as
/// waste and the `Phase::Buffer` counters record both staleness and
/// eviction.
#[test]
fn staleness_cap_evicts_queued_updates_and_charges_their_uplink_as_waste() {
    let (ctx, task) = world(103, 6);
    let mut algos = all_algorithms(&ctx, &task);
    let algo = algos[0].as_mut();
    let per_up = algo.client_plans(0, &[0])[0].payload.up_bytes;
    let mut sink = TraceSink::new();
    let report = Engine::run(
        algo,
        &ctx,
        RunOptions::new()
            .async_rounds(AsyncConfig::new(1).max_staleness(1).staleness_decay(0.5))
            .sink(&mut sink),
    )
    .unwrap();
    // Each cycle dispatches 4 and folds 1, so the queue grows and the
    // cap must evict.
    let stale: u64 = sink
        .spans()
        .iter()
        .filter(|s| s.phase == Phase::Buffer)
        .map(|s| s.counters.stale_updates)
        .sum();
    let evicted: u64 = sink
        .spans()
        .iter()
        .filter(|s| s.phase == Phase::Buffer)
        .map(|s| s.counters.evicted_updates)
        .sum();
    assert!(stale > 0, "a one-slot buffer must fold stale updates");
    assert!(evicted > 0, "the staleness cap must evict aged updates");
    // Evictions surface in the history as wasted uplink, at exactly the
    // per-update payload.
    let wasted: u64 = report.history.records.iter().map(|r| r.wasted_up_bytes).sum();
    assert_eq!(wasted, evicted * per_up, "evicted uplink charged as waste");
    // Every cycle folds at most the buffer size.
    for r in &report.history.records {
        assert!(r.up_clients <= 1, "round {}: buffer bounds the fold", r.round);
    }
    // Conservation: nothing folds twice — accepted plus evicted never
    // exceeds what was dispatched.
    let folded: usize = report.history.records.iter().map(|r| r.up_clients).sum();
    let dispatched: usize = report.plans.iter().map(|p| p.reporters().len()).sum();
    assert!(folded as u64 + evicted <= dispatched as u64);
}

/// Kill-and-resume under async: a checkpoint taken mid-run carries the
/// virtual clock and the in-flight event queue, so the resumed run's
/// history is byte-for-byte the uninterrupted one. SCAFFOLD rides along
/// to cover deferred client-store commits crossing the checkpoint.
#[test]
fn async_killed_and_resumed_runs_are_byte_identical() {
    let net = NetworkModel { bandwidth_bps: 5e5, latency_s: 0.1 };
    let mode = || AsyncConfig::new(2).max_staleness(3).staleness_decay(0.7).network(net);
    for idx in [0usize, 3, 7, 8] {
        // FedAvg, SCAFFOLD, and the server-larger-than-client pair —
        // the last two park Window and Logits payloads in the in-flight
        // queue at the cut, the cases the v3 checkpoint format carries.
        let (ctx8, task) = world(104, 8);
        let mut straight = all_algorithms(&ctx8, &task);
        let name = straight[idx].name();
        let reference = Engine::run(
            straight[idx].as_mut(),
            &ctx8,
            RunOptions::new().async_rounds(mode()),
        )
        .unwrap();

        let dir = temp_dir(&format!("resume_{idx}"));
        let (ctx4, task4) = world(104, 4);
        let mut partial = all_algorithms(&ctx4, &task4);
        let report = Engine::run(
            partial[idx].as_mut(),
            &ctx4,
            RunOptions::new()
                .async_rounds(mode())
                .checkpoint(CheckpointPolicy::new(&dir, 2)),
        )
        .unwrap();
        assert!(!report.checkpoints.is_empty(), "{name}: no checkpoints written");
        // A one-slot-short buffer with real transfer times leaves work in
        // flight at the cut — the interesting case for the v2 format.

        let mut resumed = all_algorithms(&ctx8, &task);
        let report = Engine::run(
            resumed[idx].as_mut(),
            &ctx8,
            RunOptions::new().async_rounds(mode()).resume_from(&dir),
        )
        .unwrap();
        assert_eq!(report.resumed_from, Some(4), "{name}");
        assert_eq!(
            report.history.to_json(),
            reference.history.to_json(),
            "{name}: resumed async history must be byte-identical"
        );
        assert_eq!(
            report.sim_time_s.unwrap().to_bits(),
            reference.sim_time_s.unwrap().to_bits(),
            "{name}: the virtual clock must survive the resume exactly"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Cross-mode resume is refused in both directions, and so is resuming
/// under different async knobs: the knobs are part of the run identity.
/// Runs for FedAvg and both server-larger-than-client algorithms — the
/// refusal must not depend on the payload shape in the queue.
#[test]
fn async_resume_refuses_other_modes_and_other_knobs() {
    for idx in [0usize, 7, 8] {
        let dir = temp_dir(&format!("crossmode_{idx}"));
        let (ctx, task) = world(105, 4);
        let mut algos = all_algorithms(&ctx, &task);
        let name = algos[idx].name();
        Engine::run(
            algos[idx].as_mut(),
            &ctx,
            RunOptions::new()
                .async_rounds(AsyncConfig::new(2))
                .checkpoint(CheckpointPolicy::new(&dir, 2)),
        )
        .unwrap();
        // Async checkpoint, sync resume.
        let mut sync = all_algorithms(&ctx, &task);
        assert!(
            Engine::run(sync[idx].as_mut(), &ctx, RunOptions::new().resume_from(&dir)).is_err(),
            "{name}: sync resume from an async checkpoint must be refused"
        );
        // Async resume with different knobs.
        let mut other = all_algorithms(&ctx, &task);
        assert!(
            Engine::run(
                other[idx].as_mut(),
                &ctx,
                RunOptions::new()
                    .async_rounds(AsyncConfig::new(3))
                    .resume_from(&dir)
            )
            .is_err(),
            "{name}: a different buffer size is a different run"
        );
        // The original knobs resume fine.
        let (ctx8, task8) = world(105, 8);
        let mut same = all_algorithms(&ctx8, &task8);
        let report = Engine::run(
            same[idx].as_mut(),
            &ctx8,
            RunOptions::new()
                .async_rounds(AsyncConfig::new(2))
                .resume_from(&dir),
        )
        .unwrap();
        assert_eq!(report.resumed_from, Some(4), "{name}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The link and the staleness cap are part of the run identity: a
/// checkpoint taken under one trajectory must refuse to seed another, and
/// must resume cleanly under its own knobs.
#[test]
fn async_link_and_staleness_cap_are_part_of_the_run_identity() {
    let dir = temp_dir("identity");
    let net = NetworkModel { bandwidth_bps: 1_000_000.0, latency_s: 0.05 };
    let mode = || AsyncConfig::new(2).network(net);
    let (ctx, task) = world(106, 4);
    let mut algos = all_algorithms(&ctx, &task);
    Engine::run(
        algos[0].as_mut(),
        &ctx,
        RunOptions::new().async_rounds(mode()).checkpoint(CheckpointPolicy::new(&dir, 2)),
    )
    .unwrap();

    // Another link, or another staleness cap, is another trajectory.
    let slower = NetworkModel { bandwidth_bps: 500_000.0, latency_s: 0.05 };
    for changed in [mode().network(slower), mode().max_staleness(1)] {
        let mut other = all_algorithms(&ctx, &task);
        let opts = RunOptions::new().async_rounds(changed.clone()).resume_from(&dir);
        assert!(Engine::run(other[0].as_mut(), &ctx, opts).is_err(), "{changed:?} resumed");
    }
    // The original knobs resume to the full horizon.
    let (ctx8, task8) = world(106, 8);
    let mut same = all_algorithms(&ctx8, &task8);
    let report = Engine::run(
        same[0].as_mut(),
        &ctx8,
        RunOptions::new().async_rounds(mode()).resume_from(&dir),
    )
    .unwrap();
    assert_eq!(report.resumed_from, Some(4));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A run over one fleet-wide link is pinned to its virtual clock and
/// history: a change to arrival times or transfer pricing fails here.
#[test]
fn one_link_run_keeps_its_pinned_clock_and_history() {
    let net = NetworkModel { bandwidth_bps: 1_000_000.0, latency_s: 0.05 };
    let (ctx, task) = world(107, 4);
    let mut algos = all_algorithms(&ctx, &task);
    let report = Engine::run(
        algos[0].as_mut(),
        &ctx,
        RunOptions::new().async_rounds(AsyncConfig::new(2).network(net)),
    )
    .unwrap();
    let history = fnv1a64(FNV_OFFSET, report.history.to_json().as_bytes());
    let got = (report.sim_time_s.unwrap().to_bits(), history);
    assert_eq!(got, (0x3fd1_ca7d_6733_ebc0, 0xbe53_c83c_9bc0_d7e7));
}
