//! Integration: buffered-asynchronous rounds. The anchor is the
//! equivalence theorem the scheduler is built around: with the buffer
//! sized to the cohort, every update folds fresh in sampled order
//! whatever the delays, so async and sync runs yield one history (`equivalence.rs`'s
//! property, here over every algorithm). Beyond it: staleness-cap eviction
//! under a one-slot buffer, kill-and-resume with updates in flight, the
//! async knobs as part of the run identity, and one run over a fleet-wide
//! link pinned to its clock and history.

mod common;

use common::equivalence::{check, trained, Mode, Presentation, Scenario, Transport, PLAIN};
use common::{all_algorithms, temp_dir};
use fedkemf::fl::checkpoint::CheckpointPolicy;
use fedkemf::fl::engine::Engine;
use fedkemf::fl::trace::TraceSink;
use fedkemf::nn::codec::{fnv1a64, FNV_OFFSET};
use fedkemf::prelude::*;

/// The shared world with every client sampled each round.
fn world(seed: u64, rounds: usize) -> (FlContext, SynthTask) {
    let (mut ctx, task) = common::world(seed, rounds);
    ctx.cfg.sample_ratio = 1.0;
    (ctx, task)
}

/// A cohort-sized buffer without delays reproduces the sync history, round
/// plans and cohorts of every algorithm, FedKEMF's and FedMD's
/// distillation included: folds at weight exactly 1.0 repeat the sync f32
/// accumulation, and the clock never moves.
#[test]
fn full_buffer_zero_delay_matches_sync_bit_for_bit_for_every_algorithm() {
    for algo in 0..9 {
        let s = Scenario { sample_ratio: 1.0, ..trained(algo, 0, 101) };
        check(&format!("full_buffer_{algo}"), &s, &[Presentation { mode: Mode::Async, ..PLAIN }]);
    }
}

/// Over a uniform link a cohort-sized buffer still folds every wave in its
/// own cycle, while the modelled transfer times advance the clock.
#[test]
fn uniform_network_delays_preserve_equivalence_and_advance_the_clock() {
    let s = Scenario { sample_ratio: 1.0, ..trained(0, 0, 102) };
    check("uniform_link", &s, &[Presentation { mode: Mode::AsyncLink, ..PLAIN }]);
}

/// A checkpoint taken mid-run carries the virtual clock and the in-flight
/// queue, so a run killed after round 4 and resumed yields the straight
/// run's history and clock bit for bit. SCAFFOLD covers deferred client
/// commits across the cut; FedRolex and FedGEMS park Window and Logits
/// payloads in flight.
#[test]
fn async_killed_and_resumed_runs_are_byte_identical() {
    for algo in [0, 3, 7, 8] {
        let s = Scenario { rounds: 8, sample_ratio: 1.0, buffered: true, ..trained(algo, 0, 104) };
        let resumed =
            Presentation { mode: Mode::Buffered, resume: Some((4, Transport::InProc)), ..PLAIN };
        check(&format!("async_resume_{algo}"), &s, &[resumed]);
    }
}

/// With a one-slot buffer and a tight staleness cap, updates queue up,
/// age past the cap, and are evicted: their uplink bytes are charged as
/// waste and the `Phase::Buffer` counters record both staleness and
/// eviction.
#[test]
fn staleness_cap_evicts_queued_updates_and_charges_their_uplink_as_waste() {
    let (ctx, task) = world(103, 6);
    let mut algos = all_algorithms(&ctx, &task, None);
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

/// Cross-mode resume is refused in both directions, and so is resuming
/// under different async knobs: the knobs are part of the run identity.
/// Runs for FedAvg and both server-larger-than-client algorithms — the
/// refusal must not depend on the payload shape in the queue.
#[test]
fn async_resume_refuses_other_modes_and_other_knobs() {
    for idx in [0usize, 7, 8] {
        let dir = temp_dir(&format!("async_crossmode_{idx}"));
        let (ctx, task) = world(105, 4);
        let mut algos = all_algorithms(&ctx, &task, None);
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
        let mut sync = all_algorithms(&ctx, &task, None);
        assert!(
            Engine::run(sync[idx].as_mut(), &ctx, RunOptions::new().resume_from(&dir)).is_err(),
            "{name}: sync resume from an async checkpoint must be refused"
        );
        // Async resume with different knobs.
        let mut other = all_algorithms(&ctx, &task, None);
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
        let mut same = all_algorithms(&ctx8, &task8, None);
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
    let dir = temp_dir("async_identity");
    let net = NetworkModel { bandwidth_bps: 1_000_000.0, latency_s: 0.05 };
    let mode = || AsyncConfig::new(2).network(net);
    let (ctx, task) = world(106, 4);
    let mut algos = all_algorithms(&ctx, &task, None);
    Engine::run(
        algos[0].as_mut(),
        &ctx,
        RunOptions::new().async_rounds(mode()).checkpoint(CheckpointPolicy::new(&dir, 2)),
    )
    .unwrap();

    // Another link, or another staleness cap, is another trajectory.
    let slower = NetworkModel { bandwidth_bps: 500_000.0, latency_s: 0.05 };
    for changed in [mode().network(slower), mode().max_staleness(1)] {
        let mut other = all_algorithms(&ctx, &task, None);
        let opts = RunOptions::new().async_rounds(changed.clone()).resume_from(&dir);
        assert!(Engine::run(other[0].as_mut(), &ctx, opts).is_err(), "{changed:?} resumed");
    }
    // The original knobs resume to the full horizon.
    let (ctx8, task8) = world(106, 8);
    let mut same = all_algorithms(&ctx8, &task8, None);
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
    let mut algos = all_algorithms(&ctx, &task, None);
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
