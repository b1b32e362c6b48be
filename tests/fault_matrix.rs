//! Integration: the fault-aware round executor, across fault modes and
//! across every algorithm in the stack. Verifies that each fault mode ×
//! each algorithm finishes, is deterministic per seed, and that the
//! recorded bytes always match the drawn lifecycle — downlink charged to
//! the full broadcast set, uplink only to completed uploads — and that a
//! reliable fleet, or any fault mode under a full buffer, yields the
//! plain engine's history (`equivalence.rs`'s property).

mod common;

use common::equivalence::{check, trained, Mode, Presentation, Scenario, PLAIN};
use common::{fault_modes, world, Probe, Tap, PROBE_PAYLOAD};
use fedkemf::core::fedkemf::{FedKemf, FedKemfConfig};
use fedkemf::fl::engine::FedAlgorithm;
use fedkemf::fl::lifecycle::{plan_round, quorum_met, RoundPlan};
use fedkemf::fl::metrics::History;
use fedkemf::prelude::*;
use fedkemf::tensor::rng::seeded_rng;

fn run_with_faults(algo: &mut dyn FedAlgorithm, ctx: &FlContext, faults: &FaultConfig) -> History {
    Engine::run(algo, ctx, RunOptions::new().faults(*faults)).unwrap().history
}

fn run_traced(
    algo: &mut dyn FedAlgorithm,
    ctx: &FlContext,
    faults: &FaultConfig,
) -> (History, Vec<RoundPlan>) {
    let report = Engine::run(algo, ctx, RunOptions::new().faults(*faults)).unwrap();
    (report.history, report.plans)
}

/// Uniform plans for a drawn round, in the plan's own client order.
fn uniform_plans(plan: &RoundPlan, payload: WirePayload) -> Vec<ClientPlan> {
    let sampled: Vec<usize> = plan.clients.iter().map(|c| c.client).collect();
    ClientPlan::uniform(&sampled, ModelView::Full, payload)
}

fn probe_ctx(seed: u64) -> FlContext {
    let task = SynthTask::new(SynthConfig::mnist_like(seed));
    let train = task.generate(120, 0);
    let test = task.generate(40, 1);
    let cfg = FlConfig {
        n_clients: 8,
        sample_ratio: 0.75,
        rounds: 6,
        min_per_client: 2,
        seed,
        ..Default::default()
    };
    FlContext::new(cfg, &train, test)
}

#[test]
fn every_fault_mode_finishes_with_lifecycle_consistent_bytes() {
    let ctx = probe_ctx(90);
    for (name, faults) in fault_modes() {
        let mut probe = Probe;
        let (h, plans) = run_traced(&mut probe, &ctx, &faults);
        assert_eq!(h.rounds(), 6, "{name}: all rounds recorded");
        assert_eq!(plans.len(), 6, "{name}: one plan per round");
        let payload = PROBE_PAYLOAD;
        for (r, plan) in h.records.iter().zip(&plans) {
            // Recorded bytes are exactly the plan's honest accounting.
            let expected = plan.comm(&uniform_plans(plan, payload)).unwrap();
            assert_eq!(r.down_bytes, expected.down_bytes, "{name}: downlink");
            assert_eq!(r.up_bytes, expected.up_bytes, "{name}: uplink");
            assert_eq!(r.wasted_up_bytes, expected.wasted_up_bytes, "{name}: waste");
            assert_eq!(r.down_clients, plan.broadcast_count(), "{name}");
            assert_eq!(r.up_clients, plan.reporters().len(), "{name}");
            // Structural invariants of the lifecycle itself.
            assert_eq!(r.down_bytes, plan.broadcast_count() as u64 * payload.down_bytes);
            assert_eq!(r.up_bytes, plan.reporters().len() as u64 * payload.up_bytes);
            assert!(r.up_clients <= r.down_clients, "{name}: uploads ⊆ downloads");
            assert_eq!(r.quorum_met, quorum_met(plan.reporters().len(), plan.min_quorum), "{name}");
            // Aborted rounds report NaN loss, never a fake value.
            assert_eq!(!r.quorum_met, r.train_loss.is_nan(), "{name}: NaN loss iff aborted");
        }
        // Cumulative bytes are the running total of all three buckets.
        let mut acc = 0u64;
        for r in &h.records {
            acc += r.down_bytes + r.up_bytes + r.wasted_up_bytes;
            assert_eq!(r.cum_bytes, acc, "{name}: cumulative bytes");
        }
    }
}

#[test]
fn fault_injection_is_deterministic_per_seed() {
    for (name, faults) in fault_modes() {
        let run = || {
            let ctx = probe_ctx(91);
            run_with_faults(&mut Probe, &ctx, &faults).to_json()
        };
        assert_eq!(run(), run(), "{name}: same seed, same history");
    }
    // And a different seed perturbs at least the combined storm.
    let (_, combined) = fault_modes().pop().unwrap();
    let a = run_with_faults(&mut Probe, &probe_ctx(91), &combined);
    let b = run_with_faults(&mut Probe, &probe_ctx(92), &combined);
    assert_ne!(a.to_json(), b.to_json());
}

/// The acceptance criterion for the post-download dropout bug: with
/// `drop_after_download > 0`, recorded downlink covers the *full
/// broadcast set* (sampled × payload) and strictly exceeds the thinned
/// uplink.
#[test]
fn dropout_downlink_covers_full_broadcast_set() {
    let ctx = probe_ctx(93);
    let sampled = ctx.cfg.sampled_per_round() as u64;
    let payload = PROBE_PAYLOAD;
    let dropout = FaultConfig { drop_after_download: 0.5, ..FaultConfig::default() };
    let h = run_with_faults(&mut Probe, &ctx, &dropout);
    let down: u64 = h.records.iter().map(|r| r.down_bytes).sum();
    let up: u64 = h.records.iter().map(|r| r.up_bytes).sum();
    // The dropout fires after download: every sampled client is
    // charged the broadcast, every round.
    assert_eq!(down, 6 * sampled * payload.down_bytes);
    // Uplink is thinned by the dropped clients. With a symmetric payload
    // this inequality is what the old accounting got wrong; here the
    // asymmetric payload makes the per-phase comparison explicit.
    let up_full = 6 * sampled * payload.up_bytes;
    assert!(up < up_full, "some uploads must have dropped: {up} vs {up_full}");
    assert!(down > up, "downlink strictly exceeds uplink under dropout");
}

/// Every real algorithm of the comparison completes a run under the
/// combined fault storm, deterministically, with bytes that match its
/// own declared payload and the drawn lifecycle.
#[test]
fn all_algorithms_survive_combined_faults() {
    let storm = FaultConfig {
        drop_before_download: 0.15,
        drop_after_download: 0.15,
        straggler_prob: 0.3,
        straggler_delay_s: 40.0,
        round_deadline_s: Some(10.0),
        upload_failure_prob: 0.3,
        upload_retries: 1,
        ..Default::default()
    };
    let world = || {
        let task = SynthTask::new(SynthConfig::mnist_like(94));
        let train = task.generate(120, 0);
        let test = task.generate(60, 1);
        let cfg = FlConfig {
            n_clients: 4,
            sample_ratio: 1.0,
            rounds: 2,
            local_epochs: 1,
            batch_size: 16,
            alpha: 1.0,
            min_per_client: 8,
            seed: 94,
            ..Default::default()
        };
        (FlContext::new(cfg, &train, test), task)
    };
    let algorithms = |ctx: &FlContext, task: &SynthTask| -> Vec<Box<dyn FedAlgorithm>> {
        let spec = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 3);
        let knowledge = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 99);
        let clients = uniform_specs(Arch::Cnn2, ctx.cfg.n_clients, 1, 12, 10, 5);
        vec![
            Box::new(FedAvg::new(spec)),
            Box::new(FedProx::new(spec, 0.01)),
            Box::new(FedNova::new(spec)),
            Box::new(Scaffold::new(spec)),
            Box::new(FedDf::new(spec, task.generate_unlabeled(40, 2))),
            Box::new(FedMd::new(clients.clone(), task.generate_unlabeled(40, 2))),
            Box::new(FedKemf::new(FedKemfConfig::uniform(
                knowledge,
                clients,
                task.generate_unlabeled(40, 2),
            ))),
        ]
    };
    let run_all = || -> Vec<String> {
        let (ctx, task) = world();
        algorithms(&ctx, &task)
            .iter_mut()
            .map(|algo| {
                let payload = algo.client_plans(0, &[0])[0].payload;
                let (h, plans) =
                    run_traced(algo.as_mut(), &ctx, &storm);
                assert_eq!(h.rounds(), 2, "{}", h.algorithm);
                assert!(
                    h.accuracies().iter().all(|a| a.is_finite()),
                    "{} accuracy finite under faults",
                    h.algorithm
                );
                for (r, plan) in h.records.iter().zip(&plans) {
                    assert_eq!(r.down_bytes, plan.broadcast_count() as u64 * payload.down_bytes);
                    assert_eq!(
                        r.up_bytes,
                        plan.reporters().len() as u64 * payload.up_bytes,
                        "{} uplink follows completed uploads",
                        h.algorithm
                    );
                }
                h.to_json()
            })
            .collect()
    };
    assert_eq!(run_all(), run_all(), "fault-injected runs are reproducible per seed");
}

/// With faults off, the executor is the plain engine: passing the
/// reliable fault model keeps the sampling stream, the bytes and the
/// accuracies bit for bit.
#[test]
fn reliable_fleet_matches_faultless_engine_exactly() {
    // The reference passes no fault model; `PLAIN` passes the reliable one.
    check("reliable_fleet", &trained(0, 0, 95), &[PLAIN]);
}

/// A round aborted on quorum failure must record `NaN` train loss — the
/// engine used to write a fake `0.0`, indistinguishable from a perfect
/// fit in every CSV/JSON export.
#[test]
fn quorum_aborted_rounds_record_nan_loss() {
    let ctx = probe_ctx(97);
    let faults =
        FaultConfig { drop_before_download: 0.95, min_quorum: 6, ..Default::default() };
    let h = run_with_faults(&mut Probe, &ctx, &faults);
    assert!(
        h.records.iter().any(|r| !r.quorum_met),
        "storm should abort at least one round"
    );
    for r in &h.records {
        if r.quorum_met {
            assert!(r.train_loss.is_finite(), "round {}: live round keeps its loss", r.round);
        } else {
            assert!(
                r.train_loss.is_nan(),
                "round {}: aborted round must report NaN, got {}",
                r.round,
                r.train_loss
            );
        }
    }
}

/// The asynchronous row of the fault matrix: every fault mode finishes
/// under buffered rounds, deterministically, with the same byte honesty
/// the synchronous executor guarantees — downlink charged to the full
/// broadcast set, uplink only to folded updates, cumulative bytes the
/// running total of all three buckets.
#[test]
fn every_fault_mode_survives_async_rounds_with_honest_bytes() {
    for (name, faults) in fault_modes() {
        let run_once = || {
            let ctx = probe_ctx(98);
            let buffer = ctx.cfg.sampled_per_round();
            Engine::run(
                &mut Probe,
                &ctx,
                RunOptions::new().faults(faults).async_rounds(AsyncConfig::new(buffer)),
            )
            .unwrap()
        };
        let report = run_once();
        let h = &report.history;
        assert_eq!(h.rounds(), 6, "{name}: all cycles recorded");
        let payload = PROBE_PAYLOAD;
        for (r, plan) in h.records.iter().zip(&report.plans) {
            // One wave per cycle: downlink is the wave's broadcast set.
            assert_eq!(
                r.down_bytes,
                plan.broadcast_count() as u64 * payload.down_bytes,
                "{name}: async downlink covers the broadcast set"
            );
            // Uplink is charged only to updates that folded this cycle.
            assert_eq!(
                r.up_bytes,
                r.up_clients as u64 * payload.up_bytes,
                "{name}: async uplink follows the fold"
            );
            assert_eq!(!r.quorum_met, r.train_loss.is_nan(), "{name}: NaN iff aborted");
        }
        let mut acc = 0u64;
        for r in &h.records {
            acc += r.down_bytes + r.up_bytes + r.wasted_up_bytes;
            assert_eq!(r.cum_bytes, acc, "{name}: cumulative bytes");
        }
        assert!(report.sim_time_s.is_some(), "{name}: async reports a virtual clock");
        // Same seed, same buffered history.
        assert_eq!(report.history.to_json(), run_once().history.to_json(), "{name}");
    }
}

/// The simulated round wall-clock honors the lifecycle: a cut straggler
/// holds the round open exactly to the deadline and a faultless plan is
/// gated by one download + one upload.
#[test]
fn lifecycle_wall_clock_is_bounded_by_deadline() {
    let net = NetworkModel { bandwidth_bps: 1000.0, latency_s: 0.0 };
    let payload = WirePayload::symmetric(1000); // 1 s per direction
    let mut rng = seeded_rng(96);
    let sampled: Vec<usize> = (0..16).collect();

    let reliable = plan_round(&sampled, &FaultConfig::reliable(), &mut rng);
    let t = net.lifecycle_round_time(&reliable, payload, None);
    assert!((t - 2.0).abs() < 1e-9, "download + upload, got {t}");

    let faults = FaultConfig {
        straggler_prob: 0.9,
        straggler_delay_s: 500.0,
        round_deadline_s: Some(30.0),
        ..Default::default()
    };
    let stormy = plan_round(&sampled, &faults, &mut rng);
    assert!(
        stormy.clients.iter().any(|c| !c.outcome.uploaded()),
        "seeded storm should cut at least one straggler"
    );
    let t = net.lifecycle_round_time(&stormy, payload, faults.round_deadline_s);
    // A surviving straggler's delay is at most the deadline, so the round
    // is bounded by download + deadline + upload — far below the ~500 s
    // an uncut straggler would hold it open.
    assert!(t <= 30.0 + 2.0 + 1e-9, "deadline bounds the round, got {t}");
}

/// A cohort-sized buffer folds each wave in its own cycle, in sampled
/// order at weight 1.0, however straggler delays order the arrivals, so
/// async yields the sync history under every fault mode.
#[test]
fn every_fault_mode_is_sync_equivalent_under_a_full_buffer() {
    for (faults, (name, _)) in fault_modes().into_iter().enumerate() {
        let s = Scenario { algo: None, rounds: 6, ..trained(0, faults, 99) };
        check(&format!("full_buffer_{name}"), &s, &[Presentation { mode: Mode::Async, ..PLAIN }]);
    }
}

/// The one cycle's buffer law, over the probe under every fault mode and
/// in three modes — sync, async with a cohort-sized buffer, and async
/// with a two-update buffer. Per cycle: a wave is trained exactly when
/// the queue plus its reporters can still reach quorum; the drain folds
/// or evicts only what is queued; the record's uplink count is the
/// drain's fold; and at a full buffer the drain takes the whole wave and
/// leaves nothing queued. Summed over a run, folded + evicted never
/// exceeds the reporters.
#[test]
fn every_cycle_conserves_its_buffer_under_every_fault_mode() {
    let mut untrained = 0;
    for (name, faults) in fault_modes() {
        // Three clients a round, so the storm's quorum of two is missed.
        let (ctx, _) = world(100, 12);
        let cohort = ctx.cfg.sampled_per_round();
        for (mode, full) in [
            (None, true),
            (Some(AsyncConfig::new(cohort)), true),
            (Some(AsyncConfig::new(2)), false),
        ] {
            let label = format!("{name} {mode:?}");
            let mut algo = Tap::new(Box::new(Probe));
            let opts = RunOptions { async_rounds: mode, ..RunOptions::new() };
            let opts = opts.faults(faults).record_trace();
            let report = Engine::run(&mut algo, &ctx, opts).unwrap();
            let trace = report.history.trace.as_ref().unwrap();
            let (mut queued, mut reported, mut drained) = (0, 0, 0);
            for (r, plan) in report.history.records.iter().zip(&report.plans) {
                let label = format!("{label}, round {}", r.round);
                let buffer = trace
                    .round_spans(r.round)
                    .into_iter()
                    .find(|s| s.phase == Phase::Buffer)
                    .unwrap_or_else(|| panic!("{label}: every cycle drains its buffer"))
                    .counters;
                let reporters = plan.reporters().len();
                let trained = algo.waves.iter().any(|w| w.0 == r.round);
                let reachable = quorum_met(queued + reporters, plan.min_quorum);
                assert_eq!(trained, reporters > 0 && reachable, "{label}: trained iff reachable");
                untrained += usize::from(reporters > 0 && !reachable);
                let out = buffer.clients + buffer.evicted_updates as usize;
                assert!(out <= queued + reporters, "{label}: drained what was never queued");
                queued += reporters;
                queued -= out;
                assert_eq!(r.up_clients, buffer.clients, "{label}: uplink count is the fold");
                if full {
                    assert_eq!(out, reporters, "{label}: a full buffer drains the wave");
                    assert_eq!(queued, 0, "{label}: a full buffer leaves nothing queued");
                }
                reported += reporters;
                drained += out;
            }
            assert!(drained <= reported, "{label}: folded + evicted exceeds the reporters");
        }
    }
    assert!(untrained > 0, "no wave missed its quorum: the rule went unexercised");
}
