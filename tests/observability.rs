//! Integration: the round-lifecycle observability layer end to end.
//! A traced run emits one span per phase per round with real timings and
//! FLOP counts on the compute phases; the canonical JSONL form is
//! deterministic per seed; sync and async rounds share one span order;
//! and quorum-aborted rounds omit exactly the algorithm-interior phases. Tracing draws no randomness, so a run with
//! a `NoopSink`, a recorded trace or an external sink yields the untraced
//! history (`equivalence.rs`'s property).

mod common;

use common::equivalence::{check, trained, Presentation, Scenario, Trace, PLAIN};
use common::{all_algorithms, world, Probe, Tap};
use fedkemf::fl::engine::Engine;
use fedkemf::fl::lifecycle::RoundPlan;
use fedkemf::prelude::*;

fn run_recorded(
    algo: &mut dyn FedAlgorithm,
    ctx: &FlContext,
    faults: &FaultConfig,
) -> (History, Vec<RoundPlan>) {
    let report = Engine::run(
        algo,
        ctx,
        RunOptions::new().faults(*faults).record_trace(),
    )
    .unwrap();
    (report.history, report.plans)
}

/// FedKEMF over the shared world, three rounds: real DML + ensemble
/// distillation, three clients a round.
fn kemf_world(seed: u64) -> (FlContext, Box<dyn FedAlgorithm>) {
    let (ctx, task) = world(seed, 3);
    let algo = all_algorithms(&ctx, &task, None).swap_remove(6);
    (ctx, algo)
}

/// FedAvg over the shared world, three rounds, two clients a round.
fn fedavg_world(seed: u64) -> (FlContext, Box<dyn FedAlgorithm>) {
    let (mut ctx, task) = world(seed, 3);
    ctx.cfg.sample_ratio = 0.5;
    let algo = all_algorithms(&ctx, &task, None).swap_remove(0);
    (ctx, algo)
}

/// The phases of one quorum-met round, in emission order: sync and async
/// rounds run one cycle, so they share it.
const FULL_ROUND: [Phase; 8] = [
    Phase::Sample,
    Phase::Broadcast,
    Phase::LocalUpdate,
    Phase::Buffer,
    Phase::Fusion,
    Phase::Upload,
    Phase::Eval,
    Phase::Round,
];

#[test]
fn traced_fedkemf_run_emits_full_round_structure() {
    let (ctx, mut algo) = kemf_world(71);
    let (history, _plans) = run_recorded(algo.as_mut(), &ctx, &FaultConfig::reliable());
    let trace = history.trace.as_ref().expect("recorded run attaches a trace");
    assert_eq!(trace.rounds(), ctx.cfg.rounds);
    for round in 0..ctx.cfg.rounds {
        let spans = trace.round_spans(round);
        let phases: Vec<Phase> = spans.iter().map(|s| s.phase).collect();
        assert_eq!(phases, FULL_ROUND, "round {round} span structure");

        let by = |p: Phase| *spans.iter().find(|s| s.phase == p).unwrap();
        let local = by(Phase::LocalUpdate);
        assert_eq!(local.counters.clients, 3);
        assert!(local.counters.steps > 0, "DML took optimizer steps");
        assert_eq!(local.counters.batches, local.counters.steps);
        assert!(local.wall_s > 0.0, "local update burned wall clock");
        assert!(local.counters.flops > 0, "DML burned GEMM FLOPs");

        let fusion = by(Phase::Fusion);
        assert!(fusion.counters.steps > 0, "ensemble distillation took steps");
        assert!(fusion.wall_s > 0.0 && fusion.counters.flops > 0);

        assert!(by(Phase::Broadcast).counters.down_bytes > 0);
        assert!(by(Phase::Upload).counters.up_bytes > 0);

        // Every span, the enclosing round's included, carries the
        // process's minor-fault delta wherever `/proc` can be read.
        let counted = std::path::Path::new("/proc/self/stat").exists();
        assert!(spans.iter().all(|s| s.counters.minor_faults.is_some() == counted), "{spans:?}");

        // The enclosing round span bounds its interior phases.
        let round_span = by(Phase::Round);
        assert!(round_span.counters.quorum_met);
        let interior: f64 = spans
            .iter()
            .filter(|s| s.phase != Phase::Round)
            .map(|s| s.wall_s)
            .sum();
        assert!(
            interior <= round_span.wall_s + 1e-9,
            "round {round}: phases sum to {interior}s > round span {}s",
            round_span.wall_s
        );
    }
    // The summary table reflects the real run.
    let table = trace.summary_table();
    for name in ["local_update", "fusion", "eval", "round"] {
        assert!(table.contains(name), "summary table missing {name}:\n{table}");
    }
}

/// An untraced history names no trace; one run through an explicit
/// `NoopSink` and one recorded (its trace stripped) serialize to it bit
/// for bit.
#[test]
fn noop_sink_history_is_bit_identical_to_untraced() {
    let s = Scenario { sample_ratio: 0.5, ..trained(0, 0, 72) };
    let traced = [Trace::Noop, Trace::Record].map(|trace| Presentation { trace, ..PLAIN });
    check("noop_sink", &s, &traced);
}

#[test]
fn canonical_jsonl_is_deterministic_and_round_trips() {
    let (ctx, mut a) = fedavg_world(73);
    let (ha, _) = run_recorded(a.as_mut(), &ctx, &FaultConfig::reliable());
    let (_, mut b) = fedavg_world(73);
    let (hb, _) = run_recorded(b.as_mut(), &ctx, &FaultConfig::reliable());
    let ta = ha.trace.unwrap();
    let tb = hb.trace.unwrap();
    // Golden determinism: wall clock and the process-global FLOP counter
    // vary, everything else is bit-reproducible per seed.
    assert_eq!(ta.canonical_jsonl(), tb.canonical_jsonl());
    // Full-fidelity round trip through the JSONL export.
    let parsed = RunTrace::from_jsonl(&ta.to_jsonl()).unwrap();
    assert_eq!(parsed, ta);
    assert_eq!(parsed.canonical_jsonl(), tb.canonical_jsonl());
}

/// The weighted fold is Algorithm 2's arithmetic, so it must be billed
/// to the Fusion span whichever round mode sizes the buffer — and with
/// it inside a span, the phases account for the Round span between them.
#[test]
fn fedavg_fusion_span_is_populated_and_phases_tile_the_round_in_both_modes() {
    for mode in [None, Some(AsyncConfig::new(2))] {
        let (ctx, mut algo) = fedavg_world(75);
        let label = format!("{mode:?}");
        let opts = RunOptions { async_rounds: mode, ..RunOptions::new() }.record_trace();
        let history = Engine::run(algo.as_mut(), &ctx, opts).unwrap().history;
        let trace = history.trace.as_ref().unwrap();
        for round in 0..ctx.cfg.rounds {
            let spans = trace.round_spans(round);
            let phases: Vec<Phase> = spans.iter().map(|s| s.phase).collect();
            assert_eq!(phases, FULL_ROUND, "round {round}, {label}");

            let by = |p: Phase| *spans.iter().find(|s| s.phase == p).unwrap();
            let fusion = by(Phase::Fusion);
            assert_eq!(fusion.counters.clients, 2, "both reporters folded");
            assert!(fusion.wall_s > 0.0, "the fold burned wall clock inside the span");

            let round_span = by(Phase::Round);
            let interior: f64 =
                spans.iter().filter(|s| s.phase != Phase::Round).map(|s| s.wall_s).sum();
            assert!(
                interior <= round_span.wall_s + 1e-9,
                "round {round}: phases sum to {interior}s > round span {}s",
                round_span.wall_s
            );
            assert!(
                round_span.wall_s - interior <= 0.5 * round_span.wall_s,
                "round {round}: {}s of a {}s round sits in no phase span",
                round_span.wall_s - interior,
                round_span.wall_s
            );
        }
    }
}

/// One cohort driver means one way of counting: whatever the algorithm,
/// the round mode, or the `cohort_batch`, the `LocalUpdate` span reports
/// exactly the reporters it was handed and the steps its updates carry.
#[test]
fn local_update_counters_agree_with_the_updates_for_every_algorithm() {
    let task = SynthTask::new(SynthConfig::mnist_like(76));
    let train = task.generate(160, 0);
    let test = task.generate(40, 1);
    for cohort_batch in [None, Some(2)] {
        for mode in [None, Some(AsyncConfig::new(3))] {
            let cfg = FlConfig {
                n_clients: 4,
                sample_ratio: 1.0,
                rounds: 2,
                local_epochs: 1,
                batch_size: 16,
                alpha: 1.0,
                min_per_client: 10,
                seed: 76,
                cohort_batch,
                ..Default::default()
            };
            let ctx = FlContext::new(cfg, &train, test.clone());
            for inner in all_algorithms(&ctx, &task, None) {
                let mut algo = Tap::new(inner);
                let label = format!("{} {mode:?} cohort_batch={cohort_batch:?}", algo.name());
                let opts = RunOptions { async_rounds: mode.clone(), ..RunOptions::new() };
                let opts = opts.record_trace();
                let history = Engine::run(&mut algo, &ctx, opts).unwrap().history;
                let trace = history.trace.as_ref().unwrap();
                assert_eq!(algo.waves.len(), ctx.cfg.rounds, "{label}: one cohort per round");
                for &(wave, ref sampled, steps) in &algo.waves {
                    let reporters = sampled.len();
                    let spans = trace.round_spans(wave);
                    let local: Vec<_> =
                        spans.iter().filter(|s| s.phase == Phase::LocalUpdate).collect();
                    assert_eq!(local.len(), 1, "{label}: one LocalUpdate span in round {wave}");
                    let c = &local[0].counters;
                    assert_eq!(reporters, 4, "{label}: a reliable fleet reports in full");
                    assert_eq!(c.clients, reporters, "{label}: round {wave} clients");
                    assert!(steps > 0, "{label}: round {wave} trained");
                    assert_eq!(c.steps, steps, "{label}: round {wave} steps");
                    assert_eq!(c.batches, steps, "{label}: round {wave} batches");
                }
            }
        }
    }
}

#[test]
fn quorum_aborted_rounds_skip_algorithm_phases() {
    let task = SynthTask::new(SynthConfig::mnist_like(74));
    let train = task.generate(120, 0);
    let test = task.generate(40, 1);
    let cfg = FlConfig {
        n_clients: 8,
        sample_ratio: 0.75,
        rounds: 8,
        min_per_client: 2,
        seed: 74,
        ..Default::default()
    };
    let ctx = FlContext::new(cfg, &train, test);
    let faults = FaultConfig { drop_before_download: 0.8, min_quorum: 4, ..Default::default() };
    let mut algo = Probe;
    let (history, _) = run_recorded(&mut algo, &ctx, &faults);
    let trace = history.trace.as_ref().unwrap();
    let mut aborted = 0;
    for r in &history.records {
        let spans = trace.round_spans(r.round);
        let phases: Vec<Phase> = spans.iter().map(|s| s.phase).collect();
        let round_span = spans.iter().find(|s| s.phase == Phase::Round).unwrap();
        assert_eq!(round_span.counters.quorum_met, r.quorum_met);
        if r.quorum_met {
            assert_eq!(phases, FULL_ROUND, "round {}", r.round);
        } else {
            aborted += 1;
            assert!(r.train_loss.is_nan(), "aborted round has no loss");
            // The algorithm never ran: its interior phases are absent,
            // the engine-owned phases (the drain among them) still
            // bracket the round.
            assert_eq!(
                phases,
                [
                    Phase::Sample,
                    Phase::Broadcast,
                    Phase::Buffer,
                    Phase::Upload,
                    Phase::Eval,
                    Phase::Round
                ],
                "round {}",
                r.round
            );
        }
    }
    assert!(aborted > 0, "80% pre-download dropout must abort some 4-quorum round");
}
