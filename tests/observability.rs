//! Integration: the round-lifecycle observability layer end to end.
//! Covers the PR's acceptance criteria: a traced run emits one span per
//! phase per round with real timings and FLOP counts on the compute
//! phases; an untraced run's serialized history is bit-identical to a
//! [`NoopSink`] run and carries no trace key at all; the canonical JSONL
//! form is deterministic per seed; and quorum-aborted rounds omit
//! exactly the algorithm-interior phases.

use fedkemf::core::fedkemf::{FedKemf, FedKemfConfig};
use fedkemf::core::resource::uniform_specs;
use fedkemf::fl::engine::Engine;
use fedkemf::fl::fedavg::FedAvg;
use fedkemf::fl::lifecycle::RoundPlan;
use fedkemf::nn::models::Arch;
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

/// Tiny FedKEMF world: real DML + ensemble distillation, small enough
/// for a fast integration test.
fn kemf_world(seed: u64) -> (FlContext, FedKemf) {
    let task = SynthTask::new(SynthConfig::mnist_like(seed));
    let train = task.generate(180, 0);
    let test = task.generate(60, 1);
    let cfg = FlConfig {
        n_clients: 3,
        sample_ratio: 1.0,
        rounds: 3,
        local_epochs: 1,
        batch_size: 16,
        alpha: 0.5,
        min_per_client: 10,
        seed,
        ..Default::default()
    };
    let ctx = FlContext::new(cfg, &train, test);
    let knowledge = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 1000);
    let specs = uniform_specs(Arch::Cnn2, 3, 1, 12, 10, 2);
    let pool = task.generate_unlabeled(60, 5);
    let algo = FedKemf::new(FedKemfConfig::uniform(knowledge, specs, pool));
    (ctx, algo)
}

fn fedavg_world(seed: u64) -> (FlContext, FedAvg) {
    let task = SynthTask::new(SynthConfig::mnist_like(seed));
    let train = task.generate(120, 0);
    let test = task.generate(40, 1);
    let cfg = FlConfig {
        n_clients: 4,
        sample_ratio: 0.5,
        rounds: 3,
        local_epochs: 1,
        batch_size: 16,
        min_per_client: 5,
        seed,
        ..Default::default()
    };
    let ctx = FlContext::new(cfg, &train, test);
    let algo = FedAvg::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 3));
    (ctx, algo)
}

/// The phases of one quorum-met round, in emission order.
const FULL_ROUND: [Phase; 7] = [
    Phase::Sample,
    Phase::Broadcast,
    Phase::LocalUpdate,
    Phase::Fusion,
    Phase::Upload,
    Phase::Eval,
    Phase::Round,
];

#[test]
fn traced_fedkemf_run_emits_full_round_structure() {
    let (ctx, mut algo) = kemf_world(71);
    let (history, _plans) = run_recorded(&mut algo, &ctx, &FaultConfig::reliable());
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

#[test]
fn noop_sink_history_is_bit_identical_to_untraced() {
    let (ctx, mut a) = fedavg_world(72);
    let ha = Engine::run(&mut a, &ctx, RunOptions::new()).unwrap().history;
    assert!(!ha.to_json().contains("trace"), "untraced JSON carries no trace key");

    let (_, mut b) = fedavg_world(72);
    let mut noop = NoopSink;
    let hb = Engine::run(
        &mut b,
        &ctx,
        RunOptions::new().faults(FaultConfig::reliable()).sink(&mut noop),
    )
    .unwrap()
    .history;
    assert_eq!(ha.to_json(), hb.to_json(), "NoopSink run serializes identically");

    // A recorded run differs only by its trace: strip it and the JSON
    // matches bit for bit (tracing draws no randomness).
    let (_, mut c) = fedavg_world(72);
    let (mut hc, _) = run_recorded(&mut c, &ctx, &FaultConfig::reliable());
    assert!(hc.trace.is_some());
    hc.trace = None;
    assert_eq!(ha.to_json(), hc.to_json(), "tracing perturbed the round records");
}

#[test]
fn canonical_jsonl_is_deterministic_and_round_trips() {
    let (ctx, mut a) = fedavg_world(73);
    let (ha, _) = run_recorded(&mut a, &ctx, &FaultConfig::reliable());
    let (_, mut b) = fedavg_world(73);
    let (hb, _) = run_recorded(&mut b, &ctx, &FaultConfig::reliable());
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
/// to the Fusion span whichever engine arm drives the round — and with
/// it inside a span, the phases account for the Round span between them.
#[test]
fn fedavg_fusion_span_is_populated_and_phases_tile_the_round_in_both_modes() {
    for mode in [RoundMode::Sync, RoundMode::Async(AsyncConfig::new(2))] {
        let (ctx, mut algo) = fedavg_world(75);
        let is_async = matches!(mode, RoundMode::Async(_));
        let history = Engine::run(&mut algo, &ctx, RunOptions::new().round_mode(mode).record_trace())
            .unwrap()
            .history;
        let trace = history.trace.as_ref().unwrap();
        for round in 0..ctx.cfg.rounds {
            let spans = trace.round_spans(round);
            let phases: Vec<Phase> = spans.iter().map(|s| s.phase).collect();
            let mut expected = FULL_ROUND.to_vec();
            if is_async {
                expected.insert(3, Phase::Buffer);
            }
            assert_eq!(phases, expected, "round {round}, async={is_async}");

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

/// Delegates every trait method and notes, per `train_cohort` call, how
/// many reporters went in and how many local steps the returned updates
/// carry — the ground truth the `LocalUpdate` span must agree with.
struct Tap {
    inner: Box<dyn FedAlgorithm>,
    /// `(wave, reporters, Σ PreparedUpdate.steps)` per call.
    cohorts: Vec<(usize, usize, u64)>,
}

impl FedAlgorithm for Tap {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn init(&mut self, ctx: &FlContext) -> Result<(), ConfigError> {
        self.inner.init(ctx)
    }
    fn client_plans(&self, round: usize, sampled: &[usize]) -> Vec<ClientPlan> {
        self.inner.client_plans(round, sampled)
    }
    fn train_cohort(
        &mut self,
        wave: usize,
        sampled: &[usize],
        ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<Vec<PreparedUpdate>, EngineError> {
        let updates = self.inner.train_cohort(wave, sampled, ctx, scope)?;
        let steps = updates.iter().map(|u| u.steps as u64).sum();
        self.cohorts.push((wave, sampled.len(), steps));
        Ok(updates)
    }
    fn fuse(
        &mut self,
        round: usize,
        updates: Vec<(PreparedUpdate, f32)>,
        ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<RoundOutcome, EngineError> {
        self.inner.fuse(round, updates, ctx, scope)
    }
    fn evaluate(&mut self, ctx: &FlContext) -> f32 {
        self.inner.evaluate(ctx)
    }
}

/// All nine algorithms over a 4-client world.
fn nine_algorithms(task: &SynthTask) -> Vec<Box<dyn FedAlgorithm>> {
    let spec = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 3);
    let knowledge = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 99);
    let clients = uniform_specs(Arch::Cnn2, 4, 1, 12, 10, 5);
    let pool = task.generate_unlabeled(32, 2);
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

/// One cohort driver means one way of counting: whatever the algorithm,
/// the engine arm, or the `cohort_batch`, the `LocalUpdate` span reports
/// exactly the reporters it was handed and the steps its updates carry.
#[test]
fn local_update_counters_agree_with_the_updates_for_every_algorithm() {
    let task = SynthTask::new(SynthConfig::mnist_like(76));
    let train = task.generate(160, 0);
    let test = task.generate(40, 1);
    for cohort_batch in [None, Some(2)] {
        for mode in [RoundMode::Sync, RoundMode::Async(AsyncConfig::new(3))] {
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
            for inner in nine_algorithms(&task) {
                let mut algo = Tap { inner, cohorts: Vec::new() };
                let label = format!("{} {mode:?} cohort_batch={cohort_batch:?}", algo.name());
                let opts = RunOptions::new().round_mode(mode.clone()).record_trace();
                let history = Engine::run(&mut algo, &ctx, opts).unwrap().history;
                let trace = history.trace.as_ref().unwrap();
                assert_eq!(algo.cohorts.len(), ctx.cfg.rounds, "{label}: one cohort per round");
                for &(wave, reporters, steps) in &algo.cohorts {
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

/// A free algorithm so the fault sweep doesn't pay for training.
struct Probe;

impl FedAlgorithm for Probe {
    fn name(&self) -> String {
        "probe".into()
    }
    fn client_plans(&self, _round: usize, sampled: &[usize]) -> Vec<ClientPlan> {
        ClientPlan::uniform(
            sampled,
            ModelView::Full,
            WirePayload { down_bytes: 1000, up_bytes: 100 },
        )
    }
    fn round(
        &mut self,
        _round: usize,
        sampled: &[usize],
        _ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<RoundOutcome, EngineError> {
        scope.phase(Phase::LocalUpdate, |c| c.clients = sampled.len());
        scope.phase(Phase::Fusion, |c| c.clients = sampled.len());
        Ok(RoundOutcome { train_loss: 1.0 })
    }
    fn evaluate(&mut self, _ctx: &FlContext) -> f32 {
        0.5
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
            // the engine-owned phases still bracket the round.
            assert_eq!(
                phases,
                [Phase::Sample, Phase::Broadcast, Phase::Upload, Phase::Eval, Phase::Round],
                "round {}",
                r.round
            );
        }
    }
    assert!(aborted > 0, "80% pre-download dropout must abort some 4-quorum round");
}
