//! The equivalence property's harness: a [`Scenario`] fixes what a history
//! may depend on, a [`Presentation`] says how one run of it is carried,
//! [`present`] runs it with the checks its presentation promises, and
//! [`check`] runs a scenario's reference and presentations and asserts
//! that they yield one history. `equivalence.rs` draws presentations from
//! seeded decks; the named anchors in the other suites pass fixed ones.

use super::{all_algorithms, fault_modes, temp_dir, world, Probe, Tap};
use fedkemf::fl::checkpoint::CheckpointPolicy;
use fedkemf::prelude::*;
use std::collections::HashMap;
use std::path::Path;

/// The uniform link of an async presentation, and the slower one of a
/// buffered identity.
pub const LINK: NetworkModel = NetworkModel { bandwidth_bps: 1e6, latency_s: 0.05 };
pub const SLOW_LINK: NetworkModel = NetworkModel { bandwidth_bps: 5e5, latency_s: 0.1 };

/// What a history may depend on.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// Index into [`all_algorithms`], or `None` for the free [`Probe`].
    pub algo: Option<usize>,
    /// Index into [`fault_modes`].
    pub faults: usize,
    pub seed: u64,
    pub rounds: usize,
    pub sample_ratio: f32,
    /// A buffered-asynchronous identity (a two-update buffer over
    /// [`SLOW_LINK`]): updates wait in flight across cycles, so its
    /// history is its own, and only store, trace, `cohort_batch` and
    /// resume are drawn.
    pub buffered: bool,
}

impl Scenario {
    pub fn faults(&self) -> FaultConfig {
        fault_modes()[self.faults].1
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Transport {
    InProc,
    Threads(usize),
    Process,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mode {
    Sync,
    /// A cohort-sized buffer: every update folds fresh, in sampled order.
    Async,
    /// The same over [`LINK`].
    AsyncLink,
    /// The scenario's own buffered identity.
    Buffered,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Trace {
    Off,
    Record,
    Sink,
    /// A `NoopSink` passed explicitly: the one the engine uses untraced.
    Noop,
}

/// How one run of a scenario is carried.
#[derive(Clone, Copy, Debug)]
pub struct Presentation {
    pub transport: Transport,
    pub sharded: bool,
    pub mode: Mode,
    pub trace: Trace,
    pub cohort_batch: Option<usize>,
    /// Kill after this round, the killed half carried by this transport,
    /// then resume toward the horizon.
    pub resume: Option<(usize, Transport)>,
    /// Pass the fault model even when it is the reliable one, which the
    /// engine also assumes when none is passed.
    pub explicit_faults: bool,
}

/// In-process, eager, sync, untraced, unbatched, straight through.
pub const PLAIN: Presentation = Presentation {
    transport: Transport::InProc,
    sharded: false,
    mode: Mode::Sync,
    trace: Trace::Off,
    cohort_batch: None,
    resume: None,
    explicit_faults: true,
};

impl Presentation {
    /// [`PLAIN`] in the scenario's own round mode, without an explicit
    /// reliable fault model.
    pub fn reference(s: &Scenario) -> Self {
        let mode = if s.buffered { Mode::Buffered } else { Mode::Sync };
        Presentation { mode, explicit_faults: false, ..PLAIN }
    }

    fn resume_point(&self) -> usize {
        self.resume.map_or(0, |(r, _)| r)
    }
}

/// A trained scenario of `algo` under fault model `faults`, three rounds,
/// three of four clients a round.
pub const fn trained(algo: usize, faults: usize, seed: u64) -> Scenario {
    Scenario { algo: Some(algo), faults, seed, rounds: 3, sample_ratio: 0.75, buffered: false }
}

/// What one presentation of a scenario yielded.
pub struct Run {
    pub json: String,
    pub plans: String,
    /// Every cohort the algorithm trained.
    pub waves: Vec<(usize, Vec<usize>, u64)>,
    pub clock: Option<u64>,
    pub stats: Option<TransportStats>,
}

/// `p`'s options, its final half carried by `transport`.
fn options<'a>(
    s: &Scenario,
    p: &Presentation,
    transport: Transport,
    cohort: usize,
) -> RunOptions<'a> {
    let mut opts = RunOptions::new();
    if s.faults != 0 || p.explicit_faults {
        opts = opts.faults(s.faults());
    }
    opts = match p.mode {
        Mode::Sync => opts,
        Mode::Async => opts.async_rounds(AsyncConfig::new(cohort)),
        Mode::AsyncLink => opts.async_rounds(AsyncConfig::new(cohort).network(LINK)),
        Mode::Buffered => opts.async_rounds(
            AsyncConfig::new(2).max_staleness(3).staleness_decay(0.7).network(SLOW_LINK),
        ),
    };
    match transport {
        Transport::InProc => opts,
        Transport::Threads(n) => opts.socket_transport(SocketConfig::threads(n)),
        Transport::Process => {
            opts.socket_transport(SocketConfig::process(2, env!("CARGO_BIN_EXE_kemf_worker")))
        }
    }
}

/// Run `s` as `p` under `dir`, with the checks its presentation promises.
pub fn present(s: &Scenario, p: &Presentation, dir: &Path) -> Run {
    let (mut ctx, task) = world(s.seed, s.rounds);
    ctx.cfg.sample_ratio = s.sample_ratio;
    ctx.cfg.cohort_batch = p.cohort_batch;
    let cohort = ctx.cfg.sampled_per_round();
    let spill = p.sharded.then(|| dir.join("spill"));
    let build = |ctx: &FlContext| {
        Tap::new(match s.algo {
            Some(a) => all_algorithms(ctx, &task, spill.as_deref()).swap_remove(a),
            None => Box::new(Probe),
        })
    };
    let ckpt = dir.join("ckpt");
    let mut opts = options(s, p, p.transport, cohort);
    if let Some((r, first)) = p.resume {
        ctx.cfg.rounds = r;
        let policy = CheckpointPolicy::new(&ckpt, r);
        let killed =
            Engine::run(&mut build(&ctx), &ctx, options(s, p, first, cohort).checkpoint(policy))
                .unwrap_or_else(|e| panic!("{s:?}\n{p:?}: killed half: {e}"));
        assert_eq!(killed.checkpoints.len(), 1, "{s:?}\n{p:?}: one checkpoint at the kill");
        ctx.cfg.rounds = s.rounds;
        opts = opts.resume_from(&ckpt);
    }
    let mut sink = TraceSink::new();
    let mut noop = NoopSink;
    opts = match p.trace {
        Trace::Off => opts,
        Trace::Record => opts.record_trace(),
        Trace::Sink => opts.sink(&mut sink),
        Trace::Noop => opts.sink(&mut noop),
    };
    let mut algo = build(&ctx);
    let report = Engine::run(&mut algo, &ctx, opts).unwrap_or_else(|e| panic!("{s:?}\n{p:?}: {e}"));
    let mut history = report.history;
    let label = format!("{s:?}\n{p:?}");

    let from = p.resume_point();
    assert_eq!(report.resumed_from, p.resume.map(|(r, _)| r), "{label}: resume point");
    assert_eq!(history.rounds(), s.rounds, "{label}: the horizon");
    assert_eq!(report.plans.len(), s.rounds, "{label}: one plan per round, replayed ones too");
    assert!(algo.waves.iter().all(|w| w.0 >= from), "{label}: retrained a round before the resume");

    assert_eq!(history.trace.is_some(), p.trace == Trace::Record, "{label}: attached trace");
    history.trace = None;
    let json = history.to_json();
    assert!(!json.contains("\"trace\""), "{label}: an untraced history names no trace");
    if p.trace == Trace::Sink {
        assert!(
            sink.spans().iter().any(|sp| sp.phase == Phase::Round),
            "{label}: the sink saw no round"
        );
    }

    let clock = report.sim_time_s;
    match p.mode {
        Mode::Sync => assert_eq!(clock, None, "{label}: a sync run has no virtual clock"),
        Mode::Async if s.faults().straggler_prob == 0.0 => {
            assert_eq!(clock, Some(0.0), "{label}: no link and no delay, so the clock never moves")
        }
        Mode::Async => assert!(clock.is_some(), "{label}"),
        Mode::AsyncLink | Mode::Buffered => {
            assert!(clock.is_some_and(|t| t > 0.0), "{label}: transfers advance the clock")
        }
    }

    let stats = report.transport;
    assert_eq!(stats.is_some(), p.transport != Transport::InProc, "{label}: wire stats");
    if let Some(stats) = stats {
        // The socket's history is its wire measurement, over the rounds
        // this process carried.
        let carried = &history.records[from..];
        let sum = |f: fn(&RoundRecord) -> u64| carried.iter().map(f).sum::<u64>();
        assert_eq!(stats.rounds, s.rounds - from, "{label}: rounds on the wire");
        assert_eq!(stats.payload_down_bytes, sum(|r| r.down_bytes), "{label}: downlink");
        assert_eq!(stats.payload_up_bytes, sum(|r| r.up_bytes), "{label}: uplink");
        assert_eq!(stats.payload_wasted_bytes, sum(|r| r.wasted_up_bytes), "{label}: waste");
        assert!(stats.wire_bytes > stats.payload_total(), "{label}: framing is real bytes");
    }
    Run {
        json,
        plans: format!("{:?}", report.plans),
        waves: algo.waves,
        clock: clock.map(f64::to_bits),
        stats,
    }
}

/// The first line where two histories part, for the failure message.
fn first_difference(a: &str, b: &str) -> String {
    let (i, (x, y)) =
        a.lines().zip(b.lines()).enumerate().find(|(_, (x, y))| x != y).unwrap_or_default();
    format!("line {i}: {x:?} vs {y:?}")
}

/// Run `s`'s reference and `presentations` and check the property: each
/// presentation yields the reference's history, round plans and (from its
/// resume point on) cohorts, and the clock of the first run in its round
/// mode. Returns the runs, reference first.
pub fn check(tag: &str, s: &Scenario, presentations: &[Presentation]) -> Vec<Run> {
    let mut clocks: HashMap<Mode, (Presentation, Option<u64>)> = HashMap::new();
    let reference = Presentation::reference(s);
    let mut runs: Vec<Run> = Vec::new();
    for (j, p) in std::iter::once(&reference).chain(presentations).enumerate() {
        let dir = temp_dir(&format!("equivalence_{tag}_{j}"));
        let run = present(s, p, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        let (q, clock) = clocks.entry(p.mode).or_insert((*p, run.clock));
        assert_eq!(run.clock, *clock, "{s:?}\n{q:?}\n{p:?}: one virtual clock per mode");
        if let Some(first) = runs.first() {
            let label = format!("{s:?}\n  {reference:?}\n  {p:?}");
            assert!(
                run.json == first.json,
                "{label}\nhistories differ at {}",
                first_difference(&first.json, &run.json)
            );
            assert!(run.plans == first.plans, "{label}\nround plans differ");
            let after = |waves: &[(usize, Vec<usize>, u64)]| {
                waves.iter().filter(|w| w.0 >= p.resume_point()).cloned().collect::<Vec<_>>()
            };
            assert_eq!(
                after(&run.waves),
                after(&first.waves),
                "{label}\nthe algorithm was handed other cohorts"
            );
        }
        runs.push(run);
    }
    runs
}
