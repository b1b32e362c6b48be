//! Round-lifecycle observability: phase-timed spans with pluggable sinks.
//!
//! The engine drives an [`EventSink`] through every phase of every
//! communication round — `sample → broadcast → local_update → fusion →
//! upload → eval`, closed by a whole-`round` span — emitting one [`Span`]
//! per phase with wall-clock timing plus counters: SGD steps, batch
//! visits, GEMM FLOPs (from the [`kemf_tensor::flops`] accounting hook),
//! per-phase bytes (reusing the lifecycle plan's honest
//! [`crate::lifecycle::RoundComm`] accounting), quorum outcomes, and the
//! process's minor page faults (where `/proc/self/stat` can be read).
//!
//! Two sinks ship with the engine:
//!
//! * [`NoopSink`] — the default. Disabled sinks short-circuit every
//!   timing call ([`RoundScope::phase`] runs the closure and nothing
//!   else), so untraced runs pay one branch per phase and produce
//!   bit-identical [`crate::metrics::History`] output.
//! * [`TraceSink`] — records every span into a [`RunTrace`], which
//!   exports JSONL ([`RunTrace::to_jsonl`]) and a human-readable
//!   per-phase summary table ([`RunTrace::summary_table`]).
//!
//! **Determinism.** For a fixed seed the span *structure* — phases,
//! rounds, clients, steps, batches, bytes, quorum flags — is
//! bit-reproducible; [`RunTrace::canonical_jsonl`] serializes exactly
//! that subset (wall-clock and FLOP fields zeroed) for golden tests.
//! Wall times vary run to run by nature; FLOP deltas are exact for a
//! lone engine but, being read from a process-global counter, can be
//! inflated by concurrent engines in the same process (parallel tests),
//! so they are excluded from the canonical form too, and so are minor
//! faults, which depend on the allocator and the kernel as well.
//!
//! **File ordering.** Spans are recorded in execution order, one shape
//! for synchronous and asynchronous rounds alike: `sample`, `broadcast`,
//! the algorithm's `local_update`, the engine's `buffer` drain, the
//! algorithm's `fusion`, then `upload`, `eval`, and the enclosing
//! `round` span. The `upload` span appears after `fusion` because it
//! bills what the drain folded (and evicted); semantically uploads
//! complete before server fusion begins.

use serde::{DeError, Deserialize, Serialize, Value};
use std::time::Instant;

/// A round-lifecycle phase. One span is emitted per phase per round
/// (quorum-aborted rounds skip `fusion`, and `local_update` too unless
/// evictions aborted an async cycle whose wave could still have met its
/// quorum).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Client sampling + lifecycle fault-plan draw.
    Sample,
    /// Server → client broadcast of the transmitted state (simulated;
    /// carries the downlink byte accounting).
    Broadcast,
    /// The client-side local-update fan-out (DML for FedKEMF, local SGD
    /// for the weight baselines). Real compute: nonzero wall and FLOPs.
    LocalUpdate,
    /// Buffer drain: completed client updates are popped from the
    /// simulated event queue into the aggregation buffer, evicting
    /// updates staler than the cap. Carries the staleness counters.
    /// Emitted by every round; a synchronous round's buffer holds the
    /// whole cohort, so its counters read the reporters, none stale.
    Buffer,
    /// Server-side fusion: ensemble distillation, weight averaging, or
    /// consensus aggregation. Real compute: nonzero wall and FLOPs.
    Fusion,
    /// Client → server reports (simulated; carries accepted + wasted
    /// uplink byte accounting).
    Upload,
    /// Global-model evaluation on the held-out test set.
    Eval,
    /// The enclosing whole-round span; its wall time bounds the sum of
    /// the phase spans, and it carries the round's quorum outcome.
    Round,
}

impl Phase {
    /// All phases of a full (quorum-met) round, in emission order
    /// (`buffer` appears only in async-mode rounds).
    pub const ALL: [Phase; 8] = [
        Phase::Sample,
        Phase::Broadcast,
        Phase::LocalUpdate,
        Phase::Buffer,
        Phase::Fusion,
        Phase::Upload,
        Phase::Eval,
        Phase::Round,
    ];

    /// The snake_case name used in JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Sample => "sample",
            Phase::Broadcast => "broadcast",
            Phase::LocalUpdate => "local_update",
            Phase::Buffer => "buffer",
            Phase::Fusion => "fusion",
            Phase::Upload => "upload",
            Phase::Eval => "eval",
            Phase::Round => "round",
        }
    }

    /// Inverse of [`Phase::name`].
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.iter().copied().find(|p| p.name() == name)
    }
}

impl Serialize for Phase {
    fn to_value(&self) -> Value {
        Value::Str(self.name().to_string())
    }
}

impl Deserialize for Phase {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Phase::from_name(s)
                .ok_or_else(|| DeError::custom(&format!("unknown phase `{s}`"))),
            _ => Err(DeError::custom("expected phase name string")),
        }
    }
}

/// Counters attached to a span. Units: `steps` are optimizer steps
/// (one synchronized DML step updates both networks and counts once),
/// `batches` are mini-batch visits, `flops` are GEMM multiply-add FLOPs
/// (2·m·n·k per product), byte fields follow the lifecycle accounting
/// (`down` = full broadcast set, `up` = accepted reports, `wasted_up` =
/// failed upload attempts).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counters {
    /// Clients participating in the phase (sampled / broadcast-reached /
    /// trained / accepted, per phase).
    pub clients: usize,
    /// Optimizer steps taken in the phase.
    pub steps: u64,
    /// Mini-batch visits in the phase.
    pub batches: u64,
    /// GEMM FLOPs spent in the phase (filled automatically by
    /// [`RoundScope::phase`] from the [`kemf_tensor::flops`] counter).
    pub flops: u64,
    /// Downlink bytes charged in the phase.
    pub down_bytes: u64,
    /// Accepted uplink bytes charged in the phase.
    pub up_bytes: u64,
    /// Wasted uplink bytes (failed upload attempts) in the phase.
    pub wasted_up_bytes: u64,
    /// Async mode: updates folded this aggregation whose dispatch wave
    /// is older than the aggregating cycle (staleness > 0). Always zero
    /// in synchronous rounds.
    pub stale_updates: u64,
    /// Async mode: buffered updates evicted for exceeding the staleness
    /// cap (their uplink bytes count as wasted). Always zero in
    /// synchronous rounds.
    pub evicted_updates: u64,
    /// Whether the round met its reporting quorum (meaningful on the
    /// `round` span; `true` elsewhere).
    pub quorum_met: bool,
    /// What the byte counters price on the wire — `"weights"`,
    /// `"window"`, `"logits"`, or `"mixed"` (clients of this round got
    /// different view kinds). `None` on spans that carry no payload
    /// bytes and on traces recorded before per-client plans; the JSONL
    /// field is omitted rather than null so old traces stay
    /// byte-identical.
    pub payload_label: Option<&'static str>,
    /// Minor page faults the whole process took during the span (filled
    /// automatically by [`RoundScope::phase`] and on the `round` span):
    /// pages first touched, or touched again after the allocator handed
    /// them back. `None` where `/proc/self/stat` cannot be read and on
    /// traces recorded before the counter, whose JSONL omits it.
    pub minor_faults: Option<u64>,
}

impl Counters {
    fn quorum_default() -> Self {
        Counters { quorum_met: true, ..Default::default() }
    }
}

/// One timed phase of one round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    /// Round index (0-based).
    pub round: usize,
    /// Lifecycle phase.
    pub phase: Phase,
    /// Wall-clock duration in seconds.
    pub wall_s: f64,
    /// Phase counters (flattened into the JSONL object).
    pub counters: Counters,
}

impl Serialize for Span {
    fn to_value(&self) -> Value {
        // Counters are flattened into the span object so each JSONL line
        // is one flat record.
        let c = &self.counters;
        let mut entries = vec![
            ("round".to_string(), self.round.to_value()),
            ("phase".to_string(), self.phase.to_value()),
            ("wall_s".to_string(), self.wall_s.to_value()),
            ("clients".to_string(), c.clients.to_value()),
            ("steps".to_string(), c.steps.to_value()),
            ("batches".to_string(), c.batches.to_value()),
            ("flops".to_string(), c.flops.to_value()),
            ("down_bytes".to_string(), c.down_bytes.to_value()),
            ("up_bytes".to_string(), c.up_bytes.to_value()),
            ("wasted_up_bytes".to_string(), c.wasted_up_bytes.to_value()),
            ("stale_updates".to_string(), c.stale_updates.to_value()),
            ("evicted_updates".to_string(), c.evicted_updates.to_value()),
            ("quorum_met".to_string(), c.quorum_met.to_value()),
        ];
        if let Some(label) = c.payload_label {
            entries.push(("payload".to_string(), Value::Str(label.to_string())));
        }
        if let Some(faults) = c.minor_faults {
            entries.push(("minor_faults".to_string(), faults.to_value()));
        }
        Value::Map(entries)
    }
}

impl Deserialize for Span {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let m = v.as_map().ok_or_else(|| DeError::custom("expected map for Span"))?;
        let field = |key: &str| serde::get_field(m, key);
        // The staleness counters postdate the format: traces recorded
        // before async rounds existed simply omit them, so they default
        // to zero on read instead of failing the whole line.
        let opt_u64 = |key: &str| -> Result<u64, DeError> {
            match m.iter().find(|(k, _)| k == key) {
                Some((_, v)) => u64::from_value(v),
                None => Ok(0),
            }
        };
        // The payload label also postdates the format (absent → None).
        // It parses back to the same interned label the writer used, so
        // round-tripping a trace is still exact equality.
        let payload_label = match m.iter().find(|(k, _)| k == "payload") {
            None => None,
            Some((_, v)) => match String::from_value(v)?.as_str() {
                "weights" => Some("weights"),
                "window" => Some("window"),
                "logits" => Some("logits"),
                "mixed" => Some("mixed"),
                other => {
                    return Err(DeError::custom(&format!("unknown payload label `{other}`")))
                }
            },
        };
        // So does the fault counter (absent → None).
        let minor_faults = match m.iter().find(|(k, _)| k == "minor_faults") {
            None => None,
            Some((_, v)) => Some(u64::from_value(v)?),
        };
        Ok(Span {
            round: usize::from_value(field("round")?)?,
            phase: Phase::from_value(field("phase")?)?,
            wall_s: f64::from_value(field("wall_s")?)?,
            counters: Counters {
                clients: usize::from_value(field("clients")?)?,
                steps: u64::from_value(field("steps")?)?,
                batches: u64::from_value(field("batches")?)?,
                flops: u64::from_value(field("flops")?)?,
                down_bytes: u64::from_value(field("down_bytes")?)?,
                up_bytes: u64::from_value(field("up_bytes")?)?,
                wasted_up_bytes: u64::from_value(field("wasted_up_bytes")?)?,
                stale_updates: opt_u64("stale_updates")?,
                evicted_updates: opt_u64("evicted_updates")?,
                quorum_met: bool::from_value(field("quorum_met")?)?,
                payload_label,
                minor_faults,
            },
        })
    }
}

/// Receives spans as the engine emits them. Implementations must be
/// cheap to query: the engine checks [`EventSink::enabled`] once per
/// phase and skips all timing work when it returns `false`.
pub trait EventSink {
    /// Should the engine pay for timing and counter collection?
    fn enabled(&self) -> bool;

    /// Record one completed span.
    fn record(&mut self, span: Span);
}

/// The zero-cost default: records nothing, disables all timing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl EventSink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _span: Span) {}
}

/// Records every span into a [`RunTrace`].
#[derive(Clone, Debug, Default)]
pub struct TraceSink {
    trace: RunTrace,
}

impl TraceSink {
    /// Empty recording sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.trace.spans
    }

    /// Consume the sink, yielding the recorded trace.
    pub fn into_trace(self) -> RunTrace {
        self.trace
    }
}

impl EventSink for TraceSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, span: Span) {
        self.trace.spans.push(span);
    }
}

/// The engine's per-round handle into the active sink. Created by the
/// engine for each round and threaded through
/// [`crate::engine::FedAlgorithm::train_cohort`] and
/// [`crate::engine::FedAlgorithm::fuse`], so algorithms can time their
/// interior phases (the local fan-out, server fusion) without knowing
/// which sink — if any — is listening.
pub struct RoundScope<'a> {
    sink: &'a mut dyn EventSink,
    round: usize,
    enabled: bool,
}

impl<'a> RoundScope<'a> {
    /// Scope for one round over a sink.
    pub fn new(sink: &'a mut dyn EventSink, round: usize) -> Self {
        let enabled = sink.enabled();
        RoundScope { sink, round, enabled }
    }

    /// The round this scope instruments.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Is a recording sink attached? Lets callers skip counter
    /// bookkeeping that exists only to be recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` as one phase: times it, measures its GEMM FLOP and minor
    /// fault deltas, and records a span carrying whatever counters `f`
    /// filled in. With a disabled sink this is exactly `f(&mut scratch)` —
    /// no clock reads, no atomics, no allocation, no `/proc` read.
    pub fn phase<T>(&mut self, phase: Phase, f: impl FnOnce(&mut Counters) -> T) -> T {
        let mut counters = Counters::quorum_default();
        if !self.enabled {
            return f(&mut counters);
        }
        let faults_before = minor_faults();
        let flops_before = kemf_tensor::flops::total();
        let t0 = Instant::now();
        let out = f(&mut counters);
        let wall_s = t0.elapsed().as_secs_f64();
        counters.flops += kemf_tensor::flops::total() - flops_before;
        counters.minor_faults = faults_since(faults_before);
        self.sink.record(Span { round: self.round, phase, wall_s, counters });
        out
    }

    /// Record a pre-timed span (the engine uses this for the enclosing
    /// `round` span, whose interval brackets nested `phase` calls).
    pub fn record_raw(&mut self, phase: Phase, wall_s: f64, counters: Counters) {
        if self.enabled {
            self.sink.record(Span { round: self.round, phase, wall_s, counters });
        }
    }
}

/// The minor page faults the process has taken so far: field 10 of
/// `/proc/self/stat`, summed over every thread, live or exited. The file
/// is opened once and re-read in place, so a reading is one `pread` into
/// a stack buffer. `None` where there is no such file.
#[cfg(unix)]
pub(crate) fn minor_faults() -> Option<u64> {
    use std::fs::File;
    use std::os::unix::fs::FileExt;
    use std::sync::OnceLock;
    static STAT: OnceLock<Option<File>> = OnceLock::new();
    let file = STAT.get_or_init(|| File::open("/proc/self/stat").ok()).as_ref()?;
    let mut buf = [0u8; 1024];
    let len = file.read_at(&mut buf, 0).ok()?;
    let text = std::str::from_utf8(&buf[..len]).ok()?;
    // `pid (comm) state ...`: the command name may hold spaces and
    // parentheses, so count fields from the last `)`; field 3 (`state`)
    // is the first after it.
    let rest = &text[text.rfind(')')? + 1..];
    rest.split_whitespace().nth(10 - 3)?.parse().ok()
}

#[cfg(not(unix))]
pub(crate) fn minor_faults() -> Option<u64> {
    None
}

/// The faults taken since a [`minor_faults`] reading.
pub(crate) fn faults_since(before: Option<u64>) -> Option<u64> {
    Some(minor_faults()?.saturating_sub(before?))
}

/// A full recorded run: every span of every round, in emission order.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RunTrace {
    /// Recorded spans.
    pub spans: Vec<Span>,
}

impl RunTrace {
    /// Spans belonging to one round, in emission order.
    pub fn round_spans(&self, round: usize) -> Vec<&Span> {
        self.spans.iter().filter(|s| s.round == round).collect()
    }

    /// Number of distinct rounds recorded.
    pub fn rounds(&self) -> usize {
        self.spans.iter().map(|s| s.round + 1).max().unwrap_or(0)
    }

    /// One JSON object per line, one line per span — the export format
    /// plotting pipelines and the CI smoke test consume.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            out.push_str(&serde_json::to_string(span).expect("span serializes"));
            out.push('\n');
        }
        out
    }

    /// JSONL with the nondeterministic fields (`wall_s`, and `flops`,
    /// which a process-global counter can inflate across concurrent
    /// engines) zeroed and `minor_faults` left out. Two same-seed runs
    /// produce identical canonical JSONL — the golden-test form.
    pub fn canonical_jsonl(&self) -> String {
        let canon = RunTrace {
            spans: self
                .spans
                .iter()
                .map(|s| {
                    let mut c = *s;
                    c.wall_s = 0.0;
                    c.counters.flops = 0;
                    c.counters.minor_faults = None;
                    c
                })
                .collect(),
        };
        canon.to_jsonl()
    }

    /// Parse a trace back from [`RunTrace::to_jsonl`] output. Blank
    /// lines are ignored; any malformed line is an error.
    pub fn from_jsonl(s: &str) -> Result<RunTrace, serde_json::Error> {
        let mut spans = Vec::new();
        for line in s.lines() {
            if line.trim().is_empty() {
                continue;
            }
            spans.push(serde_json::from_str(line)?);
        }
        Ok(RunTrace { spans })
    }

    /// Aggregate the trace per phase (summed over rounds).
    pub fn phase_summary(&self) -> Vec<PhaseSummary> {
        Phase::ALL
            .iter()
            .filter_map(|&phase| {
                let mut sum = PhaseSummary { phase, ..Default::default() };
                for s in self.spans.iter().filter(|s| s.phase == phase) {
                    sum.spans += 1;
                    sum.wall_s += s.wall_s;
                    sum.steps += s.counters.steps;
                    sum.batches += s.counters.batches;
                    sum.flops += s.counters.flops;
                    sum.bytes += s.counters.down_bytes
                        + s.counters.up_bytes
                        + s.counters.wasted_up_bytes;
                    if let Some(faults) = s.counters.minor_faults {
                        *sum.minor_faults.get_or_insert(0) += faults;
                    }
                }
                (sum.spans > 0).then_some(sum)
            })
            .collect()
    }

    /// Human-readable per-phase summary table: where the run spent its
    /// wall clock, compute, and bytes. Shares in the `wall%` column are
    /// relative to the summed `round` spans.
    pub fn summary_table(&self) -> String {
        let summaries = self.phase_summary();
        let total_wall: f64 = summaries
            .iter()
            .find(|s| s.phase == Phase::Round)
            .map_or(0.0, |s| s.wall_s);
        let header =
            ["phase", "spans", "wall_s", "wall%", "steps", "batches", "gflops", "bytes", "faults"];
        let mut rows: Vec<[String; 9]> = Vec::with_capacity(summaries.len());
        for s in &summaries {
            let share = if total_wall > 0.0 && s.phase != Phase::Round {
                format!("{:.1}%", 100.0 * s.wall_s / total_wall)
            } else {
                "-".into()
            };
            rows.push([
                s.phase.name().to_string(),
                s.spans.to_string(),
                format!("{:.4}", s.wall_s),
                share,
                s.steps.to_string(),
                s.batches.to_string(),
                format!("{:.3}", s.flops as f64 / 1e9),
                s.bytes.to_string(),
                s.minor_faults.map_or_else(|| "-".into(), |f| f.to_string()),
            ]);
        }
        let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let head: Vec<String> = header.iter().map(|h| h.to_string()).collect();
        let mut out = fmt(&head);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in rows {
            out.push_str(&fmt(&row));
            out.push('\n');
        }
        out
    }
}

/// Per-phase aggregate over a whole run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhaseSummary {
    /// Phase.
    pub phase: Phase,
    /// Spans recorded (≈ rounds the phase ran in).
    pub spans: usize,
    /// Total wall-clock seconds.
    pub wall_s: f64,
    /// Total optimizer steps.
    pub steps: u64,
    /// Total batch visits.
    pub batches: u64,
    /// Total GEMM FLOPs.
    pub flops: u64,
    /// Total bytes (down + accepted up + wasted up).
    pub bytes: u64,
    /// Total minor page faults over the spans that carry the counter;
    /// `None` if none does.
    pub minor_faults: Option<u64>,
}

impl Default for PhaseSummary {
    fn default() -> Self {
        PhaseSummary {
            phase: Phase::Round,
            spans: 0,
            wall_s: 0.0,
            steps: 0,
            batches: 0,
            flops: 0,
            bytes: 0,
            minor_faults: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(round: usize, phase: Phase, wall_s: f64, steps: u64) -> Span {
        Span {
            round,
            phase,
            wall_s,
            counters: Counters { steps, batches: steps, quorum_met: true, ..Default::default() },
        }
    }

    #[test]
    fn jsonl_roundtrip_preserves_spans() {
        let trace = RunTrace {
            spans: vec![span(0, Phase::Sample, 1e-6, 0), span(0, Phase::LocalUpdate, 0.5, 20)],
        };
        let parsed = RunTrace::from_jsonl(&trace.to_jsonl()).unwrap();
        assert_eq!(parsed, trace);
        // Each line is one standalone JSON object with flattened counters.
        let first = trace.to_jsonl().lines().next().unwrap().to_string();
        assert!(first.starts_with('{') && first.ends_with('}'), "{first}");
        for needle in ["\"round\":0", "\"phase\":\"sample\"", "\"wall_s\":", "\"steps\":0"] {
            assert!(first.contains(needle), "missing {needle} in {first}");
        }
    }

    #[test]
    fn legacy_spans_without_staleness_counters_still_parse() {
        // A line recorded before async rounds existed: no
        // `stale_updates` / `evicted_updates` fields.
        let legacy = r#"{"round":2,"phase":"fusion","wall_s":0.5,"clients":3,"steps":9,"batches":9,"flops":0,"down_bytes":10,"up_bytes":20,"wasted_up_bytes":0,"quorum_met":true}"#;
        let trace = RunTrace::from_jsonl(legacy).unwrap();
        assert_eq!(trace.spans[0].counters.stale_updates, 0);
        assert_eq!(trace.spans[0].counters.evicted_updates, 0);
        assert_eq!(trace.spans[0].counters.steps, 9);
        // New spans round-trip the counters.
        let mut s = span(0, Phase::Buffer, 0.0, 0);
        s.counters.stale_updates = 4;
        s.counters.evicted_updates = 1;
        let t = RunTrace { spans: vec![s] };
        let parsed = RunTrace::from_jsonl(&t.to_jsonl()).unwrap();
        assert_eq!(parsed, t);
        assert_eq!(Phase::from_name("buffer"), Some(Phase::Buffer));
    }

    #[test]
    fn payload_label_is_omitted_when_absent_and_roundtrips_when_set() {
        let unlabeled = RunTrace { spans: vec![span(0, Phase::Broadcast, 0.0, 0)] };
        assert!(!unlabeled.to_jsonl().contains("payload"), "{}", unlabeled.to_jsonl());
        let mut s = span(1, Phase::Broadcast, 0.0, 0);
        s.counters.payload_label = Some("window");
        let labeled = RunTrace { spans: vec![s] };
        let line = labeled.to_jsonl();
        assert!(line.contains("\"payload\":\"window\""), "{line}");
        let parsed = RunTrace::from_jsonl(&line).unwrap();
        assert_eq!(parsed, labeled);
        assert!(RunTrace::from_jsonl(&line.replace("window", "telepathy")).is_err());
    }

    #[test]
    fn minor_faults_are_omitted_when_absent_and_roundtrip_when_set() {
        let uncounted = RunTrace { spans: vec![span(0, Phase::Fusion, 0.0, 0)] };
        assert!(!uncounted.to_jsonl().contains("minor_faults"), "{}", uncounted.to_jsonl());
        let mut spans = vec![span(0, Phase::Fusion, 0.0, 0), span(1, Phase::Fusion, 0.0, 0)];
        spans[0].counters.minor_faults = Some(1700);
        spans[1].counters.minor_faults = Some(3);
        let counted = RunTrace { spans };
        let text = counted.to_jsonl();
        assert!(text.contains("\"minor_faults\":1700"), "{text}");
        assert_eq!(RunTrace::from_jsonl(&text).unwrap(), counted);
        assert!(!counted.canonical_jsonl().contains("minor_faults"));
        let fusion = counted.phase_summary()[0];
        assert_eq!(fusion.minor_faults, Some(1703));
        assert_eq!(uncounted.phase_summary()[0].minor_faults, None);
        assert!(counted.summary_table().contains("1703"), "{}", counted.summary_table());
    }

    #[test]
    fn a_traced_phase_reads_the_process_fault_counter() {
        let mut sink = TraceSink::new();
        let mut scope = RoundScope::new(&mut sink, 0);
        // Touch fresh pages inside the phase: a count that reads at all
        // reads at least the pages first written here. 36 MiB is above
        // any mmap threshold glibc accepts, so the buffer is a fresh
        // mapping whatever the heap already holds.
        let pages = scope.phase(Phase::LocalUpdate, |_| {
            let v = std::hint::black_box(vec![1u8; 36 << 20]);
            v.iter().step_by(4096).count() as u64
        });
        let faults = sink.spans()[0].counters.minor_faults;
        if std::path::Path::new("/proc/self/stat").exists() {
            assert!(faults.is_some_and(|f| f >= pages / 2), "{faults:?} faults for {pages} pages");
        } else {
            assert_eq!(faults, None);
        }
    }

    #[test]
    fn canonical_form_zeroes_nondeterministic_fields() {
        let mut a = RunTrace { spans: vec![span(0, Phase::Fusion, 0.123, 5)] };
        a.spans[0].counters.flops = 999;
        let mut b = a.clone();
        b.spans[0].wall_s = 0.456;
        b.spans[0].counters.flops = 111;
        assert_ne!(a.to_jsonl(), b.to_jsonl());
        assert_eq!(a.canonical_jsonl(), b.canonical_jsonl());
    }

    #[test]
    fn noop_sink_disables_scope_phases() {
        let mut sink = NoopSink;
        let mut scope = RoundScope::new(&mut sink, 3);
        assert!(!scope.enabled());
        let out = scope.phase(Phase::Eval, |c| {
            c.steps = 7;
            42
        });
        assert_eq!(out, 42);
    }

    #[test]
    fn trace_sink_records_phases_with_counters() {
        let mut sink = TraceSink::new();
        {
            let mut scope = RoundScope::new(&mut sink, 1);
            assert!(scope.enabled());
            scope.phase(Phase::LocalUpdate, |c| {
                c.steps = 12;
                c.clients = 3;
            });
            scope.record_raw(Phase::Round, 1.0, Counters::quorum_default());
        }
        let trace = sink.into_trace();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[0].phase, Phase::LocalUpdate);
        assert_eq!(trace.spans[0].counters.steps, 12);
        assert_eq!(trace.spans[0].counters.clients, 3);
        assert!(trace.spans[0].wall_s >= 0.0);
        assert_eq!(trace.rounds(), 2);
        assert_eq!(trace.round_spans(1).len(), 2);
    }

    #[test]
    fn summary_aggregates_per_phase() {
        let trace = RunTrace {
            spans: vec![
                span(0, Phase::LocalUpdate, 0.25, 10),
                span(1, Phase::LocalUpdate, 0.25, 10),
                span(0, Phase::Round, 0.5, 0),
                span(1, Phase::Round, 0.5, 0),
            ],
        };
        let summary = trace.phase_summary();
        let local = summary.iter().find(|s| s.phase == Phase::LocalUpdate).unwrap();
        assert_eq!(local.spans, 2);
        assert_eq!(local.steps, 20);
        assert!((local.wall_s - 0.5).abs() < 1e-12);
        let table = trace.summary_table();
        assert!(table.contains("local_update"), "{table}");
        assert!(table.contains("50.0%"), "{table}");
    }
}
