//! In-process simulation vs real socket transport: what honesty costs.
//!
//! The socket transport enacts every round as framed bytes over
//! localhost TCP, so its byte accounting is a measurement instead of a
//! formula. This binary prices that: wall-clock rounds/sec for the
//! closed-form simulator vs thread workers across payload sizes, plus
//! the framing-overhead fraction at each size (the honest extra bytes
//! the protocol itself costs).
//!
//! Usage:
//!   bench_transport --smoke     # CI: one wired sweep point, writes nothing
//!   bench_transport             # full sweep, writes BENCH_transport.json
//!                               # into KEMF_RESULTS_DIR (default bench_results/)
//!
//! Training is deliberately excluded: a zero-cost probe algorithm with a
//! synthetic payload isolates the transport, so the numbers compare
//! traffic machinery, not gradient descent. The probe stamps its first
//! `client_plans` call (the start of round 0) and its last `evaluate`
//! (the end of the last round), so rounds/s times the rounds alone; the
//! worker-pool start before round 0 is reported as its own field.

use kemf_bench::report::write_json;
use kemf_bench::Args;
use kemf_data::synth::{SynthConfig, SynthTask};
use kemf_fl::config::FlConfig;
use kemf_fl::context::FlContext;
use kemf_fl::engine::{Engine, EngineError, FedAlgorithm, RoundOutcome, RunOptions};
use kemf_fl::lifecycle::{ClientPlan, FaultConfig, ModelView, WirePayload};
use kemf_fl::scheduler::{PreparedUpdate, UpdatePayload};
use kemf_fl::trace::RoundScope;
use kemf_fl::transport::SocketConfig;
use serde::Serialize;
use std::cell::Cell;
use std::time::Instant;

/// One (transport × payload) measurement, as written to
/// BENCH_transport.json.
#[derive(Serialize)]
struct TransportRecord {
    transport: String,
    payload_down_bytes: u64,
    payload_up_bytes: u64,
    rounds: usize,
    /// Rounds over the wall time from round 0's start to the last
    /// round's end.
    wall_rounds_per_sec: f64,
    /// Seconds from `Engine::run` to round 0's start: set-up, which over
    /// sockets is mostly the worker-pool start.
    pool_start_s: f64,
    /// Payload bytes that actually crossed the wire (socket modes only).
    wire_payload_bytes: Option<u64>,
    /// Protocol framing on top of the payload (socket modes only).
    wire_framing_bytes: Option<u64>,
}

/// Zero-cost probe: constant loss, fixed payload, no training. Stamps
/// its first `client_plans` call and its last `evaluate`.
struct Probe {
    payload: WirePayload,
    first_plans: Cell<Option<Instant>>,
    last_evaluate: Option<Instant>,
}

impl Probe {
    fn new(payload: WirePayload) -> Self {
        Probe { payload, first_plans: Cell::new(None), last_evaluate: None }
    }
}

impl FedAlgorithm for Probe {
    fn name(&self) -> String {
        "probe".into()
    }
    fn client_plans(&self, _round: usize, sampled: &[usize]) -> Vec<ClientPlan> {
        if self.first_plans.get().is_none() {
            self.first_plans.set(Some(Instant::now()));
        }
        ClientPlan::uniform(sampled, ModelView::Full, self.payload)
    }
    fn train_cohort(
        &mut self,
        _wave: usize,
        sampled: &[usize],
        ctx: &FlContext,
        _scope: &mut RoundScope<'_>,
    ) -> Result<Vec<PreparedUpdate>, EngineError> {
        let free = |&k: &usize| PreparedUpdate::new(k, ctx, 0, 1.0, UpdatePayload::Empty);
        Ok(sampled.iter().map(free).collect())
    }
    fn fuse(
        &mut self,
        _round: usize,
        _updates: Vec<(PreparedUpdate, f32)>,
        _ctx: &FlContext,
        _scope: &mut RoundScope<'_>,
    ) -> Result<RoundOutcome, EngineError> {
        Ok(RoundOutcome { train_loss: 1.0 })
    }
    fn evaluate(&mut self, _ctx: &FlContext) -> f32 {
        self.last_evaluate = Some(Instant::now());
        0.5
    }
}

fn world(seed: u64, rounds: usize) -> FlContext {
    let task = SynthTask::new(SynthConfig::mnist_like(seed));
    let train = task.generate(120, 0);
    let test = task.generate(40, 1);
    let cfg = FlConfig {
        n_clients: 8,
        sample_ratio: 0.5,
        rounds,
        min_per_client: 2,
        seed,
        ..Default::default()
    };
    FlContext::new(cfg, &train, test)
}

fn faults() -> FaultConfig {
    FaultConfig {
        drop_before_download: 0.1,
        drop_after_download: 0.1,
        upload_failure_prob: 0.2,
        upload_retries: 2,
        ..Default::default()
    }
}

fn run_point(transport: &str, payload: WirePayload, rounds: usize, seed: u64) -> TransportRecord {
    let ctx = world(seed, rounds);
    let mut probe = Probe::new(payload);
    let opts = RunOptions::new().faults(faults());
    let opts = match transport {
        "inproc" => opts,
        "socket" => opts.socket_transport(SocketConfig::threads(2)),
        other => panic!("unknown transport {other}"),
    };
    let t0 = Instant::now();
    let report = Engine::run(&mut probe, &ctx, opts).expect("run failed");
    let first = probe.first_plans.get().expect("round 0 started");
    let last = probe.last_evaluate.expect("a round ended");
    let wall = last.duration_since(first).as_secs_f64();
    TransportRecord {
        transport: transport.into(),
        payload_down_bytes: payload.down_bytes,
        payload_up_bytes: payload.up_bytes,
        rounds,
        wall_rounds_per_sec: rounds as f64 / wall.max(1e-9),
        pool_start_s: first.duration_since(t0).as_secs_f64(),
        wire_payload_bytes: report.transport.as_ref().map(|s| s.payload_total()),
        wire_framing_bytes: report.transport.as_ref().map(|s| s.framing_overhead_bytes()),
    }
}

/// One wired point under faults finishes and reports its framing. That a
/// faults-off socket run is byte-identical to the in-process one is
/// `tests/transport.rs`'s to pin.
fn smoke() {
    let payload = WirePayload { down_bytes: 4096, up_bytes: 1024 };
    let rec = run_point("socket", payload, 3, 5);
    assert!(rec.wire_framing_bytes.unwrap() > 0, "framing overhead must be measured");
    println!(
        "smoke ok: wired point at {:.0} rounds/s after a {:.1} ms pool start, {} framing bytes",
        rec.wall_rounds_per_sec,
        rec.pool_start_s * 1e3,
        rec.wire_framing_bytes.unwrap()
    );
}

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let is_smoke = raw.iter().any(|a| a == "--smoke");
    raw.retain(|a| a != "--smoke");
    let args = Args::from_iter(raw);

    if is_smoke {
        smoke();
        return;
    }

    let rounds = args.get("rounds", 20usize);
    let seed = args.get("seed", 5u64);
    let payloads = [
        WirePayload { down_bytes: 1 << 10, up_bytes: 1 << 10 },
        WirePayload { down_bytes: 1 << 14, up_bytes: 1 << 14 },
        WirePayload { down_bytes: 1 << 18, up_bytes: 1 << 18 },
        WirePayload { down_bytes: 1 << 22, up_bytes: 1 << 20 },
    ];
    let mut records = Vec::new();
    for payload in payloads {
        for transport in ["inproc", "socket"] {
            let rec = run_point(transport, payload, rounds, seed);
            println!(
                "{:7} down {:>8} up {:>8}: {:>9.1} rounds/s, start {:>6.2} ms{}",
                rec.transport,
                rec.payload_down_bytes,
                rec.payload_up_bytes,
                rec.wall_rounds_per_sec,
                rec.pool_start_s * 1e3,
                match (rec.wire_payload_bytes, rec.wire_framing_bytes) {
                    (Some(p), Some(f)) =>
                        format!(", wire {p} payload + {f} framing"),
                    _ => String::new(),
                },
            );
            records.push(rec);
        }
    }
    write_json("BENCH_transport.json", &records);
}
