//! Per-layer numbers read off the two observed runs: the `Timed` call log
//! of the untraced pass and the engine's own `Phase` spans of the traced
//! pass. No span is added to the library.

use crate::metrics::Metrics;
use crate::pass::Pass;
use crate::stats::median;
use kemf_fl::trace::{Phase, RunTrace, Span};

/// Median of a call list after the warm-up rounds' calls; 0 when the
/// workload never makes the call.
fn call_p50(calls: &[f64], warmup: usize) -> f64 {
    match calls.get(warmup..) {
        Some(timed) if !timed.is_empty() => median(timed),
        _ => 0.0,
    }
}

/// `fl.algo.*` and `fl.engine.self_s` from an untraced pass.
pub fn wrapper_metrics(pass: &Pass, out: &mut Metrics) {
    let w = pass.rounds.warmup;
    let calls = &pass.log.calls;
    out.set("fl.algo.round_call_s", call_p50(&calls.round, w));
    out.set("fl.algo.train_cohort_call_s", call_p50(&calls.train_cohort, w));
    out.set("fl.algo.fuse_call_s", call_p50(&calls.fuse, w));
    out.set("fl.algo.evaluate_call_s", call_p50(&calls.evaluate, w));
    out.set("fl.algo.client_plans_call_s", call_p50(&calls.client_plans, w));
    let self_s: Vec<f64> =
        pass.round_s.iter().zip(&pass.log.algo_s).skip(w).map(|(r, a)| r - a).collect();
    out.set("fl.engine.self_s", if self_s.is_empty() { 0.0 } else { median(&self_s) });
}

const CHILD_PHASES: [Phase; 7] = [
    Phase::Sample,
    Phase::Broadcast,
    Phase::LocalUpdate,
    Phase::Fusion,
    Phase::Upload,
    Phase::Eval,
    Phase::Buffer,
];

fn spans_of(trace: &RunTrace, phase: Phase, from_round: usize) -> impl Iterator<Item = &Span> {
    trace.spans.iter().filter(move |s| s.phase == phase && s.round >= from_round)
}

/// Sum of the wall seconds of `phase` spans in the timed rounds.
pub fn phase_wall(trace: &RunTrace, phase: Phase, from_round: usize) -> f64 {
    spans_of(trace, phase, from_round).map(|s| s.wall_s).sum()
}

/// `fl.engine.*`, `fl.scheduler.*` from the traced pass's spans. Shares
/// are ratios of sums over the timed rounds; `_s` values are medians of
/// the per-round spans (0 for a phase the workload never enters).
pub fn span_metrics(trace: &RunTrace, warmup: usize, timed_rounds: usize, out: &mut Metrics) {
    let round_total = phase_wall(trace, Phase::Round, warmup);
    for phase in CHILD_PHASES {
        let walls: Vec<f64> = spans_of(trace, phase, warmup).map(|s| s.wall_s).collect();
        let name = phase.name();
        out.set(
            &format!("fl.engine.{name}_s"),
            if walls.is_empty() { 0.0 } else { median(&walls) },
        );
        // An empty f64 sum is -0.0; report a phase never entered as plain 0.
        let share = if walls.is_empty() { 0.0 } else { walls.iter().sum::<f64>() / round_total };
        out.set(&format!("fl.engine.{name}_share"), share);
    }
    for phase in [Phase::LocalUpdate, Phase::Fusion, Phase::Eval] {
        let flops: u64 = spans_of(trace, phase, warmup).map(|s| s.counters.flops).sum();
        let wall = phase_wall(trace, phase, warmup);
        let name = phase.name();
        out.set(
            &format!("fl.engine.{name}_gflops"),
            if wall > 0.0 { flops as f64 / wall / 1e9 } else { 0.0 },
        );
        out.set(&format!("fl.engine.{name}_flops"), flops as f64 / timed_rounds as f64);
    }
    // Self time of the round span: what no child phase covers (plan
    // validation, history push, the spans' own bookkeeping).
    let self_s: Vec<f64> = spans_of(trace, Phase::Round, warmup)
        .map(|round| {
            let children: f64 = trace
                .spans
                .iter()
                .filter(|s| s.round == round.round && s.phase != Phase::Round)
                .map(|s| s.wall_s)
                .sum();
            round.wall_s - children
        })
        .collect();
    out.set("fl.engine.span_self_s", if self_s.is_empty() { 0.0 } else { median(&self_s) });

    // Scheduler: useful ÷ attempted over the whole run (every dispatched
    // update either folds, is evicted, or is still in flight at the end).
    let buffers: Vec<&Span> = spans_of(trace, Phase::Buffer, 0).collect();
    let folded: usize = buffers.iter().map(|s| s.counters.clients).sum();
    let dispatched: usize =
        spans_of(trace, Phase::LocalUpdate, 0).map(|s| s.counters.clients).sum();
    out.set(
        "fl.scheduler.stale_updates",
        buffers.iter().map(|s| s.counters.stale_updates).sum::<u64>() as f64,
    );
    out.set(
        "fl.scheduler.evicted_updates",
        buffers.iter().map(|s| s.counters.evicted_updates).sum::<u64>() as f64,
    );
    out.set(
        "fl.scheduler.folded_share",
        if buffers.is_empty() || dispatched == 0 { 0.0 } else { folded as f64 / dispatched as f64 },
    );
}

/// `fl.comm.*` (exact, from the history), `fl.transport.*` (from the wire
/// counters and the traced broadcast spans) and the spill volume.
pub fn traffic_metrics(traced: &Pass, out: &mut Metrics) {
    let records = &traced.history.records[traced.rounds.warmup.min(traced.history.records.len())..];
    let n = records.len().max(1) as f64;
    out.set(
        "fl.comm.down_bytes_per_round",
        records.iter().map(|r| r.down_bytes).sum::<u64>() as f64 / n,
    );
    out.set(
        "fl.comm.up_bytes_per_round",
        records.iter().map(|r| r.up_bytes).sum::<u64>() as f64 / n,
    );
    out.set(
        "fl.comm.wasted_up_bytes_per_round",
        records.iter().map(|r| r.wasted_up_bytes).sum::<u64>() as f64 / n,
    );
    let all_rounds = traced.rounds.total() as f64;
    out.set("fl.client_store.spill_bytes_per_round", traced.spill_bytes as f64 / all_rounds);
    if let (Some(stats), Some(trace)) = (&traced.transport, &traced.trace) {
        // The wire counters cover every round, so the seconds must too.
        let broadcast_s = phase_wall(trace, Phase::Broadcast, 0);
        out.set("fl.transport.payload_mbps", stats.payload_total() as f64 / broadcast_s / 1e6);
        out.set(
            "fl.transport.framing_overhead_pct",
            100.0 * stats.framing_overhead_bytes() as f64 / stats.payload_total() as f64,
        );
        out.set(
            "fl.transport.frames_per_round",
            (stats.frames_sent + stats.frames_received) as f64 / stats.rounds.max(1) as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kemf_fl::trace::Counters;

    fn span(round: usize, phase: Phase, wall_s: f64, flops: u64, clients: usize) -> Span {
        Span { round, phase, wall_s, counters: Counters { flops, clients, ..Default::default() } }
    }

    #[test]
    fn shares_skip_warmup_and_self_time_is_round_minus_children() {
        let trace = RunTrace {
            spans: vec![
                // Warm-up round: ignored by shares.
                span(0, Phase::LocalUpdate, 9.0, 0, 2),
                span(0, Phase::Round, 9.0, 0, 2),
                span(1, Phase::LocalUpdate, 0.6, 3_000_000_000, 2),
                span(1, Phase::Fusion, 0.3, 0, 2),
                span(1, Phase::Round, 1.0, 0, 2),
                span(2, Phase::LocalUpdate, 0.2, 1_000_000_000, 2),
                span(2, Phase::Fusion, 0.7, 0, 2),
                span(2, Phase::Round, 1.0, 0, 2),
            ],
        };
        let mut m = Metrics::default();
        span_metrics(&trace, 1, 2, &mut m);
        assert!((m.get("fl.engine.local_update_share").unwrap() - 0.4).abs() < 1e-12);
        assert!((m.get("fl.engine.fusion_share").unwrap() - 0.5).abs() < 1e-12);
        assert!((m.get("fl.engine.local_update_s").unwrap() - 0.4).abs() < 1e-12);
        assert_eq!(m.get("fl.engine.buffer_s"), Some(0.0));
        assert!((m.get("fl.engine.local_update_gflops").unwrap() - 5.0).abs() < 1e-9);
        assert_eq!(m.get("fl.engine.local_update_flops"), Some(2e9));
        assert!((m.get("fl.engine.span_self_s").unwrap() - 0.1).abs() < 1e-12);
        assert_eq!(m.get("fl.scheduler.folded_share"), Some(0.0), "no buffer spans: sync run");
    }

    #[test]
    fn folded_share_is_folded_over_dispatched() {
        let trace = RunTrace {
            spans: vec![
                span(0, Phase::LocalUpdate, 0.1, 0, 6),
                span(0, Phase::Buffer, 0.0, 0, 3),
                span(0, Phase::Round, 0.2, 0, 6),
                span(1, Phase::LocalUpdate, 0.1, 0, 6),
                span(1, Phase::Buffer, 0.0, 0, 3),
                span(1, Phase::Round, 0.2, 0, 6),
            ],
        };
        let mut m = Metrics::default();
        span_metrics(&trace, 0, 2, &mut m);
        assert_eq!(m.get("fl.scheduler.folded_share"), Some(0.5));
    }
}
