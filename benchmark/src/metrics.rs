//! The metric registry — names, units, directions and regression bounds —
//! and the collector runs fill. `BENCHMARK.json` is generated from this
//! file (`bench_e2e --print-benchmark-json`); a unit test keeps them equal.

use crate::workloads::WORKLOADS;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit, better: Better::Higher }
}

/// Seconds one contract run measures (`run_seconds` of BENCHMARK.json).
pub const RUN_SECONDS: u64 = 20;

/// End-to-end metrics the driver gates on, with the share of the parent's
/// median each may worsen by. Only metrics that are steady from run to run
/// on the sandbox host can sit under a bound.
///
/// `round_s_p05` is the gated timing. The host alternates every few
/// seconds between an undisturbed state and one ≈ 1.3× slower (README.md,
/// "Measuring on this host"), so the share of slow rounds in a run — and
/// with it the mean, the median and the tail — is a property of the
/// host's minute, not of the code: across ten runs they spread 3–25 %.
/// Nearly every run sees the undisturbed state for a few rounds, and all
/// rounds of a workload do the same work, so the 5th percentile (the third
/// fastest of 40 rounds) is the round period of the undisturbed host and
/// spreads 3–11 %. On a quiet machine it equals the median.
pub const GATED: [(Def, f64); 4] = [
    (lower("setup_s", "s"), 0.25),
    (lower("round_s_p05", "s"), 0.25),
    (lower("wire_bytes_per_round", "bytes"), 0.10),
    (lower("peak_rss_mb", "MB"), 0.10),
];

/// End-to-end metrics that cannot sit under a driver bound: the timings
/// that ride on the host's state (see [`GATED`]), the ones that follow the
/// seed (where the accuracy curve crosses the target), and one that is
/// legitimately zero. Printed by every untraced run, compared by
/// `run.sh --repeat 2` on a fixed seed, and reported to the driver among
/// the unbounded `--trace 1` metrics under a `run.` prefix.
pub const RUN_LEVEL: [Def; 7] = [
    higher("rounds_per_s", "1/s"),
    lower("round_s_p50", "s"),
    lower("round_s_p75", "s"),
    lower("time_to_target_s", "s"),
    lower("target_round", "count"),
    higher("final_accuracy", "ratio"),
    lower("failed_share", "ratio"),
];

/// Per-layer metrics, reported with `--trace 1`. Layer names are this
/// repository's modules. A workload that does not use a layer reports 0.
pub const PER_LAYER: [Def; 86] = [
    // Run-level numbers that cannot be gated (see RUN_LEVEL).
    higher("run.rounds_per_s", "1/s"),
    lower("run.round_s_p50", "s"),
    lower("run.round_s_p75", "s"),
    lower("run.time_to_target_s", "s"),
    lower("run.target_round", "count"),
    higher("run.final_accuracy", "ratio"),
    lower("run.failed_share", "ratio"),
    // kemf-fl, from the Timed wrapper on the untraced run.
    lower("fl.algo.round_call_s", "s"),
    lower("fl.algo.train_cohort_call_s", "s"),
    lower("fl.algo.fuse_call_s", "s"),
    lower("fl.algo.evaluate_call_s", "s"),
    lower("fl.algo.client_plans_call_s", "s"),
    lower("fl.engine.self_s", "s"),
    // kemf-fl engine phases, from the traced run's spans.
    lower("fl.engine.sample_s", "s"),
    lower("fl.engine.broadcast_s", "s"),
    lower("fl.engine.local_update_s", "s"),
    lower("fl.engine.fusion_s", "s"),
    lower("fl.engine.upload_s", "s"),
    lower("fl.engine.eval_s", "s"),
    lower("fl.engine.buffer_s", "s"),
    lower("fl.engine.sample_share", "ratio"),
    lower("fl.engine.broadcast_share", "ratio"),
    lower("fl.engine.local_update_share", "ratio"),
    lower("fl.engine.fusion_share", "ratio"),
    lower("fl.engine.upload_share", "ratio"),
    lower("fl.engine.eval_share", "ratio"),
    lower("fl.engine.buffer_share", "ratio"),
    higher("fl.engine.local_update_gflops", "GFLOP/s"),
    higher("fl.engine.fusion_gflops", "GFLOP/s"),
    higher("fl.engine.eval_gflops", "GFLOP/s"),
    lower("fl.engine.local_update_flops", "FLOP/round"),
    lower("fl.engine.fusion_flops", "FLOP/round"),
    lower("fl.engine.eval_flops", "FLOP/round"),
    lower("fl.engine.span_self_s", "s"),
    lower("fl.trace.overhead_pct", "%"),
    lower("fl.scheduler.stale_updates", "count"),
    lower("fl.scheduler.evicted_updates", "count"),
    higher("fl.scheduler.folded_share", "ratio"),
    // kemf-tensor probes.
    higher("tensor.gemm.peak_gflops", "GFLOP/s"),
    higher("tensor.gemm.dominant_gflops", "GFLOP/s"),
    higher("tensor.conv.im2col_gbps", "GB/s"),
    higher("tensor.conv.col2im_gbps", "GB/s"),
    higher("tensor.quant.gemm_i8_speedup", "ratio"),
    lower("tensor.workspace.fresh_allocs_steady", "count"),
    // kemf-nn probes.
    lower("nn.model.forward_s", "s"),
    lower("nn.model.backward_s", "s"),
    lower("nn.optim.step_s", "s"),
    lower("nn.loss.ce_s", "s"),
    lower("nn.loss.kl_s", "s"),
    lower("nn.model.predict_s", "s"),
    higher("nn.model.train_gflops", "GFLOP/s"),
    higher("nn.model.train_efficiency", "ratio"),
    lower("nn.serialize.state_roundtrip_s", "s"),
    lower("nn.serialize.weighted_average_s", "s"),
    // kemf-data probes.
    lower("data.synth.generate_s", "s"),
    lower("data.partition.shard_s", "s"),
    lower("data.dataset.batch_gather_s", "s"),
    // kemf-fl probes.
    lower("fl.local.train_s", "s"),
    higher("fl.local.samples_per_s", "1/s"),
    higher("fl.compress.quantize_mbps", "MB/s"),
    higher("fl.compress.dequantize_mbps", "MB/s"),
    higher("fl.compress.to_wire_mbps", "MB/s"),
    higher("fl.compress.from_wire_mbps", "MB/s"),
    higher("fl.transport.payload_mbps", "MB/s"),
    lower("fl.transport.framing_overhead_pct", "%"),
    lower("fl.transport.frames_per_round", "count"),
    lower("fl.transport.pool_start_s", "s"),
    lower("fl.client_store.fetch_s", "s"),
    lower("fl.client_store.commit_s", "s"),
    lower("fl.client_store.spill_bytes_per_round", "bytes"),
    lower("fl.checkpoint.save_s", "s"),
    lower("fl.checkpoint.load_s", "s"),
    lower("fl.comm.down_bytes_per_round", "bytes"),
    lower("fl.comm.up_bytes_per_round", "bytes"),
    lower("fl.comm.wasted_up_bytes_per_round", "bytes"),
    // kemf-core probes.
    lower("core.dml.step_s", "s"),
    lower("core.dml.overhead_ratio", "ratio"),
    lower("core.ensemble.forward_s", "s"),
    lower("core.ensemble.forward_i8_s", "s"),
    higher("core.ensemble.i8_speedup", "ratio"),
    lower("core.ensemble.logits_s", "s"),
    lower("core.distill.total_s", "s"),
    lower("core.distill.teacher_s", "s"),
    lower("core.distill.student_s", "s"),
    lower("core.distill.steps", "count"),
    higher("core.distill.gflops", "GFLOP/s"),
];

/// Named values collected during a run, in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0.iter().map(|(n, v)| (n.as_str(), *v))
    }
}

/// Unit of any metric the registry knows.
pub fn unit_of(name: &str) -> &'static str {
    GATED
        .iter()
        .map(|(d, _)| d)
        .chain(RUN_LEVEL.iter())
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
        .map_or("", |d| d.unit)
}

/// The result line of a contract run: exactly the keys `correct`,
/// `attempted`, `failed`, `metrics`, with one entry per `defs` metric
/// (0 for a layer the workload does not use). Non-finite values cannot be
/// written as JSON numbers; callers count them as failures beforehand.
pub fn result_json<'a>(
    defs: impl Iterator<Item = &'a Def>,
    values: &Metrics,
    attempted: u64,
    failed: u64,
) -> String {
    let body: Vec<String> = defs
        .map(|d| {
            let v = values.get(d.name).filter(|v| v.is_finite()).unwrap_or(0.0);
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", d.name, d.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let gated: Vec<String> = GATED
        .iter()
        .map(|(d, bound)| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
                d.name,
                d.unit,
                d.better.as_str()
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                d.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        gated.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars().all(ok)
    }

    #[test]
    fn registry_meets_the_contract_limits() {
        let mut names: Vec<&str> = GATED.iter().map(|(d, _)| d.name).collect();
        names.extend(PER_LAYER.iter().map(|d| d.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for n in &names {
            assert!(valid_name(n), "bad name {n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        for d in GATED.iter().map(|(d, _)| d).chain(PER_LAYER.iter()) {
            assert!(!d.unit.is_empty() && d.unit.len() <= 16, "unit of {}", d.name);
            assert!(d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(GATED.iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
        let setup = GATED.iter().find(|(d, _)| d.name == "setup_s").expect("setup_s is gated");
        assert_eq!((setup.0.unit, setup.0.better), ("s", Better::Lower));
        assert!(GATED.iter().all(|(_, b)| *b <= setup.1), "setup_s carries the largest bound");
        assert!(PER_LAYER.len() <= 128 && (1..=60).contains(&RUN_SECONDS));
        // 4 + 22 runs per workload, two builds: stay inside 3420 s even if
        // every run took twice its measuring time.
        assert!((4 + 22 * WORKLOADS.len() as u64) * 2 * RUN_SECONDS <= 3420 + 400);
    }

    #[test]
    fn run_level_metrics_reappear_under_the_run_prefix() {
        for d in &RUN_LEVEL {
            let name = format!("run.{}", d.name);
            assert!(PER_LAYER.iter().any(|p| p.name == name && p.unit == d.unit), "{name}");
        }
    }

    #[test]
    fn benchmark_json_on_disk_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, benchmark_json(), "regenerate with --print-benchmark-json");
        assert!(on_disk.len() <= 64 * 1024);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5);
        m.set("round_s_p05", f64::NAN);
        let line = result_json(GATED.iter().map(|(d, _)| d), &m, 7, 0);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(line.contains("\"round_s_p05\": {\"value\": 0, \"unit\": \"s\"}"));
        assert!(!line.contains('\n') && !line.contains("NaN"));
        assert!(result_json(std::iter::empty(), &m, 3, 1).contains("\"correct\": false"));
    }
}
