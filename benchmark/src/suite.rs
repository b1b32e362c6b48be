//! The full suite behind `run.sh` without `--workload`: every workload,
//! untraced then traced, each run in its own child process (a clean
//! `VmHWM` per run), optional repeat-and-compare, optional result files.

use crate::metrics::{Metrics, GATED, RUN_LEVEL};
use crate::workloads::{Workload, WORKLOADS};
use crate::Args;
use std::process::Command;

/// A phase-share (or ratio) band a workload was sized to sit in on the
/// baseline. Bands say what each workload stresses; an optimisation is
/// allowed to move them, so they fail a run only under `--assert-bands`.
pub struct Band {
    pub metric: &'static str,
    pub lo: f64,
    pub hi: f64,
}

impl Band {
    pub fn report(&self, m: &Metrics) -> bool {
        let v = m.get(self.metric).unwrap_or(f64::NAN);
        let ok = v >= self.lo && v <= self.hi;
        println!(
            "band {} {v:.4} in [{}, {}] {}",
            self.metric,
            self.lo,
            self.hi,
            if ok { "ok" } else { "OUT" }
        );
        ok
    }
}

pub fn bands(w: &Workload) -> Vec<Band> {
    let band = |metric, lo, hi| Band { metric, lo, hi };
    let mut out = match w.name {
        "kemf_resnet20" => vec![
            band("fl.engine.fusion_share", 0.40, 0.60),
            band("fl.engine.local_update_share", 0.35, 0.55),
        ],
        "avg_vgg11" => vec![
            band("fl.engine.local_update_share", 0.85, 1.0),
            band("fl.engine.fusion_share", 0.0, 0.02),
        ],
        "kemf_hetero_async" => vec![
            band("fl.engine.fusion_share", 0.15, 0.45),
            band("fl.engine.local_update_share", 0.45, 0.80),
        ],
        "avg_mlp_socket" => vec![band("fl.engine.broadcast_share", 0.60, 1.0)],
        _ => Vec::new(),
    };
    out.push(band("fl.engine.eval_share", 0.0, 0.10));
    out
}

/// What one child run reported.
struct ChildRun {
    metrics: Metrics,
    correct: bool,
}

/// Run this binary again for one (workload, trace) cell and collect its
/// `metric` lines. The child's other output is passed through indented.
fn child(w: &Workload, seed: u64, trace: bool, pass_through: &[&str]) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            w.name,
            "--seed",
            &seed.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .args(pass_through)
        .output()
        .map_err(|e| format!("spawning the {} run: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut metrics = Metrics::default();
    for line in stdout.lines() {
        let mut it = line.split_whitespace();
        match (it.next(), it.next(), it.next().and_then(|v| v.parse::<f64>().ok())) {
            (Some("metric"), Some(name), Some(value)) => metrics.set(name, value),
            (Some("check" | "band" | "answer"), ..) => println!("  {}: {line}", w.name),
            _ => {}
        }
    }
    if !out.status.success() {
        return Err(format!(
            "{} run failed: {}",
            w.name,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let correct = stdout.lines().last().is_some_and(|l| l.starts_with("{\"correct\": true"));
    Ok(ChildRun { metrics, correct })
}

/// One set: every workload in `order`, untraced then traced.
fn run_set(
    order: &[&Workload],
    seed: u64,
    pass_through: &[&str],
) -> Result<(Vec<(String, Metrics)>, bool), String> {
    let mut all = Vec::new();
    let mut correct = true;
    for w in order {
        let mut merged = Metrics::default();
        for trace in [false, true] {
            let run = child(w, seed, trace, pass_through)?;
            correct &= run.correct;
            for (name, value) in run.metrics.iter() {
                // The traced run repeats the run-level numbers under a
                // `run.` prefix; the untraced ones are the end-to-end truth.
                if !name.starts_with("run.") {
                    println!("{} {name} {value} {}", w.name, crate::metrics::unit_of(name));
                    merged.set(name, value);
                }
            }
        }
        all.push((w.name.to_string(), merged));
    }
    Ok((all, correct))
}

/// Largest relative gap two sets may show on an end-to-end metric before
/// the repeat fails; `None` for metrics that are only reported.
fn repeat_bound(name: &str) -> Option<f64> {
    match name {
        // A ≈ 7 ms median of seven samples taken in two bursts sits in
        // whichever state the host was in; one pair of runs showed it 27 %
        // apart. The driver bounds its median over ten runs instead.
        "setup_s" => None,
        // Identical code, identical seed: accuracy-level numbers repeat exactly.
        "target_round" | "final_accuracy" | "failed_share" => Some(0.0),
        _ => GATED.iter().find(|(d, _)| d.name == name).map(|(_, bound)| *bound),
    }
}

fn compare_sets(a: &[(String, Metrics)], b: &[(String, Metrics)]) -> bool {
    let mut ok = true;
    for (name, ma) in a {
        let Some((_, mb)) = b.iter().find(|(n, _)| n == name) else {
            continue;
        };
        let end_to_end = GATED.iter().map(|(d, _)| d).chain(RUN_LEVEL.iter());
        for metric in end_to_end.map(|d| d.name) {
            let (Some(va), Some(vb)) = (ma.get(metric), mb.get(metric)) else {
                continue;
            };
            let gap = if va == vb { 0.0 } else { (va - vb).abs() / va.abs().min(vb.abs()) };
            let verdict = match repeat_bound(metric) {
                Some(bound) if gap <= bound => format!("bound {:.0}% ok", 100.0 * bound),
                Some(bound) => {
                    ok = false;
                    format!("bound {:.0}% EXCEEDED", 100.0 * bound)
                }
                None => "reported only: rides on the host's state".into(),
            };
            println!("repeat {name} {metric} {va} vs {vb}: {:.1}% apart, {verdict}", 100.0 * gap);
        }
    }
    ok
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(|| "unknown".into(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// A result file: a header saying what was measured on what, then every
/// metric of every workload.
fn result_file(seed: u64, set: &[(String, Metrics)]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let features: Vec<String> =
        kemf_tensor::simd::cpu_features().iter().map(|f| format!("\"{f}\"")).collect();
    let sizes: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    \"{}\": {{\"algo\": \"{:?}\", \"mode\": \"{:?}\", \"clients\": {}, \"per_round\": {}, \
                 \"samples_per_client\": {}, \"local_epochs\": {}, \"lr\": {}, \"shards_per_client\": {}, \
                 \"target_acc\": {}}}",
                w.name,
                w.algo,
                w.mode,
                w.clients,
                w.per_round,
                w.samples_per_client,
                w.local_epochs,
                w.lr,
                w.shards_per_client,
                w.target_acc
            )
        })
        .collect();
    let workloads: Vec<String> = set
        .iter()
        .map(|(name, m)| {
            let rows: Vec<String> = m
                .iter()
                .map(|(metric, v)| {
                    format!(
                        "      \"{metric}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                        crate::metrics::unit_of(metric)
                    )
                })
                .collect();
            format!("    \"{name}\": {{\n{}\n    }}", rows.join(",\n"))
        })
        .collect();
    format!(
        "{{\n  \"benchmark\": \"bench_e2e\",\n  \"claim\": null,\n  \"seed\": {seed},\n  \"git_rev\": \"{}\",\n  \
         \"nproc\": {nproc},\n  \"threads\": {},\n  \"simd_tier\": \"{:?}\",\n  \"cpu_features\": [{}],\n  \
         \"rounds\": {{\"warmup\": {}, \"timed\": {}}},\n  \"sizes\": {{\n{}\n  }},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        git_rev(),
        kemf_fl::engine::init_thread_pool(),
        kemf_tensor::simd::isa(),
        features.join(", "),
        crate::workloads::WARMUP_ROUNDS,
        crate::workloads::TIMED_ROUNDS,
        sizes.join(",\n"),
        workloads.join(",\n")
    )
}

pub fn run(args: &Args) -> Result<(), String> {
    let seed: u64 = args.parsed("--seed", 1)?;
    let repeat: usize = args.parsed("--repeat", 1)?;
    let pass_through: Vec<&str> =
        ["--smoke", "--assert-bands"].into_iter().filter(|f| args.flag(f)).collect();
    let mut sets = Vec::new();
    let mut ok = true;
    for set in 0..repeat {
        // Alternate the order so a drift of the host does not always hit
        // the same workload.
        let mut order: Vec<&Workload> = WORKLOADS.iter().collect();
        if set % 2 == 1 {
            order.reverse();
        }
        println!("set {} of {repeat}, seed {seed}", set + 1);
        let (results, correct) = run_set(&order, seed, &pass_through)?;
        ok &= correct;
        sets.push(results);
    }
    if let [a, b] = &sets[..] {
        ok &= compare_sets(a, b);
    }
    if let (Some(prefix), false) = (args.value("--out-prefix"), args.flag("--smoke")) {
        for (set, tag) in sets.iter().zip('a'..) {
            let path = format!("{prefix}_{tag}.json");
            std::fs::write(&path, result_file(seed, set)).map_err(|e| format!("{path}: {e}"))?;
            println!("wrote {path}");
        }
    }
    if ok {
        Ok(())
    } else {
        Err("a run reported failures or two sets disagreed beyond their bounds".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(round_s_p05: f64, acc: f64) -> Vec<(String, Metrics)> {
        let mut m = Metrics::default();
        m.set("round_s_p05", round_s_p05);
        m.set("round_s_p50", 10.0 * round_s_p05 * round_s_p05);
        m.set("final_accuracy", acc);
        vec![("w".into(), m)]
    }

    #[test]
    fn sets_agree_within_bounds_and_accuracy_must_repeat_exactly() {
        assert!(compare_sets(&set(0.30, 0.5), &set(0.32, 0.5)), "7% apart; p50 is not compared");
        assert!(!compare_sets(&set(0.30, 0.5), &set(0.40, 0.5)), "33% apart exceeds the bound");
        assert!(!compare_sets(&set(0.30, 0.5), &set(0.30, 0.5078125)), "accuracy is exact");
        assert_eq!(repeat_bound("round_s_p50"), None, "host-state timings are reported only");
        assert_eq!(repeat_bound("round_s_p05"), Some(0.25));
        assert_eq!(repeat_bound("fl.engine.fusion_s"), None, "layer metrics are not compared");
    }

    #[test]
    fn result_file_lines_keep_their_quotes_balanced() {
        let text = result_file(1, &set(2.0, 0.5));
        for line in text.lines() {
            assert_eq!(line.matches('"').count() % 2, 0, "unbalanced quotes: {line}");
        }
        assert!(
            text.contains("\"claim\": null") && text.contains("\"kemf_hetero_async\": {\"algo\"")
        );
    }

    #[test]
    fn every_workload_has_bands_on_known_metrics() {
        for w in &WORKLOADS {
            let b = bands(w);
            assert!(b.len() >= 2, "{}", w.name);
            for band in b {
                assert!(crate::metrics::PER_LAYER.iter().any(|d| d.name == band.metric));
                assert!(band.lo < band.hi);
            }
        }
    }
}
