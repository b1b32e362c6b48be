//! `bench_e2e`: the repository's end-to-end + per-layer benchmark.
//!
//! ```text
//! bench_e2e --workload W --seed N --seconds S --trace 0|1 [--smoke]
//!     one contract run: prints `metric <name> <value> <unit>` lines and,
//!     last, one JSON result line (BENCHMARK.json's end_to_end metrics
//!     with --trace 0, its per_layer metrics with --trace 1)
//! bench_e2e [--seed N] [--repeat R] [--smoke] [--assert-bands] [--out-prefix P]
//!     every workload, untraced then traced, each in its own child
//!     process; prints `workload metric value unit`; exits non-zero on
//!     any failure
//! bench_e2e --print-benchmark-json
//! ```
//!
//! See README.md for what each metric means and how to state a claim.

mod metrics;
mod pass;
mod probes;
mod stats;
mod suite;
mod timed;
mod traced;
mod workloads;

use metrics::{Metrics, GATED, PER_LAYER, RUN_LEVEL, RUN_SECONDS};
use pass::{run_pass, Pass, Rounds, WorkDir};
use probes::{ProbeInput, Sampling};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Mode, Workload, SMOKE_ROUNDS, TIMED_ROUNDS, WARMUP_ROUNDS};

/// Set-ups behind the reported `setup_s` median: the full pass's own plus
/// one-round runs made only for their set-up.
const SETUP_SAMPLES: usize = 7;
/// Self-checks the probes make (GEMM table, worker pool, store and
/// checkpoint round trips).
const PROBE_CHECKS: u64 = 4;
/// Chance is 0.1; a run that ends below this learned nothing.
const MIN_FINAL_ACCURACY: f64 = 0.2;

/// `--key value` arguments plus bare `--flag`s.
pub struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == key)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for {key}: {v}")),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }
}

/// The benchmark's directory, relative to the checkout root `run.sh` runs
/// the binary from.
const BENCH_DIR: &str = "benchmark";

/// Pass/fail bookkeeping of one run: an operation is one round or one
/// correctness check.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("check FAILED: {what}");
        }
    }

    fn rounds(&mut self, pass: &Pass) {
        self.attempted += pass.rounds.total() as u64;
        self.failed += pass.failed_rounds() as u64;
    }
}

fn print_metrics(values: &Metrics) {
    for (name, value) in values.iter() {
        println!("metric {name} {value} {}", metrics::unit_of(name));
    }
}

/// The end-to-end metrics of a set of untraced passes (medians across
/// passes; every pass of one seed has the same history, so accuracy-level
/// numbers are taken from the first).
fn end_to_end_metrics(
    w: &Workload,
    passes: &[Pass],
    setups: &[f64],
    smoke: bool,
    tally: &mut Tally,
) -> Metrics {
    let e2e: Vec<_> = passes.iter().map(|p| p.end_to_end(w.target_acc)).collect();
    let med = |f: fn(&pass::EndToEnd) -> f64| stats::median(&e2e.iter().map(f).collect::<Vec<_>>());
    let mut m = Metrics::default();
    m.set("setup_s", stats::median(setups));
    m.set("round_s_p05", med(|e| e.round_s_p05));
    m.set("rounds_per_s", med(|e| e.rounds_per_s));
    m.set("round_s_p50", med(|e| e.round_s_p50));
    m.set("round_s_p75", med(|e| e.round_s_p75));
    m.set("wire_bytes_per_round", e2e[0].wire_bytes_per_round);
    // The first pass's peak: later passes and checks share the process.
    m.set("peak_rss_mb", passes[0].peak_rss_mb);
    let crossed: Vec<f64> = e2e.iter().filter_map(|e| e.time_to_target_s).collect();
    if !smoke {
        // Four smoke rounds cannot reach an accuracy level.
        tally.check("target accuracy reached", crossed.len() == e2e.len());
        tally.check("final accuracy above chance", e2e[0].final_accuracy >= MIN_FINAL_ACCURACY);
    }
    m.set("time_to_target_s", if crossed.is_empty() { 0.0 } else { stats::median(&crossed) });
    m.set("target_round", e2e[0].target_round.map_or(0.0, |r| r as f64));
    m.set("final_accuracy", e2e[0].final_accuracy);
    let curve: Vec<String> =
        passes[0].history.accuracies().iter().map(|a| format!("{:.0}", 100.0 * a)).collect();
    println!("info test accuracy per round (%): {}", curve.join(" "));
    let periods: Vec<String> =
        passes[0].round_s.iter().map(|r| format!("{:.0}", 1000.0 * r)).collect();
    println!("info round periods (ms): {}", periods.join(" "));
    let setup_ms: Vec<String> = setups.iter().map(|s| format!("{:.2}", 1000.0 * s)).collect();
    println!("info set-up samples (ms): {}", setup_ms.join(" "));
    println!(
        "info {} pass(es), {} timed rounds each, tail percentile p{:.0}, {} set-ups",
        passes.len(),
        passes[0].rounds.timed,
        stats::tail_percentile(passes[0].rounds.timed).unwrap_or(100.0),
        setups.len()
    );
    m
}

/// Socket-only checks: the wire counters equal the recorded bytes, and a
/// short in-process run of the same config produces the same records.
fn socket_checks(
    w: &Workload,
    seed: u64,
    socket: &Pass,
    work: &Path,
    tally: &mut Tally,
) -> Result<(), String> {
    let Some(stats) = &socket.transport else {
        return Ok(());
    };
    let recorded = pass::wire_bytes(&socket.history.records);
    tally.check("wire payload bytes equal the history's bytes", stats.payload_total() == recorded);
    let n = 5.min(socket.rounds.total());
    let inproc = Workload { mode: Mode::Sync, ..*w };
    let short = run_pass(&inproc, seed, Rounds { warmup: 0, timed: n }, false, work)?;
    let same = short.history.records[..] == socket.history.records[..n];
    tally.check("in-process run matches the socket history", same);
    Ok(())
}

/// What every step of one contract run needs.
struct Run<'a> {
    w: &'a Workload,
    seed: u64,
    rounds: Rounds,
    smoke: bool,
    work_base: PathBuf,
}

impl Run<'_> {
    fn work(&self, tag: &str) -> Result<WorkDir, String> {
        WorkDir::create(&self.work_base, tag).map_err(|e| format!("work dir: {e}"))
    }

    /// A one-round run made only for its set-up time.
    fn setup_only(&self) -> Result<f64, String> {
        let dir = self.work("setup")?;
        let one = Rounds { warmup: 0, timed: 1 };
        Ok(run_pass(self.w, self.seed, one, false, dir.path())?.setup_s)
    }

    /// The untraced passes — as many full runs as fit in `seconds`, at
    /// least one, exactly one when `single` — and the set-up samples: the
    /// passes' own plus `extra_setups` set-up-only runs, half before the
    /// passes and half after, so the median does not ride on one moment's
    /// state of the host.
    fn untraced(
        &self,
        seconds: f64,
        single: bool,
        extra_setups: usize,
        tally: &mut Tally,
    ) -> Result<(Vec<Pass>, Vec<f64>), String> {
        let t0 = Instant::now();
        let mut setups = Vec::new();
        for _ in 0..extra_setups / 2 {
            setups.push(self.setup_only()?);
        }
        let mut passes = Vec::new();
        loop {
            let dir = self.work(&format!("pass{}", passes.len()))?;
            let started = Instant::now();
            let pass = run_pass(self.w, self.seed, self.rounds, false, dir.path())?;
            let took = started.elapsed().as_secs_f64();
            tally.rounds(&pass);
            setups.push(pass.setup_s);
            passes.push(pass);
            if single || t0.elapsed().as_secs_f64() + took > seconds {
                break;
            }
        }
        for _ in extra_setups / 2..extra_setups {
            setups.push(self.setup_only()?);
        }
        if passes.len() > 1 {
            let first = passes[0].history.to_json();
            let same = passes.iter().all(|p| p.history.to_json() == first);
            tally.check("same seed, same history", same);
        }
        let dir = self.work("socket")?;
        socket_checks(self.w, self.seed, &passes[0], dir.path(), tally)?;
        Ok((passes, setups))
    }

    /// The traced pass and the layer probes: every per-layer metric. None
    /// of this feeds an end-to-end number.
    fn layers(
        &self,
        untraced: &Pass,
        assert_bands: bool,
        tally: &mut Tally,
    ) -> Result<Metrics, String> {
        let (w, seed, rounds) = (self.w, self.seed, self.rounds);
        let dir = self.work("traced")?;
        let traced = run_pass(w, seed, rounds, true, dir.path())?;
        tally.rounds(&traced);
        tally.check(
            "traced and untraced histories are byte-identical",
            traced.history.to_json() == untraced.history.to_json(),
        );
        let trace_log = traced.trace.as_ref().ok_or("traced run recorded no trace")?;
        let mut m = Metrics::default();
        traced::wrapper_metrics(untraced, &mut m);
        traced::span_metrics(trace_log, rounds.warmup, rounds.timed, &mut m);
        traced::traffic_metrics(&traced, &mut m);
        // Traced vs untraced on the undisturbed-host round period: the total
        // wall of two runs differs by more than any tracing cost (README.md).
        let p05 = |p: &Pass| stats::percentile(p.timed_round_s(), 5.0);
        m.set("fl.trace.overhead_pct", 100.0 * (p05(&traced) - p05(untraced)) / p05(untraced));

        let world = w.world(seed, rounds.total());
        let probe_dir = self.work("probes")?;
        let sampling = if self.smoke { Sampling::SMOKE } else { Sampling::FULL };
        let input = ProbeInput {
            workload: w,
            world: &world,
            seed,
            traced: &traced,
            work: probe_dir.path(),
            sampling,
        };
        let failures = probes::run_probes(&input, &mut m);
        println!(
            "info probes: p50 of up to {} calls after {} warm-up calls (at least {}, {} s budget each)",
            sampling.max_calls, sampling.warmup, sampling.min_calls, sampling.budget_s
        );
        tally.attempted += PROBE_CHECKS;
        for f in &failures {
            tally.failed += 1;
            println!("check FAILED: {f}");
        }
        for band in suite::bands(w) {
            let ok = band.report(&m);
            if assert_bands {
                tally.check(&format!("baseline band of {}", band.metric), ok);
            }
        }
        if !self.smoke {
            let name = format!("{}_seed{seed}.trace.jsonl", w.name);
            let path = Path::new(BENCH_DIR).join("results").join(name);
            std::fs::write(&path, trace_log.to_jsonl())
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        Ok(m)
    }
}

/// One contract run. Returns the JSON result line.
fn contract_run(w: &Workload, args: &Args) -> Result<String, String> {
    let seed: u64 = args.parsed("--seed", 1)?;
    let seconds: f64 = args.parsed("--seconds", RUN_SECONDS as f64)?;
    let trace = args.parsed("--trace", 0u8)? != 0;
    let smoke = args.flag("--smoke");
    let rounds = if smoke {
        Rounds { warmup: SMOKE_ROUNDS.0, timed: SMOKE_ROUNDS.1 }
    } else {
        Rounds { warmup: WARMUP_ROUNDS, timed: TIMED_ROUNDS }
    };
    let run = Run { w, seed, rounds, smoke, work_base: Path::new(BENCH_DIR).join("work") };
    let mut tally = Tally::default();

    let single = trace || smoke;
    let extra_setups = if single { 0 } else { SETUP_SAMPLES - 1 };
    let (passes, setups) = run.untraced(seconds, single, extra_setups, &mut tally)?;
    let mut m = end_to_end_metrics(w, &passes, &setups, smoke, &mut tally);
    if !trace {
        m.set("failed_share", tally.failed as f64 / tally.attempted as f64);
        print_metrics(&m);
        let gated = GATED.iter().map(|(d, _)| d);
        return Ok(metrics::result_json(gated, &m, tally.attempted, tally.failed));
    }

    let mut layers = run.layers(&passes[0], args.flag("--assert-bands"), &mut tally)?;
    m.set("failed_share", tally.failed as f64 / tally.attempted as f64);
    for d in &RUN_LEVEL {
        layers.set(&format!("run.{}", d.name), m.get(d.name).unwrap_or(0.0));
    }
    print_metrics(&layers);
    // The two questions ROADMAP item 1 asks first.
    if let Some(ratio) = layers.get("core.dml.overhead_ratio") {
        println!("answer core.dml.overhead_ratio = {ratio:.2}: one DML step costs that many times two plain training steps");
    }
    // Asked of the conv workloads; the conv probes report only there.
    if layers.get("tensor.conv.im2col_gbps").is_some() {
        println!(
            "answer nn.model.train_efficiency = {:.3}: a training step reaches that share of the 512^3 GEMM peak",
            layers.get("nn.model.train_efficiency").unwrap_or(0.0)
        );
    }
    Ok(metrics::result_json(PER_LAYER.iter(), &layers, tally.attempted, tally.failed))
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    if args.flag("--print-benchmark-json") {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    // One engine process, KEMF_THREADS unset: the library sizes its pool.
    kemf_fl::engine::init_thread_pool();
    let outcome = match args.value("--workload") {
        Some(name) => match workloads::find(name) {
            Some(w) => contract_run(w, &args).map(|line| println!("{line}")),
            None => Err(format!("unknown workload {name}")),
        },
        None => suite::run(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::FAILURE
        }
    }
}
