//! One pass: a complete engine run of a workload (fresh world, fresh
//! algorithm, warm-up + timed rounds) observed through [`Timed`], and the
//! end-to-end numbers derived from it.

use crate::stats::{median, peak_rss_mb, percentile, tail_percentile};
use crate::timed::{RoundLog, Timed};
use crate::workloads::Workload;
use kemf_fl::engine::{Engine, FedAlgorithm};
use kemf_fl::metrics::{History, RoundRecord};
use kemf_fl::trace::RunTrace;
use kemf_fl::transport::TransportStats;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Warm-up and timed round counts of a pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rounds {
    pub warmup: usize,
    pub timed: usize,
}

impl Rounds {
    pub fn total(self) -> usize {
        self.warmup + self.timed
    }
}

/// Everything one pass observed.
pub struct Pass {
    pub rounds: Rounds,
    /// Synth generation + partition + context + algorithm/model
    /// construction + the engine's validation and the algorithm's `init`
    /// (client store, spill dir), up to the return of `init`.
    pub setup_s: f64,
    /// Wall seconds of every round, warm-up included.
    pub round_s: Vec<f64>,
    pub log: RoundLog,
    /// History with the trace split off, so traced and untraced passes
    /// serialize alike.
    pub history: History,
    pub trace: Option<RunTrace>,
    pub transport: Option<TransportStats>,
    /// The algorithm in its end-of-run state.
    pub algo: Box<dyn FedAlgorithm>,
    /// Bytes left in the spill directory when the run ended.
    pub spill_bytes: u64,
    /// `VmHWM` right after the run.
    pub peak_rss_mb: f64,
}

/// Private scratch directory of one pass, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(base: &Path, tag: &str) -> std::io::Result<WorkDir> {
        let dir = base.join(format!("{}-{tag}", std::process::id()));
        // A stale directory would hand the spill store another run's files.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Run one pass. `traced` records the run through the engine's own
/// `TraceSink`; end-to-end numbers come only from untraced passes.
pub fn run_pass(
    w: &Workload,
    seed: u64,
    rounds: Rounds,
    traced: bool,
    work: &Path,
) -> Result<Pass, String> {
    let t0 = Instant::now();
    let world = w.world(seed, rounds.total());
    let mut algo = Timed::new(w.algorithm(&world, seed, work));
    let mut opts = w.run_options(work);
    if traced {
        opts = opts.record_trace();
    }
    let report = Engine::run(&mut algo, &world.ctx, opts).map_err(|e| e.to_string())?;
    let peak_rss_mb = peak_rss_mb();
    let (algo, log) = algo.into_parts();
    let init_end = log.init_end.ok_or("engine never initialised the algorithm")?;
    let mut history = report.history;
    let trace = history.trace.take();
    Ok(Pass {
        rounds,
        setup_s: init_end.duration_since(t0).as_secs_f64(),
        round_s: log.round_s(),
        log,
        history,
        trace,
        transport: report.transport,
        algo,
        spill_bytes: dir_bytes(&work.join("spill")),
        peak_rss_mb,
    })
}

/// Bytes the records put on the wire: down + up + wasted.
pub fn wire_bytes(records: &[RoundRecord]) -> u64 {
    records.iter().map(|r| r.down_bytes + r.up_bytes + r.wasted_up_bytes).sum()
}

/// End-to-end numbers of one untraced pass.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub rounds_per_s: f64,
    /// Round period with the host undisturbed: see `metrics::GATED`.
    pub round_s_p05: f64,
    pub round_s_p50: f64,
    pub round_s_p75: f64,
    /// `None` when the target was never reached (a failed operation).
    pub time_to_target_s: Option<f64>,
    /// Round (0-based, warm-up included) that crossed the target.
    pub target_round: Option<usize>,
    pub final_accuracy: f64,
    pub wire_bytes_per_round: f64,
}

/// Mean accuracy over the (up to) three rounds ending at `r`.
fn running_mean3(acc: &[f32], r: usize) -> f32 {
    let lo = r.saturating_sub(2);
    acc[lo..=r].iter().sum::<f32>() / (r + 1 - lo) as f32
}

/// First round whose 3-round running-mean accuracy reaches `target`.
pub fn target_round(acc: &[f32], target: f32) -> Option<usize> {
    (0..acc.len()).find(|&r| running_mean3(acc, r) >= target)
}

impl Pass {
    /// Seconds of the timed rounds only.
    pub fn timed_round_s(&self) -> &[f64] {
        &self.round_s[self.rounds.warmup.min(self.round_s.len())..]
    }

    pub fn end_to_end(&self, target_acc: f32) -> EndToEnd {
        let timed = self.timed_round_s();
        let acc = self.history.accuracies();
        let target_round = target_round(&acc, target_acc);
        let last5 = &acc[acc.len().saturating_sub(5)..];
        let records = &self.history.records[self.rounds.warmup.min(acc.len())..];
        EndToEnd {
            rounds_per_s: timed.len() as f64 / timed.iter().sum::<f64>(),
            round_s_p05: percentile(timed, 5.0),
            round_s_p50: median(timed),
            // Too few rounds for a tail (smoke runs): fall back to the max.
            round_s_p75: percentile(timed, tail_percentile(timed.len()).unwrap_or(100.0)),
            time_to_target_s: target_round.map(|r| self.round_s[..=r].iter().sum()),
            target_round,
            final_accuracy: last5.iter().map(|&a| a as f64).sum::<f64>() / last5.len() as f64,
            wire_bytes_per_round: wire_bytes(records) as f64 / records.len() as f64,
        }
    }

    /// Rounds that failed: a non-finite accuracy, or a non-finite loss on
    /// a round that met quorum (no workload injects quorum misses, so a
    /// miss counts too).
    pub fn failed_rounds(&self) -> usize {
        self.history
            .records
            .iter()
            .filter(|r| !r.test_acc.is_finite() || !r.train_loss.is_finite() || !r.quorum_met)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_crossing_uses_three_round_running_mean() {
        let acc = [0.1, 0.5, 0.1, 0.3, 0.4, 0.5];
        // A single spike does not cross: means are .1 .3 .233 .3 .267 .4
        assert_eq!(target_round(&acc, 0.35), Some(5));
        assert_eq!(target_round(&acc, 0.3), Some(1));
        assert_eq!(target_round(&acc, 0.9), None);
        assert_eq!(target_round(&[], 0.1), None);
    }

    #[test]
    fn work_dir_is_removed_on_drop() {
        let base = std::env::temp_dir().join("bench_e2e_workdir_test");
        let path = {
            let w = WorkDir::create(&base, "t").unwrap();
            std::fs::write(w.path().join("f"), b"abc").unwrap();
            assert_eq!(dir_bytes(w.path()), 3);
            w.path().to_path_buf()
        };
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&base);
    }
}
