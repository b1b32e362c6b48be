//! Per-round training history and the derived quantities the paper
//! reports: rounds-to-target-accuracy (Fig. 6, Table 1), convergence
//! accuracy (Fig. 5, Table 2), and training stability (Fig. 7).

use crate::trace::RunTrace;
use serde::{Deserialize, Serialize, Value};

/// Fairness statistics over per-client accuracies (Michieli & Ozay 2021
/// ask whether all users are treated fairly; the multi-model experiment
/// reports these alongside the mean).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct FairnessSummary {
    /// Mean per-client accuracy.
    pub mean: f32,
    /// Standard deviation across clients (lower = fairer).
    pub std: f32,
    /// Worst-off client.
    pub min: f32,
    /// Best-off client.
    pub max: f32,
}

/// Summarize per-client accuracies into a fairness triple. `None` when
/// no clients reported — the old version asserted, killing a server over
/// a fully-dropped round, and a 0/0 variant would have reported NaN/±∞
/// as if they were measurements.
pub fn fairness_summary(per_client: &[f32]) -> Option<FairnessSummary> {
    if per_client.is_empty() {
        return None;
    }
    let n = per_client.len() as f32;
    let mean = per_client.iter().sum::<f32>() / n;
    let var = per_client.iter().map(|a| (a - mean) * (a - mean)).sum::<f32>() / n;
    Some(FairnessSummary {
        mean,
        std: var.sqrt(),
        min: per_client.iter().copied().fold(f32::INFINITY, f32::min),
        max: per_client.iter().copied().fold(f32::NEG_INFINITY, f32::max),
    })
}

/// One communication round's observables, including the per-phase
/// communication split the fault-aware executor records: downlink over
/// the full broadcast set, uplink over accepted reports, and wasted
/// uplink from failed upload attempts.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct RoundRecord {
    /// Round index (0-based).
    pub round: usize,
    /// Global-model top-1 test accuracy after this round.
    pub test_acc: f32,
    /// Mean local training loss across reporting clients. NaN when the
    /// round aborted below quorum (nobody reported, so there is no
    /// loss). JSON has no NaN: it serializes as `null`, instead of — as
    /// the pre-fix engine did — masquerading as a perfect `0.0`.
    pub train_loss: f32,
    /// Cumulative communication bytes through this round.
    pub cum_bytes: u64,
    /// Downlink bytes this round (summed over each broadcast-reached
    /// client's own payload — uniform algorithms degenerate to payload ×
    /// broadcast set).
    pub down_bytes: u64,
    /// Accepted uplink bytes this round (summed over each completed
    /// upload's own payload).
    pub up_bytes: u64,
    /// Uplink bytes of failed upload attempts this round.
    pub wasted_up_bytes: u64,
    /// Clients that received the broadcast.
    pub down_clients: usize,
    /// Clients whose upload the server accepted.
    pub up_clients: usize,
    /// False when the round aborted below the reporting quorum (the
    /// global state rolled forward unchanged).
    pub quorum_met: bool,
}

impl Default for RoundRecord {
    fn default() -> Self {
        RoundRecord {
            round: 0,
            test_acc: 0.0,
            train_loss: 0.0,
            cum_bytes: 0,
            down_bytes: 0,
            up_bytes: 0,
            wasted_up_bytes: 0,
            down_clients: 0,
            up_clients: 0,
            quorum_met: true,
        }
    }
}

/// Full history of one federated run.
#[derive(Clone, Debug)]
pub struct History {
    /// Algorithm label.
    pub algorithm: String,
    /// Per-round records.
    pub records: Vec<RoundRecord>,
    /// Round-lifecycle trace, when the run was recorded through a
    /// [`crate::trace::TraceSink`]. Absent — and absent from the JSON —
    /// for untraced runs, so observability never perturbs existing
    /// serialized histories.
    pub trace: Option<RunTrace>,
    /// What the byte columns actually price on the wire: `"weights"`
    /// (full model state), `"window"` (a rolling sub-model), `"logits"`
    /// (knowledge-only exchange), or `"mixed"` when clients of one round
    /// received different view kinds. Empty — and omitted from both the
    /// JSON and the CSV — when the run predates per-client plans, so
    /// legacy histories re-serialize byte-identically.
    pub payload_kind: String,
}

// Hand-written (rather than derived) so an absent trace is *omitted*
// from the JSON instead of rendered as `"trace": null`: untraced
// histories stay bit-identical to the pre-observability format.
impl Serialize for History {
    fn to_value(&self) -> Value {
        let mut entries = vec![
            ("algorithm".to_string(), self.algorithm.to_value()),
            ("records".to_string(), self.records.to_value()),
        ];
        if let Some(trace) = &self.trace {
            entries.push(("trace".to_string(), trace.to_value()));
        }
        if !self.payload_kind.is_empty() {
            entries.push(("payload_kind".to_string(), self.payload_kind.to_value()));
        }
        Value::Map(entries)
    }
}

impl History {
    /// Empty history for an algorithm.
    pub fn new(algorithm: impl Into<String>) -> Self {
        History {
            algorithm: algorithm.into(),
            records: Vec::new(),
            trace: None,
            payload_kind: String::new(),
        }
    }

    /// Append a round.
    pub fn push(&mut self, rec: RoundRecord) {
        self.records.push(rec);
    }

    /// Number of recorded rounds.
    pub fn rounds(&self) -> usize {
        self.records.len()
    }

    /// Accuracy series.
    pub fn accuracies(&self) -> Vec<f32> {
        self.records.iter().map(|r| r.test_acc).collect()
    }

    /// First round (1-based, matching the paper's tables) whose accuracy
    /// reaches `target`, or `None` if never reached.
    pub fn rounds_to_target(&self, target: f32) -> Option<usize> {
        self.records.iter().position(|r| r.test_acc >= target).map(|i| i + 1)
    }

    /// Cumulative bytes at the round `target` accuracy was reached.
    pub fn bytes_to_target(&self, target: f32) -> Option<u64> {
        self.records.iter().find(|r| r.test_acc >= target).map(|r| r.cum_bytes)
    }

    /// Convergence accuracy: mean test accuracy over the last `window`
    /// rounds (the paper's "converge acc."). Uses all rounds if fewer.
    /// NaN for an empty history — a mean over zero rounds is not `0.0`,
    /// and downstream `{:.4}` formatting renders NaN honestly.
    pub fn converged_accuracy(&self, window: usize) -> f32 {
        if self.records.is_empty() {
            return f32::NAN;
        }
        let w = window.clamp(1, self.records.len());
        let tail = &self.records[self.records.len() - w..];
        tail.iter().map(|r| r.test_acc).sum::<f32>() / w as f32
    }

    /// Round at which training plateaued: the first round after which the
    /// best accuracy improves by less than `tol` (the paper's "converge
    /// rounds"). Returns the last round if no plateau is detected.
    pub fn converge_round(&self, tol: f32) -> usize {
        let accs = self.accuracies();
        if accs.is_empty() {
            return 0;
        }
        let mut best = f32::NEG_INFINITY;
        let mut best_round = 0;
        for (i, &a) in accs.iter().enumerate() {
            if a > best + tol {
                best = a;
                best_round = i;
            }
        }
        best_round + 1
    }

    /// Peak test accuracy.
    pub fn best_accuracy(&self) -> f32 {
        self.records.iter().map(|r| r.test_acc).fold(0.0, f32::max)
    }

    /// Final-round accuracy.
    pub fn final_accuracy(&self) -> f32 {
        self.records.last().map_or(0.0, |r| r.test_acc)
    }

    /// Total communication bytes.
    pub fn total_bytes(&self) -> u64 {
        self.records.last().map_or(0, |r| r.cum_bytes)
    }

    /// Stability: standard deviation of the accuracy over the last
    /// `window` rounds (Fig. 7 reports FedKEMF's low variance).
    pub fn tail_std(&self, window: usize) -> f32 {
        if self.records.len() < 2 {
            return 0.0;
        }
        let w = window.clamp(2, self.records.len());
        let tail: Vec<f32> =
            self.records[self.records.len() - w..].iter().map(|r| r.test_acc).collect();
        let mean = tail.iter().sum::<f32>() / tail.len() as f32;
        (tail.iter().map(|a| (a - mean) * (a - mean)).sum::<f32>() / tail.len() as f32).sqrt()
    }

    /// Serialize to pretty JSON (plotting pipelines, checkpointing).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("history serializes")
    }

    /// CSV rows for downstream plotting. Carries the full lifecycle
    /// story of fault-aware runs: per-phase client counts and the
    /// quorum outcome ride along with the byte split (they used to be
    /// silently dropped). A quorum-aborted round's missing loss renders
    /// as `NaN`, which every plotting stack treats as a gap — never as
    /// a perfect zero. When the run recorded a [`History::payload_kind`],
    /// a trailing `payload` column says what the byte columns actually
    /// price (`weights` / `window` / `logits` / `mixed`) instead of
    /// letting every consumer assume full model weights; legacy
    /// histories keep the exact old schema.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "round,test_acc,train_loss,down_bytes,up_bytes,wasted_up_bytes,cum_bytes,down_clients,up_clients,quorum_met",
        );
        if !self.payload_kind.is_empty() {
            out.push_str(",payload");
        }
        out.push('\n');
        for r in &self.records {
            out.push_str(&format!(
                "{},{:.4},{:.4},{},{},{},{},{},{},{}",
                r.round + 1,
                r.test_acc,
                r.train_loss,
                r.down_bytes,
                r.up_bytes,
                r.wasted_up_bytes,
                r.cum_bytes,
                r.down_clients,
                r.up_clients,
                r.quorum_met
            ));
            if !self.payload_kind.is_empty() {
                out.push(',');
                out.push_str(&self.payload_kind);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(accs: &[f32]) -> History {
        let mut h = History::new("test");
        for (i, &a) in accs.iter().enumerate() {
            h.push(RoundRecord {
                round: i,
                test_acc: a,
                train_loss: 1.0 - a,
                cum_bytes: (i as u64 + 1) * 100,
                down_bytes: 60,
                up_bytes: 40,
                down_clients: 2,
                up_clients: 2,
                ..Default::default()
            });
        }
        h
    }

    #[test]
    fn rounds_to_target() {
        let h = hist(&[0.1, 0.3, 0.5, 0.4, 0.7]);
        assert_eq!(h.rounds_to_target(0.5), Some(3));
        assert_eq!(h.rounds_to_target(0.65), Some(5));
        assert_eq!(h.rounds_to_target(0.9), None);
        assert_eq!(h.bytes_to_target(0.5), Some(300));
    }

    #[test]
    fn converged_accuracy_averages_tail() {
        let h = hist(&[0.1, 0.2, 0.6, 0.6, 0.6]);
        assert!((h.converged_accuracy(3) - 0.6).abs() < 1e-6);
        assert!((h.converged_accuracy(100) - 0.42).abs() < 1e-6);
    }

    #[test]
    fn converge_round_detects_plateau() {
        let h = hist(&[0.1, 0.4, 0.55, 0.56, 0.56, 0.561]);
        assert_eq!(h.converge_round(0.02), 3);
        // With a tight tolerance the tiny late gains count.
        assert_eq!(h.converge_round(0.0005), 6);
    }

    #[test]
    fn stability_metric_orders_noisy_vs_smooth() {
        let smooth = hist(&[0.5, 0.51, 0.52, 0.52, 0.53]);
        let noisy = hist(&[0.5, 0.2, 0.6, 0.1, 0.55]);
        assert!(noisy.tail_std(5) > smooth.tail_std(5) * 3.0);
    }

    #[test]
    fn empty_history_is_safe() {
        let h = History::new("x");
        assert_eq!(h.rounds_to_target(0.1), None);
        assert!(h.converged_accuracy(5).is_nan(), "no rounds → no mean, not a fake 0.0");
        assert_eq!(h.tail_std(5), 0.0);
        assert_eq!(h.best_accuracy(), 0.0);
        assert_eq!(h.total_bytes(), 0);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let h = hist(&[0.5]);
        let csv = h.to_csv();
        assert_eq!(
            csv.lines().next().unwrap(),
            "round,test_acc,train_loss,down_bytes,up_bytes,wasted_up_bytes,cum_bytes,\
             down_clients,up_clients,quorum_met"
        );
        assert_eq!(csv.lines().count(), 2);
        assert!(
            csv.lines().nth(1).unwrap().ends_with(",2,2,true"),
            "lifecycle columns present: {csv}"
        );
    }

    #[test]
    fn payload_kind_rides_the_csv_and_json_only_when_known() {
        // Legacy histories (no payload kind) keep the exact old schema.
        let legacy = hist(&[0.5]);
        assert!(!legacy.to_csv().contains("payload"), "{}", legacy.to_csv());
        assert!(!legacy.to_json().contains("payload_kind"), "{}", legacy.to_json());
        // A run that recorded what crossed the wire labels its bytes.
        let mut h = hist(&[0.5, 0.6]);
        h.payload_kind = "window".to_string();
        let csv = h.to_csv();
        assert!(csv.lines().next().unwrap().ends_with(",quorum_met,payload"), "{csv}");
        assert!(csv.lines().nth(1).unwrap().ends_with(",true,window"), "{csv}");
        assert!(h.to_json().contains("\"payload_kind\": \"window\""), "{}", h.to_json());
    }

    #[test]
    fn quorum_aborted_loss_renders_honestly() {
        let mut h = History::new("x");
        h.push(RoundRecord {
            round: 0,
            test_acc: 0.4,
            train_loss: f32::NAN,
            quorum_met: false,
            ..Default::default()
        });
        // CSV: NaN, which plotting stacks read as a gap, not a 0.0.
        let row = h.to_csv().lines().nth(1).unwrap().to_string();
        assert!(row.contains(",NaN,"), "{row}");
        assert!(row.ends_with(",false"), "{row}");
        // JSON: null, never a number.
        let json = h.to_json();
        assert!(json.contains("\"train_loss\": null"), "{json}");
        assert!(json.contains("\"quorum_met\": false"), "{json}");
    }

    #[test]
    fn fairness_summary_statistics() {
        let f = fairness_summary(&[0.5, 0.7, 0.9]).unwrap();
        assert!((f.mean - 0.7).abs() < 1e-6);
        assert!((f.min - 0.5).abs() < 1e-6);
        assert!((f.max - 0.9).abs() < 1e-6);
        assert!(f.std > 0.1 && f.std < 0.2);
        let uniform = fairness_summary(&[0.6; 4]).unwrap();
        assert!(uniform.std < 1e-6, "identical clients are perfectly fair");
        // Zero reporting clients is an absence of data, not a NaN/±∞
        // summary and not a process-killing assert.
        assert!(fairness_summary(&[]).is_none());
    }
}
