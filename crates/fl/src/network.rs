//! Simulated network model: turn communication bytes into wall-clock
//! time so experiments can report *time-to-accuracy*, the quantity edge
//! deployments actually optimize. The paper argues in bytes; a byte
//! budget maps to seconds through exactly this kind of link model.
//!
//! Time is computed from each round's recorded lifecycle: the download
//! phase (broadcast, clients in parallel) completes before local
//! training, and the upload phase follows it, so a round's communication
//! time is the *sum* of the two phase times — each gated by a single
//! per-client payload since clients within a phase transfer in parallel.
//! One [`NetworkModel`] serves the whole fleet, here and in the
//! asynchronous scheduler's arrival times.

use crate::config::ConfigError;
use crate::lifecycle::{ClientOutcome, RoundPlan, WirePayload};
use crate::metrics::{History, RoundRecord};
use serde::{Deserialize, Serialize};

/// A symmetric client↔server link.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetworkModel {
    /// Sustained throughput in bytes per second.
    pub bandwidth_bps: f64,
    /// Per-round fixed latency in seconds (connection setup, signaling).
    pub latency_s: f64,
}

impl NetworkModel {
    /// A 4G-class uplink: ~5 MB/s sustained, 80 ms round latency.
    pub fn cellular_4g() -> Self {
        NetworkModel { bandwidth_bps: 5.0 * 1024.0 * 1024.0, latency_s: 0.08 }
    }

    /// Reject a link the time model cannot price: non-positive or
    /// non-finite bandwidth, negative or non-finite latency. The error
    /// names the field as `AsyncConfig::validate` reports it.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.bandwidth_bps.is_finite() && self.bandwidth_bps > 0.0) {
            return Err(ConfigError::OutOfRange {
                field: "async.network.bandwidth_bps",
                value: self.bandwidth_bps,
                bounds: "(0, inf)",
            });
        }
        if !(self.latency_s.is_finite() && self.latency_s >= 0.0) {
            return Err(ConfigError::OutOfRange {
                field: "async.network.latency_s",
                value: self.latency_s,
                bounds: "[0, inf)",
            });
        }
        Ok(())
    }

    /// Transfer time for one payload (seconds). Clients within a phase
    /// transfer in parallel; the phase is gated by the *largest single
    /// client payload*, so the caller passes per-client bytes.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.transfer_time_f(bytes as f64)
    }

    /// [`NetworkModel::transfer_time`] over fractional bytes — per-client
    /// shares of a round total must not be truncated to whole bytes
    /// (integer division silently dropped up to `clients − 1` bytes per
    /// round and underestimated slow links).
    pub fn transfer_time_f(&self, bytes: f64) -> f64 {
        assert!(self.bandwidth_bps > 0.0, "bandwidth must be positive");
        assert!(bytes >= 0.0, "bytes must be non-negative");
        self.latency_s + bytes / self.bandwidth_bps
    }

    /// Communication time of one recorded round: the download phase over
    /// the broadcast set, then the upload phase over the clients that
    /// actually reported — divided by each phase's *actual* participant
    /// count, not the configured sample size (under faults the two
    /// differ, and dividing by the configured count underestimated the
    /// per-client share). A phase with no participants costs nothing.
    pub fn round_comm_time(&self, rec: &RoundRecord) -> f64 {
        let mut t = 0.0;
        if rec.down_clients > 0 {
            t += self.transfer_time_f(rec.down_bytes as f64 / rec.down_clients as f64);
        }
        if rec.up_clients > 0 {
            // Wasted retry attempts rode the same uplink phase.
            let up = (rec.up_bytes + rec.wasted_up_bytes) as f64 / rec.up_clients as f64;
            t += self.transfer_time_f(up);
        }
        t
    }

    /// Simulated communication time of a full training history, from the
    /// per-round lifecycle records.
    pub fn history_comm_time(&self, history: &History) -> f64 {
        history.records.iter().map(|r| self.round_comm_time(r)).sum()
    }

    /// Wall-clock of one round under its drawn lifecycle: every client
    /// runs download → (injected straggler delay) → upload attempts
    /// sequentially, clients run in parallel, and the server waits for
    /// the slowest client it still cares about. A straggler cut at the
    /// deadline holds the round open for exactly the deadline, no longer
    /// — the deadline is what bounds a round against unbounded
    /// stragglers. Training compute is not modeled (the engine measures
    /// real compute; this prices the network).
    pub fn lifecycle_round_time(
        &self,
        plan: &RoundPlan,
        payload: WirePayload,
        deadline_s: Option<f64>,
    ) -> f64 {
        let t_down = self.transfer_time(payload.down_bytes);
        let t_up = self.transfer_time(payload.up_bytes);
        let mut round = 0.0f64;
        for c in &plan.clients {
            round = round.max(client_finish_time(0.0, c.outcome, t_down, t_up, deadline_s));
        }
        round
    }
}

/// Finish time of one client that starts at `start` seconds, under its
/// drawn outcome and that client's per-direction transfer times: download
/// → (injected straggler delay) → upload attempts, summed left to right
/// from `start`. The one rule behind both round pricing (`start = 0.0`,
/// where `0.0 + t_down` is exactly `t_down`) and the async scheduler's
/// arrival times (`start` = the virtual clock).
///
/// A cut straggler holds the round open to the deadline. A plan can only
/// contain that outcome if a deadline was configured when it was drawn;
/// if the caller passes `None` anyway, fall back to the drawn delay
/// (≥ the deadline by construction) instead of panicking.
pub(crate) fn client_finish_time(
    start: f64,
    outcome: ClientOutcome,
    t_down: f64,
    t_up: f64,
    deadline_s: Option<f64>,
) -> f64 {
    let (attempts, delay_s) = match outcome {
        ClientOutcome::DroppedBeforeDownload => return start,
        ClientOutcome::DroppedAfterDownload => return start + t_down,
        ClientOutcome::StragglerTimedOut { delay_s } => {
            return start + deadline_s.unwrap_or(delay_s)
        }
        ClientOutcome::UploadFailed { attempts } => (attempts, 0.0),
        ClientOutcome::Completed { attempts, delay_s } => (attempts, delay_s),
    };
    start + t_down + delay_s + attempts as f64 * t_up
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::{ClientRound, FaultConfig};
    use crate::metrics::RoundRecord;

    fn hist(accs: &[f32], bytes_per_round: u64) -> History {
        let mut h = History::new("t");
        // Checked running total — `bytes_per_round * (i + 1)` silently
        // wrapped u64 at large round counts × payloads.
        let mut cum = 0u64;
        for (i, &a) in accs.iter().enumerate() {
            cum = cum
                .checked_add(bytes_per_round)
                .unwrap_or_else(|| panic!("cumulative bytes overflow u64 at round {i}"));
            h.push(RoundRecord {
                round: i,
                test_acc: a,
                train_loss: 0.0,
                cum_bytes: cum,
                down_bytes: bytes_per_round / 2,
                up_bytes: bytes_per_round / 2,
                down_clients: 4,
                up_clients: 4,
                ..Default::default()
            });
        }
        h
    }

    #[test]
    fn transfer_time_includes_latency() {
        let net = NetworkModel { bandwidth_bps: 1000.0, latency_s: 0.5 };
        assert!((net.transfer_time(2000) - 2.5).abs() < 1e-9);
        assert!((net.transfer_time(0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn fractional_shares_are_not_truncated() {
        // 7 bytes over 4 clients on a 1 B/s link: integer division would
        // bill 1 s per direction; the true per-client share is 1.75 s.
        let net = NetworkModel { bandwidth_bps: 1.0, latency_s: 0.0 };
        let rec = RoundRecord {
            down_bytes: 7,
            up_bytes: 0,
            down_clients: 4,
            ..Default::default()
        };
        assert!((net.round_comm_time(&rec) - 1.75).abs() < 1e-9);
    }

    #[test]
    fn divisor_is_actual_survivors_not_configured_sample() {
        // Same round bytes; under dropout only 2 of 4 clients uploaded,
        // so each survivor's uplink share doubles.
        let net = NetworkModel { bandwidth_bps: 100.0, latency_s: 0.0 };
        let full = RoundRecord {
            up_bytes: 400,
            up_clients: 4,
            ..Default::default()
        };
        let thinned = RoundRecord {
            up_bytes: 400,
            up_clients: 2,
            ..Default::default()
        };
        assert!((net.round_comm_time(&full) - 1.0).abs() < 1e-9);
        assert!((net.round_comm_time(&thinned) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn phases_are_sequential() {
        let net = NetworkModel { bandwidth_bps: 10.0, latency_s: 1.0 };
        let rec = RoundRecord {
            down_bytes: 100,
            up_bytes: 50,
            down_clients: 1,
            up_clients: 1,
            ..Default::default()
        };
        // Download 1 + 10 s, then upload 1 + 5 s.
        assert!((net.round_comm_time(&rec) - 17.0).abs() < 1e-9);
        // An aborted broadcast-only round costs only the download phase.
        let aborted = RoundRecord { down_bytes: 100, down_clients: 1, ..Default::default() };
        assert!((net.round_comm_time(&aborted) - 11.0).abs() < 1e-9);
    }

    #[test]
    fn comm_time_scales_with_payload() {
        let net = NetworkModel::cellular_4g();
        let small = hist(&[0.1, 0.2, 0.3], 1024);
        let large = hist(&[0.1, 0.2, 0.3], 100 * 1024 * 1024);
        let ts = net.history_comm_time(&small);
        let tl = net.history_comm_time(&large);
        assert!(tl > 10.0 * ts, "{ts} vs {tl}");
    }

    #[test]
    fn slower_links_take_longer() {
        let h = hist(&[0.5], 10 * 1024 * 1024);
        let iot = NetworkModel { bandwidth_bps: 128.0 * 1024.0, latency_s: 0.2 };
        let broadband = NetworkModel { bandwidth_bps: 25.0 * 1024.0 * 1024.0, latency_s: 0.02 };
        let t_iot = iot.history_comm_time(&h);
        let t_4g = NetworkModel::cellular_4g().history_comm_time(&h);
        let t_bb = broadband.history_comm_time(&h);
        assert!(t_iot > t_4g && t_4g > t_bb);
    }

    #[test]
    fn lifecycle_round_time_gates_on_slowest_and_deadline() {
        let net = NetworkModel { bandwidth_bps: 100.0, latency_s: 0.0 };
        let payload = WirePayload::symmetric(100); // 1 s each way
        let plan = RoundPlan {
            clients: vec![
                ClientRound { client: 0, outcome: ClientOutcome::Completed { attempts: 1, delay_s: 0.0 } },
                ClientRound { client: 1, outcome: ClientOutcome::DroppedBeforeDownload },
                ClientRound { client: 2, outcome: ClientOutcome::Completed { attempts: 2, delay_s: 4.0 } },
            ],
            min_quorum: 1,
        };
        // Client 2: 1 s down + 4 s delay + 2 × 1 s upload attempts = 7 s.
        let t = net.lifecycle_round_time(&plan, payload, None);
        assert!((t - 7.0).abs() < 1e-9, "got {t}");
        // A cut straggler holds the round open exactly to the deadline.
        let cut = RoundPlan {
            clients: vec![
                ClientRound { client: 0, outcome: ClientOutcome::Completed { attempts: 1, delay_s: 0.0 } },
                ClientRound { client: 1, outcome: ClientOutcome::StragglerTimedOut { delay_s: 99.0 } },
            ],
            min_quorum: 1,
        };
        let t = net.lifecycle_round_time(&cut, payload, Some(10.0));
        assert!((t - 10.0).abs() < 1e-9, "deadline bounds the round, got {t}");
        let _ = FaultConfig::default(); // keep the import honest
    }

    #[test]
    fn validation_rejects_broken_links() {
        let bad_bw = NetworkModel { bandwidth_bps: 0.0, latency_s: 0.1 };
        assert!(matches!(
            bad_bw.validate(),
            Err(ConfigError::OutOfRange { field: "async.network.bandwidth_bps", .. })
        ));
        let bad_lat = NetworkModel { bandwidth_bps: 1e6, latency_s: f64::NAN };
        assert!(matches!(
            bad_lat.validate(),
            Err(ConfigError::OutOfRange { field: "async.network.latency_s", .. })
        ));
        assert!(NetworkModel::cellular_4g().validate().is_ok());
    }
}
