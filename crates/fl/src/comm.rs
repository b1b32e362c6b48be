//! Communication-cost accounting.
//!
//! The paper reports `total cost = rounds × round-cost-per-client ×
//! sampled clients`, where round cost per client covers the downlink
//! (server → client) plus the uplink (client → server), and algorithms
//! that ship auxiliary state (FedNova's normalization info, SCAFFOLD's
//! control variates) pay a 2× multiplier. A live run's measured bytes
//! are recorded in its [`crate::metrics::History`] (the per-round byte
//! columns and their checked running sum, `cum_bytes`); [`CostModel`]
//! reproduces the paper's closed-form arithmetic for the tables.

use crate::lifecycle::RoundComm;
use serde::{Deserialize, Serialize};
use std::fmt;

/// `acc + down + up + wasted`, checked at every step.
pub(crate) fn checked_round_add(acc: u64, r: &RoundComm) -> Result<u64, CostError> {
    [r.down_bytes, r.up_bytes, r.wasted_up_bytes]
        .iter()
        .try_fold(acc, |a, &b| {
            a.checked_add(b).ok_or(CostError::ByteTotalOverflow { acc: a, add: b })
        })
}

/// Closed-form communication cost model for a federated algorithm.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CostModel {
    /// Bytes of the payload a client downloads each round.
    pub down_bytes_per_client: u64,
    /// Bytes of the payload a client uploads each round.
    pub up_bytes_per_client: u64,
    /// Auxiliary-state multiplier (1 for FedAvg/FedProx/FedKEMF, 2 for
    /// FedNova and SCAFFOLD which ship extra per-round state).
    pub aux_multiplier: u64,
}

impl CostModel {
    /// Symmetric model payload with a multiplier.
    pub fn symmetric(model_bytes: u64, aux_multiplier: u64) -> Self {
        CostModel {
            down_bytes_per_client: model_bytes,
            up_bytes_per_client: model_bytes,
            aux_multiplier,
        }
    }

    /// Round cost per client (the paper's "Round/Client" column).
    /// Checked: at million-client scale with auxiliary multipliers the
    /// old unchecked arithmetic silently wrapped `u64`.
    pub fn round_cost_per_client(&self) -> Result<u64, CostError> {
        self.down_bytes_per_client
            .checked_add(self.up_bytes_per_client)
            .and_then(|per_dir| per_dir.checked_mul(self.aux_multiplier))
            .ok_or(CostError::RoundCostOverflow {
                down: self.down_bytes_per_client,
                up: self.up_bytes_per_client,
                aux: self.aux_multiplier,
            })
    }

    /// Total cost for `rounds` rounds with `sampled` clients per round.
    /// Computed through `u128` and rejected with a typed error when the
    /// true value does not fit a byte count.
    pub fn total_cost(&self, rounds: usize, sampled: usize) -> Result<u64, CostError> {
        let round_cost = self.round_cost_per_client()?;
        let total = round_cost as u128 * rounds as u128 * sampled as u128;
        u64::try_from(total).map_err(|_| CostError::TotalCostOverflow {
            round_cost,
            rounds,
            sampled,
        })
    }
}

/// A closed-form cost that does not fit in a `u64` byte count. Silent
/// wrapping here produced plausible-looking but garbage table entries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CostError {
    /// `(down + up) × aux` overflowed.
    RoundCostOverflow {
        /// Downlink bytes per client.
        down: u64,
        /// Uplink bytes per client.
        up: u64,
        /// Auxiliary-state multiplier.
        aux: u64,
    },
    /// `round_cost × rounds × sampled` exceeds `u64::MAX` bytes.
    TotalCostOverflow {
        /// Per-client round cost.
        round_cost: u64,
        /// Round count requested.
        rounds: usize,
        /// Sampled clients per round.
        sampled: usize,
    },
    /// A running byte total overflowed while folding measured rounds
    /// (cumulative traffic of a live run, not the closed-form model).
    ByteTotalOverflow {
        /// Accumulated bytes before the failing addition.
        acc: u64,
        /// The addend that pushed the total past `u64::MAX`.
        add: u64,
    },
    /// `count × per_client_bytes` overflowed while billing a buffered
    /// cycle's uplink (fused or evicted updates).
    UplinkOverflow {
        /// Updates billed.
        count: u64,
        /// Per-client uplink payload in bytes.
        bytes: u64,
    },
    /// A buffered cycle's per-event uplink sum (accumulated exactly in
    /// u128) does not fit a u64 byte count.
    BufferedUplinkOverflow {
        /// The true uplink total in bytes.
        total: u128,
    },
}

impl fmt::Display for CostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostError::RoundCostOverflow { down, up, aux } => write!(
                f,
                "per-client round cost ({down} + {up}) x {aux} overflows u64 bytes"
            ),
            CostError::TotalCostOverflow { round_cost, rounds, sampled } => write!(
                f,
                "total cost {round_cost} x {rounds} rounds x {sampled} clients overflows u64 bytes"
            ),
            CostError::ByteTotalOverflow { acc, add } => write!(
                f,
                "cumulative byte total {acc} + {add} overflows u64"
            ),
            CostError::UplinkOverflow { count, bytes } => write!(
                f,
                "buffered uplink {count} update(s) x {bytes} bytes overflows u64"
            ),
            CostError::BufferedUplinkOverflow { total } => write!(
                f,
                "buffered uplink total {total} bytes overflows u64"
            ),
        }
    }
}

impl std::error::Error for CostError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_add_counts_wasted_uplink_and_refuses_overflow() {
        let round = RoundComm { down_bytes: 100, up_bytes: 60, wasted_up_bytes: 20, ..Default::default() };
        assert_eq!(checked_round_add(0, &round).unwrap(), 180, "wasted attempts are real traffic");
        // Exactly u64::MAX fits; one more byte is a typed error, not a wrap.
        let half = RoundComm { down_bytes: u64::MAX / 2, ..Default::default() };
        let acc = checked_round_add(u64::MAX / 2 + 1, &half).unwrap();
        assert_eq!(acc, u64::MAX);
        let one = RoundComm { up_bytes: 1, ..Default::default() };
        let err = checked_round_add(acc, &one).unwrap_err();
        assert_eq!(err, CostError::ByteTotalOverflow { acc: u64::MAX, add: 1 });
        assert!(err.to_string().contains("overflows u64"), "bad message: {err}");
    }

    #[test]
    fn cost_model_matches_paper_arithmetic() {
        // ResNet-20 ≈ 0.27 M params ≈ 1.05 MB; up+down ≈ 2.1 MB/round/client.
        let model_bytes = 272_474u64 * 4;
        let m = CostModel::symmetric(model_bytes, 1);
        let per_round_mb = m.round_cost_per_client().unwrap() as f64 / (1024.0 * 1024.0);
        assert!((per_round_mb - 2.08).abs() < 0.1, "{per_round_mb}");
        // FedAvg, 30 clients ratio 0.4 → 12 sampled, 163 rounds ≈ 4 GB.
        let total_gb = m.total_cost(163, 12).unwrap() as f64 / (1024.0f64.powi(3));
        assert!((total_gb - 3.97).abs() < 0.2, "{total_gb}");
    }

    #[test]
    fn aux_multiplier_doubles_cost() {
        let a = CostModel::symmetric(1000, 1);
        let b = CostModel::symmetric(1000, 2);
        assert_eq!(b.total_cost(10, 5).unwrap(), 2 * a.total_cost(10, 5).unwrap());
    }

    #[test]
    fn cost_overflow_is_a_typed_error_at_the_exact_boundary() {
        // Round cost: (down + up) itself overflows…
        let m = CostModel { down_bytes_per_client: u64::MAX, up_bytes_per_client: 1, aux_multiplier: 1 };
        assert_eq!(
            m.round_cost_per_client().unwrap_err(),
            CostError::RoundCostOverflow { down: u64::MAX, up: 1, aux: 1 }
        );
        // …and the aux multiplier can push a fitting sum over the edge.
        let m = CostModel::symmetric(u64::MAX / 2, 3);
        assert!(matches!(m.round_cost_per_client(), Err(CostError::RoundCostOverflow { .. })));

        // Total cost, straddling the boundary: round_cost × rounds ×
        // sampled at exactly u64::MAX fits; one more client overflows.
        let m = CostModel { down_bytes_per_client: u64::MAX / 15, up_bytes_per_client: 0, aux_multiplier: 1 };
        assert_eq!(m.total_cost(3, 5).unwrap(), (u64::MAX / 15) * 15);
        let err = m.total_cost(3, 6).unwrap_err();
        assert_eq!(
            err,
            CostError::TotalCostOverflow { round_cost: u64::MAX / 15, rounds: 3, sampled: 6 }
        );
        // The message names every factor, so a log line alone explains it.
        let msg = err.to_string();
        assert!(msg.contains("3 rounds") && msg.contains("6 clients"), "bad message: {msg}");

        // The realistic trigger: a million-client federation shipping a
        // multi-GB foundation model with an aux multiplier for years of
        // rounds — exactly the regime the paper's premise targets.
        let m = CostModel::symmetric(8 * 1024 * 1024 * 1024, 2);
        assert!(m.round_cost_per_client().is_ok(), "per-round still fits");
        assert!(m.total_cost(100_000, 1_000_000).is_err(), "total honestly refuses");
    }
}
