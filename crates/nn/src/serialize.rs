//! Weight (de)serialization and payload-size accounting.
//!
//! Federated algorithms move model weights as a single flat `Vec<f32>` in
//! the deterministic parameter visit order. [`Weights`] is that flat view
//! plus enough metadata to sanity-check a restore; byte accounting assumes
//! 4-byte floats, matching the paper's communication-cost arithmetic.

use crate::layer::Layer;
use serde::{Deserialize, Serialize};

/// Flat snapshot of a network's trainable parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Weights {
    /// Concatenated parameter values in visit order.
    pub values: Vec<f32>,
    /// Per-parameter element counts, for shape checking on restore.
    pub lens: Vec<usize>,
}

impl Weights {
    /// Extract a snapshot from a network.
    pub fn from_layer(net: &dyn Layer) -> Self {
        let mut values = Vec::new();
        let mut lens = Vec::new();
        net.visit_params(&mut |p| {
            values.extend_from_slice(p.value.data());
            lens.push(p.numel());
        });
        Weights { values, lens }
    }

    /// Extract a snapshot of the *gradients* (used by SCAFFOLD-style
    /// control-variate algorithms).
    pub fn grads_from_layer(net: &dyn Layer) -> Self {
        let mut values = Vec::new();
        let mut lens = Vec::new();
        net.visit_params(&mut |p| {
            values.extend_from_slice(p.grad.data());
            lens.push(p.numel());
        });
        Weights { values, lens }
    }

    /// Write this snapshot into a network with the same parameter layout.
    pub fn apply_to(&self, net: &mut dyn Layer) {
        let mut offset = 0usize;
        let mut idx = 0usize;
        net.visit_params_mut(&mut |p| {
            assert!(idx < self.lens.len(), "weights have fewer parameters than network");
            let n = p.numel();
            assert_eq!(self.lens[idx], n, "parameter {idx} size mismatch");
            p.value.data_mut().copy_from_slice(&self.values[offset..offset + n]);
            offset += n;
            idx += 1;
        });
        assert_eq!(idx, self.lens.len(), "network has fewer parameters than weights");
    }

    /// Total scalar count.
    pub fn numel(&self) -> usize {
        self.values.len()
    }

    /// Serialized size in bytes (fp32).
    pub fn bytes(&self) -> usize {
        self.values.len() * 4
    }

    /// `self = self * a + other * b`, element-wise.
    pub fn scale_add(&mut self, a: f32, other: &Weights, b: f32) {
        assert_eq!(self.values.len(), other.values.len(), "weights length mismatch");
        for (x, &y) in self.values.iter_mut().zip(other.values.iter()) {
            *x = *x * a + y * b;
        }
    }

    /// Element-wise difference `self − other`.
    pub fn delta(&self, other: &Weights) -> Weights {
        assert_eq!(self.values.len(), other.values.len(), "weights length mismatch");
        Weights {
            values: self
                .values
                .iter()
                .zip(other.values.iter())
                .map(|(&a, &b)| a - b)
                .collect(),
            lens: self.lens.clone(),
        }
    }

    /// All-zero snapshot with the same layout.
    pub fn zeros_like(&self) -> Weights {
        Weights { values: vec![0.0; self.values.len()], lens: self.lens.clone() }
    }

    /// L2 norm of the flat vector.
    pub fn norm(&self) -> f32 {
        self.values.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>().sqrt() as f32
    }

    /// Weighted average of several snapshots (FedAvg's core). Weights are
    /// normalized internally; panics on empty input or mismatched layouts.
    pub fn weighted_average(snapshots: &[Weights], coeffs: &[f32]) -> Weights {
        assert!(!snapshots.is_empty(), "average of zero snapshots");
        assert_eq!(snapshots.len(), coeffs.len(), "snapshot/coefficient count mismatch");
        let mut avg = WeightsAverage::new(&snapshots[0], coeffs.iter().sum());
        for (snap, &c) in snapshots.iter().zip(coeffs.iter()) {
            avg.add(snap, c);
        }
        avg.finish()
    }
}

/// Streaming weighted average over [`Weights`] snapshots — the one
/// averaging loop every fusion path folds through (the batch
/// [`Weights::weighted_average`] / [`ModelState::weighted_average`] and
/// the federated `fuse` bodies alike). Each [`add`](Self::add) performs
/// `acc += (coeff / total) * value`, so the result depends only on the
/// feeding order and the coefficient total, not on how the snapshots
/// were batched.
pub struct WeightsAverage {
    total: f32,
    acc: Weights,
}

impl WeightsAverage {
    /// Start an average with the layout of `layout` and a precomputed
    /// coefficient total (must be positive; callers compute it over the
    /// full cohort before streaming).
    pub fn new(layout: &Weights, total: f32) -> Self {
        assert!(total > 0.0, "coefficients must sum to a positive value");
        WeightsAverage { total, acc: layout.zeros_like() }
    }

    /// Fold one snapshot in with coefficient `coeff`.
    pub fn add(&mut self, snap: &Weights, coeff: f32) {
        assert_eq!(snap.values.len(), self.acc.values.len(), "layout mismatch");
        let w = coeff / self.total;
        for (o, &v) in self.acc.values.iter_mut().zip(snap.values.iter()) {
            *o += w * v;
        }
    }

    /// The accumulated average.
    pub fn finish(self) -> Weights {
        self.acc
    }
}

impl Weights {
    /// Snapshot the non-trainable buffers (batch-norm running statistics)
    /// of a network, in buffer visit order.
    pub fn buffers_from_layer(net: &dyn Layer) -> Weights {
        let mut values = Vec::new();
        let mut lens = Vec::new();
        net.visit_buffers(&mut |t| {
            values.extend_from_slice(t.data());
            lens.push(t.numel());
        });
        Weights { values, lens }
    }

    /// Restore buffers captured by [`Weights::buffers_from_layer`].
    pub fn apply_buffers_to(&self, net: &mut dyn Layer) {
        let mut offset = 0usize;
        let mut idx = 0usize;
        net.visit_buffers_mut(&mut |t| {
            assert!(idx < self.lens.len(), "buffer snapshot has fewer entries than network");
            let n = t.numel();
            assert_eq!(self.lens[idx], n, "buffer {idx} size mismatch");
            t.data_mut().copy_from_slice(&self.values[offset..offset + n]);
            offset += n;
            idx += 1;
        });
        assert_eq!(idx, self.lens.len(), "network has fewer buffers than snapshot");
    }
}

/// A dimension-tagged flat f32 array (control variates, consensus
/// logits, ...): the non-model payload of checkpoints and client state.
#[derive(Clone, Debug, PartialEq)]
pub struct TensorBlob {
    /// Logical dimensions; `values.len()` equals their product.
    pub dims: Vec<usize>,
    /// Row-major values.
    pub values: Vec<f32>,
}

/// Everything a federated algorithm transmits for one model: trainable
/// parameters plus the batch-norm running statistics that must accompany
/// them for the receiver to run inference.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModelState {
    /// Trainable parameters.
    pub params: Weights,
    /// Non-trainable buffers (running statistics).
    pub buffers: Weights,
}

/// A [`ModelState`] that does not have the layout of the network it was
/// meant for: what [`ModelState::apply_to`] would panic on, as a value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayoutError {
    /// Which half of the state disagrees: `"param"` or `"buffer"`.
    pub section: &'static str,
    /// Per-tensor element counts the state declares.
    pub found: Vec<usize>,
    /// Per-tensor element counts of the network.
    pub expected: Vec<usize>,
    /// Values the state actually carries for that half.
    pub values: usize,
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let LayoutError { section, found, expected, values } = self;
        if found != expected {
            write!(f, "{section} layout {found:?} != live {expected:?}")
        } else {
            write!(f, "{section} layout {found:?} declared over {values} values")
        }
    }
}

impl std::error::Error for LayoutError {}

impl ModelState {
    /// Whether this state can be applied to `net`: the same element count
    /// tensor by tensor, parameters and buffers, and as many values as
    /// those counts add up to. Reads the layout only — no copy of either
    /// side's values is made.
    pub fn check_layout(&self, net: &dyn Layer) -> Result<(), LayoutError> {
        let mut params = Vec::new();
        net.visit_params(&mut |p| params.push(p.numel()));
        let mut buffers = Vec::new();
        net.visit_buffers(&mut |t| buffers.push(t.numel()));
        for (section, have, expected) in
            [("param", &self.params, params), ("buffer", &self.buffers, buffers)]
        {
            if have.lens != expected || have.values.len() != expected.iter().sum::<usize>() {
                return Err(LayoutError {
                    section,
                    found: have.lens.clone(),
                    expected,
                    values: have.values.len(),
                });
            }
        }
        Ok(())
    }

    /// Capture from a network.
    pub fn from_layer(net: &dyn Layer) -> Self {
        ModelState {
            params: Weights::from_layer(net),
            buffers: Weights::buffers_from_layer(net),
        }
    }

    /// Restore into a network with the same layout.
    pub fn apply_to(&self, net: &mut dyn Layer) {
        self.params.apply_to(net);
        self.buffers.apply_buffers_to(net);
    }

    /// Transmitted size in bytes (fp32).
    pub fn bytes(&self) -> usize {
        self.params.bytes() + self.buffers.bytes()
    }

    /// Weighted average of parameter *and* buffer snapshots.
    pub fn weighted_average(states: &[ModelState], coeffs: &[f32]) -> ModelState {
        assert!(!states.is_empty(), "average of zero states");
        assert_eq!(states.len(), coeffs.len(), "state/coefficient count mismatch");
        let mut avg = StateAverage::new(&states[0], coeffs.iter().sum());
        for (state, &c) in states.iter().zip(coeffs.iter()) {
            avg.add(state, c);
        }
        avg.finish()
    }
}

/// Streaming weighted average over full [`ModelState`]s: one
/// [`WeightsAverage`] each for parameters and buffers.
pub struct StateAverage {
    params: WeightsAverage,
    buffers: WeightsAverage,
}

impl StateAverage {
    /// Start an average with the layout of `layout` and a precomputed
    /// positive coefficient total.
    pub fn new(layout: &ModelState, total: f32) -> Self {
        StateAverage {
            params: WeightsAverage::new(&layout.params, total),
            buffers: WeightsAverage::new(&layout.buffers, total),
        }
    }

    /// Fold one client state in with coefficient `coeff`.
    pub fn add(&mut self, state: &ModelState, coeff: f32) {
        self.params.add(&state.params, coeff);
        self.buffers.add(&state.buffers, coeff);
    }

    /// The accumulated average.
    pub fn finish(self) -> ModelState {
        ModelState { params: self.params.finish(), buffers: self.buffers.finish() }
    }
}

/// Human-readable byte count (MB with two decimals, GB above 1 GiB),
/// matching the units in the paper's tables.
pub fn format_bytes(bytes: f64) -> String {
    const MB: f64 = 1024.0 * 1024.0;
    const GB: f64 = MB * 1024.0;
    if bytes >= GB {
        format!("{:.2}GB", bytes / GB)
    } else {
        format!("{:.1}MB", bytes / MB)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::Linear;
    use crate::models::{Arch, ModelSpec};

    #[test]
    fn roundtrip_restores_weights() {
        let spec = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 9);
        let a = spec.build();
        let snap = Weights::from_layer(&a);
        let mut b = ModelSpec { seed: 99, ..spec }.build();
        assert_ne!(Weights::from_layer(&b).values, snap.values);
        snap.apply_to(&mut b);
        assert_eq!(Weights::from_layer(&b).values, snap.values);
    }

    #[test]
    #[should_panic]
    fn apply_rejects_layout_mismatch() {
        let a = Linear::new(3, 3, 0);
        let snap = Weights::from_layer(&a);
        let mut b = Linear::new(4, 4, 0);
        snap.apply_to(&mut b);
    }

    #[test]
    fn average_of_identical_is_identity() {
        let net = Linear::new(5, 3, 1);
        let w = Weights::from_layer(&net);
        let avg = Weights::weighted_average(&[w.clone(), w.clone()], &[1.0, 3.0]);
        kemf_tensor::assert_close(&avg.values, &w.values, 1e-6);
    }

    #[test]
    fn average_respects_coefficients() {
        let mut a = Weights { values: vec![0.0, 0.0], lens: vec![2] };
        let b = Weights { values: vec![4.0, 8.0], lens: vec![2] };
        let avg = Weights::weighted_average(&[a.clone(), b.clone()], &[3.0, 1.0]);
        assert_eq!(avg.values, vec![1.0, 2.0]);
        a.scale_add(1.0, &b, 0.5);
        assert_eq!(a.values, vec![2.0, 4.0]);
    }

    #[test]
    fn delta_and_norm() {
        let a = Weights { values: vec![3.0, 4.0], lens: vec![2] };
        let b = Weights { values: vec![0.0, 0.0], lens: vec![2] };
        assert_eq!(a.delta(&b).values, vec![3.0, 4.0]);
        assert!((a.norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn byte_accounting() {
        assert_eq!(format_bytes(2.1 * 1024.0 * 1024.0), "2.1MB");
        assert_eq!(format_bytes(4.01 * 1024.0 * 1024.0 * 1024.0), "4.01GB");
    }
}
