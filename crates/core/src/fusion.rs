//! Multi-model knowledge fusion modes.
//!
//! The paper offers two server-side fusion methods for the collected
//! knowledge networks: classic weight averaging (FedAvg-style, possible
//! because every knowledge network shares one architecture) and ensemble
//! distillation (the paper's focus). The ablation harness compares them.

use crate::distill::{distill_ensemble, DistillConfig, DistillOutcome};
use kemf_nn::model::Model;
use kemf_nn::models::ModelSpec;
use kemf_nn::serialize::ModelState;
use kemf_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Server fusion method for the uploaded knowledge networks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FusionMode {
    /// Ensemble the knowledge networks and distill into the global one
    /// (Algorithm 2 — the paper's main method).
    EnsembleDistill,
    /// Sample-count-weighted averaging of the knowledge-network weights
    /// (the paper's "traditional fusion" alternative).
    WeightAverage,
}

/// Weight-average fusion of knowledge-network states at coefficient
/// `weights[i] × sample_counts[i]`, where `weights` carries the
/// buffered-asynchronous staleness discount. A fresh update's multiplier
/// is exactly `1.0`, and `1.0 × n` is `n` in f32: the plain
/// sample-count-weighted average.
pub fn weight_average_fusion_weighted(
    states: &[ModelState],
    sample_counts: &[usize],
    weights: &[f32],
) -> ModelState {
    assert_eq!(states.len(), sample_counts.len(), "state/count length mismatch");
    assert_eq!(states.len(), weights.len(), "state/weight length mismatch");
    let coeffs: Vec<f32> = sample_counts
        .iter()
        .zip(weights.iter())
        .map(|(&n, &w)| w * n as f32)
        .collect();
    ModelState::weighted_average(states, &coeffs)
}

/// Ensemble-distillation fusion with FedDF's warm start (Lin et al.
/// 2020, the fusion the paper builds on): since every state shares one
/// architecture, initialize the student at their weighted average
/// ([`weight_average_fusion_weighted`]), then refine it by distilling the
/// ensemble on `pool`. Distillation alone transfers too little per round
/// to accumulate progress across rounds. Staleness discounting applies
/// to the warm-start average; the distillation pass itself treats every
/// teacher alike (MaxLogits has no weighted analogue — see DESIGN.md).
pub fn ensemble_distill_fusion(
    spec: ModelSpec,
    states: &[ModelState],
    sample_counts: &[usize],
    weights: &[f32],
    pool: &Tensor,
    cfg: &DistillConfig,
    seed: u64,
) -> (ModelState, DistillOutcome) {
    let at = |state: &ModelState| {
        Model::from_state(spec, state).expect("every fused state has the fusion spec's layout")
    };
    let mut student = at(&weight_average_fusion_weighted(states, sample_counts, weights));
    let mut teachers: Vec<Model> = states.iter().map(at).collect();
    let out = distill_ensemble(&mut student, &mut teachers, pool, cfg, seed);
    (student.state(), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kemf_nn::model::Model;
    use kemf_nn::models::{Arch, ModelSpec};

    #[test]
    fn average_of_identical_states_is_identity() {
        let m = Model::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 0));
        let s = m.state();
        let fused = weight_average_fusion_weighted(&[s.clone(), s.clone()], &[10, 30], &[1.0, 1.0]);
        kemf_tensor::assert_close(&fused.params.values, &s.params.values, 1e-6);
        kemf_tensor::assert_close(&fused.buffers.values, &s.buffers.values, 1e-6);
    }

    #[test]
    fn weighting_respects_sample_counts() {
        let a = Model::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 1)).state();
        let b = Model::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 2)).state();
        let fused = weight_average_fusion_weighted(&[a.clone(), b.clone()], &[30, 10], &[1.0, 1.0]);
        let expect: Vec<f32> = a
            .params
            .values
            .iter()
            .zip(b.params.values.iter())
            .map(|(&x, &y)| 0.75 * x + 0.25 * y)
            .collect();
        kemf_tensor::assert_close(&fused.params.values, &expect, 1e-5);
    }
}
