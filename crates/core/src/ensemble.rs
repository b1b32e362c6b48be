//! Ensemble strategies for the collected knowledge networks (Eq. 5 and
//! the paper's ablation): max-logits (default), average-logits, and
//! majority vote.

use kemf_fl::compress::ComputePrecision;
use kemf_nn::model::Model;
use kemf_tensor::ops::{argmax_rows, elementwise_max, elementwise_mean};
use kemf_tensor::Tensor;

/// Standardize each row (zero mean, unit variance over classes). Applied
/// to every member before logit ensembling so that a single
/// badly-calibrated member cannot dominate by sheer logit scale — an
/// issue for max-logits when teachers are trained for few steps.
pub fn standardize_rows(logits: &Tensor) -> Tensor {
    let (n, c) = logits.shape().as_matrix();
    assert!(c > 1, "standardize_rows needs at least two classes");
    let mut out = logits.clone();
    let data = out.data_mut();
    for r in 0..n {
        let row = &mut data[r * c..(r + 1) * c];
        let mean: f32 = row.iter().sum::<f32>() / c as f32;
        let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / c as f32;
        let inv = 1.0 / var.sqrt().max(1e-6);
        for v in row.iter_mut() {
            *v = (*v - mean) * inv;
        }
    }
    out
}

/// How the server combines the client knowledge networks' outputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnsembleStrategy {
    /// Element-wise maximum of the logit vectors (Eq. 5; the paper's
    /// choice — "the max logits get the best results in practice").
    MaxLogits,
    /// Element-wise mean of the logit vectors (FedDF-style).
    AvgLogits,
    /// Vote histogram over the members' argmax predictions.
    MajorityVote,
}

/// Combine per-member logits `[N, C]` into one ensemble logit tensor.
///
/// For `MajorityVote` the result rows are vote frequencies (a valid
/// probability vector scaled to logit-like range via identity — callers
/// soften it like any other logits, which preserves the vote ranking).
pub fn ensemble_logits(member_logits: &[Tensor], strategy: EnsembleStrategy) -> Tensor {
    assert!(!member_logits.is_empty(), "ensemble of zero members");
    match strategy {
        EnsembleStrategy::MaxLogits => {
            // Scale-normalize members first: max-logits is otherwise won
            // by whichever member happens to be most overconfident.
            let std: Vec<Tensor> = member_logits.iter().map(standardize_rows).collect();
            let refs: Vec<&Tensor> = std.iter().collect();
            elementwise_max(&refs)
        }
        EnsembleStrategy::AvgLogits => {
            let refs: Vec<&Tensor> = member_logits.iter().collect();
            elementwise_mean(&refs)
        }
        EnsembleStrategy::MajorityVote => {
            let (n, c) = member_logits[0].shape().as_matrix();
            let mut votes = Tensor::zeros(&[n, c]);
            for m in member_logits {
                assert_eq!(m.shape(), member_logits[0].shape(), "member shape mismatch");
                for (i, pred) in argmax_rows(m).into_iter().enumerate() {
                    votes.data_mut()[i * c + pred] += 1.0;
                }
            }
            votes.scale_inplace(1.0 / member_logits.len() as f32);
            votes
        }
    }
}

/// Run every member model over a batch and ensemble the logits — the
/// paper's `Θ(x)` (Eq. 5).
pub fn ensemble_forward(
    members: &mut [Model],
    images: &Tensor,
    strategy: EnsembleStrategy,
) -> Tensor {
    ensemble_forward_with_precision(members, images, strategy, ComputePrecision::F32)
}

/// [`ensemble_forward`] with an explicit member compute format. `Int8`
/// runs each member's forward through the quantized GEMM path; every
/// member is switched back to exact f32 before returning, so the choice
/// is scoped to this one pass and cannot leak into later training.
pub fn ensemble_forward_with_precision(
    members: &mut [Model],
    images: &Tensor,
    strategy: EnsembleStrategy,
    precision: ComputePrecision,
) -> Tensor {
    assert!(!members.is_empty(), "ensemble of zero members");
    let logits: Vec<Tensor> = members
        .iter_mut()
        .map(|m| {
            m.set_precision(precision);
            let z = m.predict(images);
            m.set_precision(ComputePrecision::F32);
            z
        })
        .collect();
    ensemble_logits(&logits, strategy)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>, n: usize, c: usize) -> Tensor {
        Tensor::from_vec(v, &[n, c])
    }

    #[test]
    fn max_logits_dominates_standardized_members() {
        let a = t(vec![1.0, 5.0, 2.0, 0.0], 2, 2);
        let b = t(vec![3.0, 2.0, 1.0, 4.0], 2, 2);
        let e = ensemble_logits(&[a.clone(), b.clone()], EnsembleStrategy::MaxLogits);
        // Members are row-standardized before the max, so the result
        // dominates the standardized members element-wise.
        let sa = standardize_rows(&a);
        let sb = standardize_rows(&b);
        for (i, &v) in e.data().iter().enumerate() {
            assert!(v >= sa.data()[i] && v >= sb.data()[i]);
        }
        // Row 0: member a prefers class 1, member b class 0 with equal
        // (unit) scale after standardization → a tie at +1 for both slots.
        assert_eq!(e.data()[0], e.data()[1]);
    }

    #[test]
    fn standardize_rows_is_rank_preserving_and_unit_scale() {
        let a = t(vec![10.0, 50.0, 20.0, -3.0], 1, 4);
        let s = standardize_rows(&a);
        let order = |v: &[f32]| {
            let mut idx: Vec<usize> = (0..v.len()).collect();
            idx.sort_by(|&i, &j| v[i].total_cmp(&v[j]));
            idx
        };
        assert_eq!(order(a.data()), order(s.data()));
        let mean: f32 = s.data().iter().sum::<f32>() / 4.0;
        let var: f32 = s.data().iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5 && (var - 1.0).abs() < 1e-4);
    }

    #[test]
    fn avg_logits_is_mean() {
        let a = t(vec![2.0, 0.0], 1, 2);
        let b = t(vec![0.0, 4.0], 1, 2);
        let e = ensemble_logits(&[a, b], EnsembleStrategy::AvgLogits);
        assert_eq!(e.data(), &[1.0, 2.0]);
    }

    #[test]
    fn majority_vote_counts_argmaxes() {
        let a = t(vec![9.0, 0.0], 1, 2); // votes class 0
        let b = t(vec![0.0, 9.0], 1, 2); // votes class 1
        let c = t(vec![5.0, 1.0], 1, 2); // votes class 0
        let e = ensemble_logits(&[a, b, c], EnsembleStrategy::MajorityVote);
        kemf_tensor::assert_close(e.data(), &[2.0 / 3.0, 1.0 / 3.0], 1e-6);
    }

    #[test]
    fn single_member_avg_is_identity_and_max_preserves_ranking() {
        let a = t(vec![1.0, -2.0, 0.5, 3.0], 2, 2);
        assert_eq!(
            ensemble_logits(std::slice::from_ref(&a), EnsembleStrategy::AvgLogits).data(),
            a.data()
        );
        // Max standardizes, which preserves each row's argmax.
        let e = ensemble_logits(std::slice::from_ref(&a), EnsembleStrategy::MaxLogits);
        assert_eq!(argmax_rows(&e), argmax_rows(&a));
    }

    #[test]
    #[should_panic]
    fn empty_ensemble_panics() {
        let _ = ensemble_logits(&[], EnsembleStrategy::MaxLogits);
    }

    #[test]
    fn int8_ensemble_forward_tracks_f32() {
        use kemf_data::synth::{SynthConfig, SynthTask};
        use kemf_nn::models::{Arch, ModelSpec};
        let mut members = vec![
            Model::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 21)),
            Model::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 22)),
        ];
        let task = SynthTask::new(SynthConfig::mnist_like(23));
        let x = task.generate_unlabeled(6, 24);
        let exact = ensemble_forward(&mut members, &x, EnsembleStrategy::AvgLogits);
        let quant = ensemble_forward_with_precision(
            &mut members,
            &x,
            EnsembleStrategy::AvgLogits,
            ComputePrecision::Int8,
        );
        let max_abs = exact.data().iter().fold(0f32, |a, v| a.max(v.abs())).max(1.0);
        for (e, q) in exact.data().iter().zip(quant.data()) {
            assert!((e - q).abs() <= 0.1 * max_abs, "int8 drifted too far: {e} vs {q}");
        }
        // The switch must not leak: a plain forward afterwards is exact f32.
        let again = ensemble_forward(&mut members, &x, EnsembleStrategy::AvgLogits);
        assert_eq!(exact.data(), again.data());
    }
}
