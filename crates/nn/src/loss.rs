//! Loss functions and their gradients with respect to logits.
//!
//! Everything FedKEMF needs:
//! * [`cross_entropy_ws`] — Eq. 1 of the paper (supervised term `L_c`).
//! * [`kl_to_target_ws`] — Eq. 2/4: `D_KL(target ‖ softmax(logits))`, the
//!   deep-mutual-learning and ensemble-distillation term, with optional
//!   distillation temperature τ (gradients scaled by τ² per Hinton et al.).
//!
//! All losses are means over the batch; gradients are w.r.t. the raw
//! logits, drawn from the caller's [`Workspace`] (the caller recycles them
//! after backward), so they plug straight into `Model::train_step`.

use kemf_tensor::ops::{argmax_rows, softmax_inplace_rows};
use kemf_tensor::workspace::Workspace;
use kemf_tensor::Tensor;

/// Softmax cross-entropy against integer labels.
///
/// Returns `(mean loss, ∂L/∂logits)` with the classic `softmax − onehot`
/// gradient (divided by batch size).
pub fn cross_entropy_ws(logits: &Tensor, labels: &[usize], ws: &mut Workspace) -> (f32, Tensor) {
    let (n, c) = logits.shape().as_matrix();
    assert_eq!(n, labels.len(), "batch/label count mismatch");
    assert!(n > 0, "empty batch");
    let mut grad = ws.take_tensor(logits.dims());
    grad.data_mut().copy_from_slice(logits.data());
    softmax_inplace_rows(grad.data_mut(), n, c);
    let mut loss = 0.0f64;
    {
        let g = grad.data_mut();
        for (i, &y) in labels.iter().enumerate() {
            assert!(y < c, "label {y} out of {c} classes");
            let p = g[i * c + y].max(1e-12);
            loss -= (p as f64).ln();
            g[i * c + y] -= 1.0;
        }
    }
    grad.scale_inplace(1.0 / n as f32);
    ((loss / n as f64) as f32, grad)
}

/// Temperature-softened probability targets from teacher logits.
pub fn soften(logits: &Tensor, temperature: f32) -> Tensor {
    soften_ws(logits, temperature, &mut Workspace::new())
}

/// [`soften`] with the target tensor drawn from `ws`.
pub fn soften_ws(logits: &Tensor, temperature: f32, ws: &mut Workspace) -> Tensor {
    assert!(temperature > 0.0, "temperature must be positive");
    let (n, c) = logits.shape().as_matrix();
    let mut out = ws.take_tensor(logits.dims());
    let inv_t = 1.0 / temperature;
    for (ov, &lv) in out.data_mut().iter_mut().zip(logits.data().iter()) {
        *ov = lv * inv_t;
    }
    softmax_inplace_rows(out.data_mut(), n, c);
    out
}

/// `τ² · D_KL(target ‖ softmax(logits / τ))`, mean over the batch.
///
/// `target` must be a probability tensor with the same `[N, C]` shape (use
/// [`soften`] on teacher logits). Returns `(loss, ∂L/∂logits)`; the
/// gradient is `τ · (softmax(logits/τ) − target) / N`, the standard
/// distillation gradient (the τ² loss scale keeps gradient magnitudes
/// comparable across temperatures).
pub fn kl_to_target_ws(
    logits: &Tensor,
    target: &Tensor,
    temperature: f32,
    ws: &mut Workspace,
) -> (f32, Tensor) {
    assert!(temperature > 0.0, "temperature must be positive");
    let (n, c) = logits.shape().as_matrix();
    let (tn, tc) = target.shape().as_matrix();
    assert_eq!((n, c), (tn, tc), "logits/target shape mismatch");
    assert!(n > 0, "empty batch");
    // grad starts as p = softmax(logits/τ), in place.
    let mut grad = soften_ws(logits, temperature, ws);
    let t2 = temperature * temperature;
    let mut loss = 0.0f64;
    for (&t, &pi) in target.data().iter().zip(grad.data().iter()) {
        if t > 0.0 {
            let pi = pi.max(1e-12);
            loss += (t as f64) * ((t as f64).max(1e-12).ln() - (pi as f64).ln());
        }
    }
    loss *= t2 as f64 / n as f64;
    // grad = (p − target) · τ / N
    let scale = temperature / n as f32;
    for (gv, &tv) in grad.data_mut().iter_mut().zip(target.data().iter()) {
        *gv = (*gv - tv) * scale;
    }
    (loss as f32, grad)
}

/// Top-1 accuracy of logits against labels, in `[0, 1]`.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f32 {
    let preds = argmax_rows(logits);
    assert_eq!(preds.len(), labels.len(), "batch/label count mismatch");
    if labels.is_empty() {
        return 0.0;
    }
    let correct = preds.iter().zip(labels.iter()).filter(|(p, y)| p == y).count();
    correct as f32 / labels.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use kemf_tensor::rng::seeded_rng;

    fn cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
        cross_entropy_ws(logits, labels, &mut Workspace::new())
    }

    fn kl_to_target(logits: &Tensor, target: &Tensor, temperature: f32) -> (f32, Tensor) {
        kl_to_target_ws(logits, target, temperature, &mut Workspace::new())
    }

    /// Central finite differences on a loss over logits.
    fn fd_grad(loss_fn: impl Fn(&Tensor) -> f32, logits: &Tensor, step: f32) -> Vec<f32> {
        let mut out = Vec::with_capacity(logits.numel());
        for e in 0..logits.numel() {
            let mut lp = logits.clone();
            lp.data_mut()[e] += step;
            let mut lm = logits.clone();
            lm.data_mut()[e] -= step;
            out.push((loss_fn(&lp) - loss_fn(&lm)) / (2.0 * step));
        }
        out
    }

    #[test]
    fn cross_entropy_perfect_prediction_near_zero() {
        let logits = Tensor::from_vec(vec![20.0, 0.0, 0.0, 0.0, 20.0, 0.0], &[2, 3]);
        let (loss, _) = cross_entropy(&logits, &[0, 1]);
        assert!(loss < 1e-3, "loss {loss}");
    }

    #[test]
    fn cross_entropy_uniform_is_ln_c() {
        let logits = Tensor::zeros(&[4, 10]);
        let (loss, _) = cross_entropy(&logits, &[0, 3, 5, 9]);
        assert!((loss - (10.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_grad_matches_fd() {
        let mut rng = seeded_rng(21);
        let logits = Tensor::randn(&[3, 4], 1.0, &mut rng);
        let labels = vec![1usize, 0, 3];
        let (_, grad) = cross_entropy(&logits, &labels);
        let fd = fd_grad(|l| cross_entropy(l, &labels).0, &logits, 1e-2);
        kemf_tensor::assert_close(grad.data(), &fd, 2e-3);
    }

    #[test]
    fn kl_zero_when_target_equals_prediction() {
        let mut rng = seeded_rng(22);
        let logits = Tensor::randn(&[2, 5], 1.0, &mut rng);
        let target = soften(&logits, 1.0);
        let (loss, grad) = kl_to_target(&logits, &target, 1.0);
        assert!(loss.abs() < 1e-5, "loss {loss}");
        assert!(grad.norm() < 1e-5, "grad norm {}", grad.norm());
    }

    #[test]
    fn kl_is_nonnegative() {
        let mut rng = seeded_rng(23);
        for _ in 0..20 {
            let logits = Tensor::randn(&[2, 4], 2.0, &mut rng);
            let teacher = Tensor::randn(&[2, 4], 2.0, &mut rng);
            let (loss, _) = kl_to_target(&logits, &soften(&teacher, 1.0), 1.0);
            assert!(loss >= -1e-6, "loss {loss}");
        }
    }

    #[test]
    fn kl_grad_matches_fd() {
        let mut rng = seeded_rng(24);
        let logits = Tensor::randn(&[3, 4], 1.0, &mut rng);
        let teacher = Tensor::randn(&[3, 4], 1.0, &mut rng);
        for &tau in &[1.0f32, 2.0, 4.0] {
            let target = soften(&teacher, tau);
            let (_, grad) = kl_to_target(&logits, &target, tau);
            let fd = fd_grad(|l| kl_to_target(l, &target, tau).0, &logits, 1e-2);
            kemf_tensor::assert_close(grad.data(), &fd, 3e-3);
        }
    }

    #[test]
    fn soften_flattens_distribution() {
        let logits = Tensor::from_vec(vec![4.0, 0.0, 0.0], &[1, 3]);
        let sharp = soften(&logits, 1.0);
        let soft = soften(&logits, 8.0);
        assert!(soft.data()[0] < sharp.data()[0]);
        assert!((soft.data().iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn accuracy_counts_correct() {
        let logits = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0], &[3, 2]);
        assert!((accuracy(&logits, &[0, 1, 0]) - 1.0).abs() < 1e-6);
        assert!((accuracy(&logits, &[1, 1, 0]) - 2.0 / 3.0).abs() < 1e-6);
    }
}
