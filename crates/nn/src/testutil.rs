//! Finite-difference gradient checking, shared by the unit tests of every
//! layer and loss in this crate (and reused by `kemf-core` tests).
//!
//! The check projects the layer output onto a fixed random vector to get a
//! scalar loss `L = Σ y ⊙ r`, computes analytic gradients via one
//! forward/backward pass, and compares every parameter gradient and the
//! input gradient against central finite differences.

use crate::layer::{Layer, Mode};
use kemf_tensor::rng::seeded_rng;
use kemf_tensor::workspace::Workspace;
use kemf_tensor::Tensor;

/// Scalar projection loss and its output-gradient (the projection itself).
fn proj_loss(y: &Tensor, r: &Tensor) -> f32 {
    y.dot(r)
}

/// Run the finite-difference check. `step` is the FD perturbation, `tol`
/// the relative tolerance. Panics with a descriptive message on mismatch.
pub fn grad_check(layer: &mut dyn Layer, input_dims: &[usize], step: f32, tol: f32) {
    let mut rng = seeded_rng(0xfeed);
    let x = Tensor::randn(input_dims, 1.0, &mut rng);
    let ws = &mut Workspace::new();

    // Fixed projection of the output.
    layer.zero_grad();
    let y0 = layer.forward(&x, Mode::Train, ws);
    let r = Tensor::randn(y0.dims(), 1.0, &mut rng);

    // Analytic pass.
    layer.zero_grad();
    let y = layer.forward(&x, Mode::Train, ws);
    let analytic_input_grad = layer.backward(&r, ws);
    let _ = y;

    // Snapshot analytic parameter gradients.
    let mut analytic_param_grads: Vec<Vec<f32>> = Vec::new();
    layer.visit_params(&mut |p| analytic_param_grads.push(p.grad.data().to_vec()));

    // Finite differences on every parameter scalar.
    for (pi, param_grads) in analytic_param_grads.iter().enumerate() {
        for (e, &an) in param_grads.iter().enumerate() {
            let mut f = |delta: f32, layer: &mut dyn Layer| -> f32 {
                let mut i = 0;
                layer.visit_params_mut(&mut |p| {
                    if i == pi {
                        p.value.data_mut()[e] += delta;
                    }
                    i += 1;
                });
                let y = layer.forward(&x, Mode::Train, ws);
                let mut i = 0;
                layer.visit_params_mut(&mut |p| {
                    if i == pi {
                        p.value.data_mut()[e] -= delta;
                    }
                    i += 1;
                });
                proj_loss(&y, &r)
            };
            let lp = f(step, layer);
            let lm = f(-step, layer);
            let fd = (lp - lm) / (2.0 * step);
            let denom = 1.0f32.max(fd.abs()).max(an.abs());
            assert!(
                (fd - an).abs() / denom <= tol,
                "{}: param {pi} elem {e}: finite-diff {fd} vs analytic {an}",
                layer.name()
            );
        }
    }

    // Finite differences on every input scalar.
    for e in 0..x.numel() {
        let mut xp = x.clone();
        xp.data_mut()[e] += step;
        let lp = proj_loss(&layer.forward(&xp, Mode::Train, ws), &r);
        let mut xm = x.clone();
        xm.data_mut()[e] -= step;
        let lm = proj_loss(&layer.forward(&xm, Mode::Train, ws), &r);
        let fd = (lp - lm) / (2.0 * step);
        let an = analytic_input_grad.data()[e];
        let denom = 1.0f32.max(fd.abs()).max(an.abs());
        assert!(
            (fd - an).abs() / denom <= tol,
            "{}: input elem {e}: finite-diff {fd} vs analytic {an}",
            layer.name()
        );
    }
}
