//! Property-based tests of the neural-network substrate: linearity of
//! layers that must be linear, invariances of normalization, and
//! optimizer/serialization invariants.

use kemf_nn::layer::Layer;
use kemf_nn::linear::Linear;
use kemf_nn::loss::{accuracy, cross_entropy_ws};
use kemf_nn::models::{Arch, ModelSpec};
use kemf_nn::model::Model;
use kemf_nn::norm::BatchNorm2d;
use kemf_nn::optim::{clip_grad_norm, LrSchedule, Sgd, SgdConfig};
use kemf_nn::serialize::Weights;
use kemf_tensor::workspace::Workspace;
use kemf_tensor::Tensor;
use proptest::prelude::*;

fn vecf(n: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-3.0f32..3.0, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn linear_layer_is_affine(a in vecf(6), b in vecf(6), s in -2.0f32..2.0) {
        // f(s·x + y) − f(y) == s·(f(x) − f(0)) for an affine map.
        let mut l = Linear::new(3, 4, 7);
        let x = Tensor::from_vec(a, &[2, 3]);
        let y = Tensor::from_vec(b, &[2, 3]);
        let zero = Tensor::zeros(&[2, 3]);
        let f = |l: &mut Linear, t: &Tensor| l.forward(t, false, &mut Workspace::new());
        let lhs = f(&mut l, &x.scale(s).add(&y)).sub(&f(&mut l, &y));
        let rhs = f(&mut l, &x).sub(&f(&mut l, &zero)).scale(s);
        kemf_tensor::assert_close(lhs.data(), rhs.data(), 1e-3);
    }

    #[test]
    fn batchnorm_train_output_is_scale_invariant(v in vecf(2 * 2 * 3 * 3), gain in 0.5f32..4.0) {
        // BN(x) == BN(gain · x) in training mode (γ=1, β=0).
        let x = Tensor::from_vec(v, &[2, 2, 3, 3]);
        let mut bn1 = BatchNorm2d::new(2);
        let mut bn2 = BatchNorm2d::new(2);
        let ws = &mut Workspace::new();
        let a = bn1.forward(&x, true, ws);
        let b = bn2.forward(&x.scale(gain), true, ws);
        kemf_tensor::assert_close(a.data(), b.data(), 2e-2);
    }

    #[test]
    fn clip_grad_norm_caps_and_preserves_direction(v in vecf(12), max in 0.5f32..4.0) {
        let mut l = Linear::new(3, 4, 1);
        // Install the random gradient into the weight parameter.
        let mut i = 0;
        l.visit_params_mut(&mut |p| {
            if i == 0 {
                p.grad.data_mut().copy_from_slice(&v);
            }
            i += 1;
        });
        let pre = clip_grad_norm(&mut l, max);
        let post = {
            let mut sq = 0.0f32;
            l.visit_params(&mut |p| sq += p.grad.sq_norm());
            sq.sqrt()
        };
        prop_assert!(post <= max + 1e-4, "post-clip norm {post} > {max}");
        if pre <= max {
            prop_assert!((post - pre).abs() < 1e-4, "no-op clip changed gradient");
        } else {
            // Direction preserved: grad ∝ original.
            let scale = post / pre;
            let mut clipped = Vec::new();
            let mut i = 0;
            l.visit_params(&mut |p| {
                if i == 0 {
                    clipped = p.grad.data().to_vec();
                }
                i += 1;
            });
            for (g, &orig) in clipped.iter().zip(v.iter()) {
                prop_assert!((g - orig * scale).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn sgd_without_momentum_is_exact_rule(g in vecf(12), lr in 0.001f32..0.5) {
        let mut l = Linear::new(3, 4, 2);
        let before = Weights::from_layer(&l);
        let mut i = 0;
        l.visit_params_mut(&mut |p| {
            if i == 0 {
                p.grad.data_mut().copy_from_slice(&g);
            }
            i += 1;
        });
        let mut opt = Sgd::new(SgdConfig { lr, momentum: 0.0, weight_decay: 0.0, nesterov: false });
        opt.step(&mut l);
        let after = Weights::from_layer(&l);
        for (i, &gi) in g.iter().enumerate().take(12) {
            prop_assert!((after.values[i] - (before.values[i] - lr * gi)).abs() < 1e-5);
        }
        // Bias untouched (zero grad).
        for i in 12..16 {
            prop_assert!((after.values[i] - before.values[i]).abs() < 1e-7);
        }
    }

    #[test]
    fn cosine_schedule_is_monotone_decreasing(base in 0.01f32..1.0, total in 4usize..50) {
        let s = LrSchedule::Cosine { total, min_lr: 0.0 };
        let mut last = f32::INFINITY;
        for r in 0..=total {
            let lr = s.lr_at(base, r);
            prop_assert!(lr <= last + 1e-6);
            prop_assert!(lr >= -1e-6);
            last = lr;
        }
    }

    #[test]
    fn accuracy_is_fraction_of_matches(labels in prop::collection::vec(0usize..4, 10)) {
        // One-hot logits at the labels → accuracy 1; shifted labels → 0.
        let mut v = vec![0.0f32; 10 * 4];
        for (i, &y) in labels.iter().enumerate() {
            v[i * 4 + y] = 5.0;
        }
        let logits = Tensor::from_vec(v, &[10, 4]);
        prop_assert!((accuracy(&logits, &labels) - 1.0).abs() < 1e-6);
        let wrong: Vec<usize> = labels.iter().map(|&y| (y + 1) % 4).collect();
        prop_assert!(accuracy(&logits, &wrong).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_decreases_along_negative_gradient(v in vecf(8), step in 0.01f32..0.3) {
        let logits = Tensor::from_vec(v, &[2, 4]);
        let labels = vec![1usize, 3];
        let ws = &mut Workspace::new();
        let (l0, grad) = cross_entropy_ws(&logits, &labels, ws);
        let moved = logits.add(&grad.scale(-step));
        let (l1, _) = cross_entropy_ws(&moved, &labels, ws);
        prop_assert!(l1 <= l0 + 1e-5, "loss should not increase along −∇: {l0} → {l1}");
    }
}

#[test]
fn model_state_bytes_consistent_across_archs() {
    for arch in [Arch::ResNet20, Arch::Vgg11, Arch::Cnn2] {
        let (ch, hw) = if arch == Arch::Cnn2 { (1, 12) } else { (3, 16) };
        let m = Model::new(ModelSpec::scaled(arch, ch, hw, 10, 0));
        let s = m.state();
        assert_eq!(s.bytes(), 4 * (s.params.numel() + s.buffers.numel()));
        assert_eq!(m.state_bytes(), s.bytes());
        assert!(m.bytes() <= s.bytes(), "buffers add to the wire size");
    }
}
