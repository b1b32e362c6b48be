//! Optimizers: SGD and gradient-norm clipping.
//!
//! [`Sgd`] implements SGD with momentum and decoupled weight decay.
//! Velocity buffers are keyed by the deterministic parameter visit order
//! of the network, so one optimizer instance must stay paired with one
//! network (asserted by size).
//!
//! A step reads and writes each parameter tensor once: per element,
//! `v ← v·μ + 1.0·g (+ wd·w)`, then `w ← w + (−lr)·v` — or, without
//! momentum, `w ← w·(1 − lr·wd)` then `w + (−lr)·g` — each a separate f32
//! multiply and add in the order the four whole-tensor passes (scale,
//! axpy, axpy, axpy) it replaces ran them, so the same bits.

use crate::layer::Layer;
use kemf_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// SGD hyper-parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SgdConfig {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    /// L2 weight decay added to the gradient.
    pub weight_decay: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 5e-4 }
    }
}

/// Stochastic gradient descent with momentum.
pub struct Sgd {
    cfg: SgdConfig,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// New optimizer; velocity buffers are allocated lazily on first step.
    pub fn new(cfg: SgdConfig) -> Self {
        assert!(cfg.lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&cfg.momentum), "momentum must be in [0, 1)");
        assert!(cfg.weight_decay >= 0.0, "weight decay must be non-negative");
        Sgd { cfg, velocity: Vec::new() }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.cfg.lr
    }

    /// Apply one update to every parameter of `net` using its accumulated
    /// gradients, then leave the gradients untouched (callers typically
    /// `zero_grad` before the next batch).
    pub fn step(&mut self, net: &mut dyn Layer) {
        let cfg = self.cfg;
        // Lazily size velocity buffers on first use.
        if self.velocity.is_empty() && cfg.momentum > 0.0 {
            net.visit_params(&mut |p| self.velocity.push(Tensor::zeros(p.value.dims())));
        }
        let velocity = &mut self.velocity;
        let mut idx = 0usize;
        // Fully in-place update (no per-step gradient staging buffers):
        // with g' = grad + wd·value and v ← μ·v + g', the weight update is
        // value ← value − lr·v, one pass over each tensor.
        net.visit_params_mut(&mut |p| {
            if cfg.momentum > 0.0 {
                let v = &mut velocity[idx];
                assert_eq!(
                    v.dims(),
                    p.grad.dims(),
                    "optimizer paired with a different network (param {idx})"
                );
                let (mu, wd, step) = (cfg.momentum, cfg.weight_decay, -cfg.lr);
                let elems = p.value.data_mut().iter_mut().zip(v.data_mut()).zip(p.grad.data());
                // No `+ 0.0·w` without decay: it would turn a `−0.0`
                // velocity into `+0.0`.
                if wd > 0.0 {
                    for ((w, v), &g) in elems {
                        *v = *v * mu + 1.0 * g + wd * *w;
                        *w += step * *v;
                    }
                } else {
                    for ((w, v), &g) in elems {
                        *v = *v * mu + 1.0 * g;
                        *w += step * *v;
                    }
                }
            } else {
                // Without decay `decay` is exactly 1.0 and `w·1.0` is `w`.
                let (decay, step) = (1.0 - cfg.lr * cfg.weight_decay, -cfg.lr);
                for (w, &g) in p.value.data_mut().iter_mut().zip(p.grad.data()) {
                    *w = *w * decay + step * g;
                }
            }
            idx += 1;
        });
    }
}

/// Clip the global L2 norm of all parameter gradients to `max_norm`.
/// Returns the pre-clip norm. A standard stabilizer for distillation-style
/// losses whose gradients can spike early in training.
pub fn clip_grad_norm(net: &mut dyn Layer, max_norm: f32) -> f32 {
    assert!(max_norm > 0.0, "max_norm must be positive");
    let mut sq = 0.0f64;
    net.visit_params(&mut |p| sq += p.grad.sq_norm() as f64);
    let norm = sq.sqrt() as f32;
    if norm > max_norm {
        let scale = max_norm / norm;
        net.visit_params_mut(&mut |p| p.grad.scale_inplace(scale));
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use kemf_tensor::workspace::Workspace;
    use crate::layer::Mode;
    use crate::linear::Linear;
    use crate::loss::cross_entropy_ws;
    use kemf_tensor::rng::seeded_rng;

    #[test]
    fn sgd_reduces_loss_on_toy_problem() {
        let ws = &mut Workspace::new();
        let mut net = Linear::new(2, 2, 3);
        let mut opt = Sgd::new(SgdConfig { lr: 0.5, momentum: 0.0, weight_decay: 0.0 });
        let mut rng = seeded_rng(30);
        let x = Tensor::randn(&[16, 2], 1.0, &mut rng);
        // Labels: sign of first feature.
        let labels: Vec<usize> = x.data().chunks(2).map(|r| usize::from(r[0] > 0.0)).collect();
        let mut first = 0.0;
        let mut last = 0.0;
        for it in 0..50 {
            net.zero_grad();
            let logits = net.forward(&x, Mode::Train, ws);
            let (loss, grad) = cross_entropy_ws(&logits, &labels, ws);
            if it == 0 {
                first = loss;
            }
            last = loss;
            let _ = net.backward(&grad, ws);
            opt.step(&mut net);
        }
        assert!(last < first * 0.5, "loss {first} → {last}");
    }

    #[test]
    fn momentum_accelerates_descent() {
        // On an ill-conditioned quadratic, momentum reaches a lower loss in
        // the same number of steps.
        let run = |momentum: f32| {
            let ws = &mut Workspace::new();
            let mut net = Linear::new(2, 1, 4);
            let mut opt = Sgd::new(SgdConfig { lr: 0.02, momentum, weight_decay: 0.0 });
            let x = Tensor::from_vec(vec![3.0, 0.0, 0.0, 0.3], &[2, 2]);
            let target = Tensor::from_vec(vec![1.0, -1.0], &[2, 1]);
            let mut loss = 0.0;
            for _ in 0..120 {
                net.zero_grad();
                let y = net.forward(&x, Mode::Train, ws);
                let diff = y.sub(&target);
                loss = diff.sq_norm();
                let _ = net.backward(&diff.scale(2.0), ws);
                opt.step(&mut net);
            }
            loss
        };
        assert!(run(0.9) < run(0.0), "momentum should help on ill-conditioned problems");
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut net = Linear::new(4, 4, 5);
        let mut opt = Sgd::new(SgdConfig { lr: 0.1, momentum: 0.0, weight_decay: 0.5 });
        let mut before = 0.0;
        net.visit_params(&mut |p| before += p.value.sq_norm());
        // Zero gradients: only decay acts.
        net.zero_grad();
        opt.step(&mut net);
        let mut after = 0.0;
        net.visit_params(&mut |p| after += p.value.sq_norm());
        assert!(after < before, "decay should shrink weights: {before} → {after}");
    }

    /// The step as four whole-tensor passes, as it was written: `v·μ`,
    /// `+ 1.0·g`, `+ wd·w`, then `w + (−lr)·v`; without momentum
    /// `w·(1 − lr·wd)`, then `w + (−lr)·g`.
    fn four_passes(cfg: SgdConfig, w: &mut Tensor, v: &mut Tensor, g: &Tensor) {
        if cfg.momentum > 0.0 {
            v.scale_inplace(cfg.momentum);
            v.axpy(1.0, g);
            if cfg.weight_decay > 0.0 {
                v.axpy(cfg.weight_decay, w);
            }
            w.axpy(-cfg.lr, v);
        } else {
            if cfg.weight_decay > 0.0 {
                w.scale_inplace(1.0 - cfg.lr * cfg.weight_decay);
            }
            w.axpy(-cfg.lr, g);
        }
    }

    #[test]
    fn one_pass_step_is_bit_identical_to_four_passes() {
        let mut rng = seeded_rng(31);
        for momentum in [0.0, 0.9] {
            for weight_decay in [0.0, 5e-4] {
                let cfg = SgdConfig { lr: 0.05, momentum, weight_decay };
                let mut net = Linear::new(37, 5, 32);
                let mut opt = Sgd::new(cfg);
                let mut want: Vec<(Tensor, Tensor)> = Vec::new();
                net.visit_params(&mut |p| want.push((p.value.clone(), Tensor::zeros(p.value.dims()))));
                for step in 0..4 {
                    // Gradients with ±0 and NaN among them (a NaN from the
                    // third step on, so the velocity carries it).
                    net.visit_params_mut(&mut |p| {
                        p.grad = Tensor::randn(p.value.dims(), 1.0, &mut rng);
                        let g = p.grad.data_mut();
                        g[0] = 0.0;
                        g[1] = -0.0;
                        if step >= 2 {
                            g[2] = f32::NAN;
                        }
                    });
                    let mut grads = Vec::new();
                    net.visit_params(&mut |p| grads.push(p.grad.clone()));
                    opt.step(&mut net);
                    for ((w, v), g) in want.iter_mut().zip(&grads) {
                        four_passes(cfg, w, v, g);
                    }
                    let mut k = 0;
                    net.visit_params(&mut |p| {
                        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&p.value), bits(&want[k].0), "μ {momentum}, wd {weight_decay}, step {step}, param {k}");
                        k += 1;
                    });
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn rejects_bad_lr() {
        let _ = Sgd::new(SgdConfig { lr: 0.0, momentum: 0.0, weight_decay: 0.0 });
    }
}
