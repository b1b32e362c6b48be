//! Optimizers and learning-rate schedules.
//!
//! [`Sgd`] implements SGD with momentum, optional Nesterov lookahead, and
//! decoupled weight decay. Velocity buffers are keyed by the deterministic
//! parameter visit order of the network, so one optimizer instance must
//! stay paired with one network (asserted by size).

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
    /// Nesterov lookahead (requires momentum > 0).
    pub nesterov: bool,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 5e-4, nesterov: false }
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
        assert!(!cfg.nesterov || cfg.momentum > 0.0, "nesterov requires momentum");
        Sgd { cfg, velocity: Vec::new() }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.cfg.lr
    }

    /// Override the learning rate (used by schedules).
    pub fn set_lr(&mut self, lr: f32) {
        assert!(lr > 0.0, "learning rate must be positive");
        self.cfg.lr = lr;
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
        // value ← value − lr·(g' + μ·v) (Nesterov) or value ← value − lr·v.
        net.visit_params_mut(&mut |p| {
            if cfg.momentum > 0.0 {
                let v = &mut velocity[idx];
                assert_eq!(
                    v.dims(),
                    p.grad.dims(),
                    "optimizer paired with a different network (param {idx})"
                );
                v.scale_inplace(cfg.momentum);
                v.axpy(1.0, &p.grad);
                if cfg.weight_decay > 0.0 {
                    v.axpy(cfg.weight_decay, &p.value);
                }
                if cfg.nesterov {
                    if cfg.weight_decay > 0.0 {
                        p.value.scale_inplace(1.0 - cfg.lr * cfg.weight_decay);
                    }
                    p.value.axpy(-cfg.lr, &p.grad);
                    p.value.axpy(-cfg.lr * cfg.momentum, v);
                } else {
                    p.value.axpy(-cfg.lr, v);
                }
            } else {
                if cfg.weight_decay > 0.0 {
                    p.value.scale_inplace(1.0 - cfg.lr * cfg.weight_decay);
                }
                p.value.axpy(-cfg.lr, &p.grad);
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

/// Learning-rate schedules over communication rounds.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub enum LrSchedule {
    /// Constant learning rate.
    Constant,
    /// Multiply by `gamma` every `every` rounds.
    Step {
        /// Rounds between decays.
        every: usize,
        /// Decay factor.
        gamma: f32,
    },
    /// Cosine decay from the base LR to `min_lr` over `total` rounds.
    Cosine {
        /// Total rounds of the schedule.
        total: usize,
        /// Floor learning rate.
        min_lr: f32,
    },
}

impl LrSchedule {
    /// Learning rate at `round` given the base rate.
    pub fn lr_at(&self, base: f32, round: usize) -> f32 {
        match *self {
            LrSchedule::Constant => base,
            LrSchedule::Step { every, gamma } => {
                assert!(every > 0, "step schedule period must be positive");
                base * gamma.powi((round / every) as i32)
            }
            LrSchedule::Cosine { total, min_lr } => {
                let t = (round.min(total)) as f32 / total.max(1) as f32;
                min_lr + 0.5 * (base - min_lr) * (1.0 + (std::f32::consts::PI * t).cos())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kemf_tensor::workspace::Workspace;
    use crate::linear::Linear;
    use crate::loss::cross_entropy_ws;
    use kemf_tensor::rng::seeded_rng;

    #[test]
    fn sgd_reduces_loss_on_toy_problem() {
        let ws = &mut Workspace::new();
        let mut net = Linear::new(2, 2, 3);
        let mut opt = Sgd::new(SgdConfig { lr: 0.5, momentum: 0.0, weight_decay: 0.0, nesterov: false });
        let mut rng = seeded_rng(30);
        let x = Tensor::randn(&[16, 2], 1.0, &mut rng);
        // Labels: sign of first feature.
        let labels: Vec<usize> = x.data().chunks(2).map(|r| usize::from(r[0] > 0.0)).collect();
        let mut first = 0.0;
        let mut last = 0.0;
        for it in 0..50 {
            net.zero_grad();
            let logits = net.forward(&x, true, ws);
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
            let mut opt =
                Sgd::new(SgdConfig { lr: 0.02, momentum, weight_decay: 0.0, nesterov: false });
            let x = Tensor::from_vec(vec![3.0, 0.0, 0.0, 0.3], &[2, 2]);
            let target = Tensor::from_vec(vec![1.0, -1.0], &[2, 1]);
            let mut loss = 0.0;
            for _ in 0..120 {
                net.zero_grad();
                let y = net.forward(&x, true, ws);
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
        let mut opt = Sgd::new(SgdConfig { lr: 0.1, momentum: 0.0, weight_decay: 0.5, nesterov: false });
        let mut before = 0.0;
        net.visit_params(&mut |p| before += p.value.sq_norm());
        // Zero gradients: only decay acts.
        net.zero_grad();
        opt.step(&mut net);
        let mut after = 0.0;
        net.visit_params(&mut |p| after += p.value.sq_norm());
        assert!(after < before, "decay should shrink weights: {before} → {after}");
    }

    #[test]
    fn schedules() {
        let s = LrSchedule::Step { every: 10, gamma: 0.1 };
        assert!((s.lr_at(1.0, 0) - 1.0).abs() < 1e-6);
        assert!((s.lr_at(1.0, 10) - 0.1).abs() < 1e-6);
        assert!((s.lr_at(1.0, 25) - 0.01).abs() < 1e-6);
        let c = LrSchedule::Cosine { total: 100, min_lr: 0.0 };
        assert!((c.lr_at(1.0, 0) - 1.0).abs() < 1e-6);
        assert!((c.lr_at(1.0, 100)).abs() < 1e-6);
        assert!(c.lr_at(1.0, 50) < 1.0 && c.lr_at(1.0, 50) > 0.0);
        assert!((LrSchedule::Constant.lr_at(0.3, 77) - 0.3).abs() < 1e-7);
    }

    #[test]
    #[should_panic]
    fn rejects_bad_lr() {
        let _ = Sgd::new(SgdConfig { lr: 0.0, momentum: 0.0, weight_decay: 0.0, nesterov: false });
    }
}
