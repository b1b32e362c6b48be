//! Trainable parameters: a value tensor paired with its gradient
//! accumulator. Layers expose their parameters through the visitor methods
//! on [`crate::layer::Layer`], in a deterministic order that the optimizer
//! and the federated aggregation code both rely on.

use kemf_tensor::rng::seeded_rng;
use kemf_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A trainable tensor with its gradient.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Gradient of the last backward pass (accumulated until
    /// [`Param::zero_grad`]).
    pub grad: Tensor,
}

/// Where a new layer's weight matrix comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Init {
    /// Kaiming-normal draws from a generator seeded with this: a model
    /// nobody has trained yet.
    Seeded(u64),
    /// Zeros, with no generator set up and nothing drawn: a model whose
    /// every parameter is about to be overwritten
    /// ([`crate::model::Model::from_state`]).
    Zeros,
}

impl Init {
    /// A `dims`-shaped weight parameter with `fan_in` inputs per unit.
    pub fn weight(self, dims: &[usize], fan_in: usize) -> Param {
        Param::new(match self {
            Init::Seeded(seed) => Tensor::kaiming(dims, fan_in, &mut seeded_rng(seed)),
            Init::Zeros => Tensor::zeros(dims),
        })
    }

    /// The initializer of a sub-layer whose seed is this one's plus
    /// `delta`.
    pub fn offset(self, delta: u64) -> Init {
        match self {
            Init::Seeded(seed) => Init::Seeded(seed.wrapping_add(delta)),
            Init::Zeros => Init::Zeros,
        }
    }
}

impl Param {
    /// Wrap an initial value with a zeroed gradient of the same shape.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.dims());
        Param { value, grad }
    }

    /// Number of scalar weights.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }

    /// Reset the gradient accumulator.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }

    /// SGD step: `value -= lr * grad` (plain, no momentum — the optimizer
    /// in [`crate::optim`] implements the full update rule).
    pub fn sgd_step(&mut self, lr: f32) {
        self.value.axpy(-lr, &self.grad);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad() {
        let p = Param::new(Tensor::ones(&[2, 3]));
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.numel(), 6);
    }

    #[test]
    fn sgd_step_moves_against_gradient() {
        let mut p = Param::new(Tensor::ones(&[2]));
        p.grad = Tensor::from_vec(vec![1.0, -2.0], &[2]);
        p.sgd_step(0.5);
        assert_eq!(p.value.data(), &[0.5, 2.0]);
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::new(Tensor::ones(&[2]));
        p.grad = Tensor::ones(&[2]);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }
}
