//! The [`Layer`] trait: explicit forward/backward with cached activations.
//!
//! There is no tape or autograd graph; each layer caches whatever its
//! backward pass needs during a [`Mode::Train`] forward and consumes it in
//! `backward`. This keeps the substrate small, fully testable with finite
//! differences, and free of interior mutability.
//!
//! There is one forward and one backward per layer, and both take the
//! caller's [`Workspace`]: the returned tensor, every scratch buffer and
//! everything cached for backward come from it and go back to it, so a
//! steady-state training step allocates nothing. Buffers taken with
//! `take_unzeroed` hold a previous call's data, so a layer must write every
//! element it later reads (`crates/nn/tests/alloc.rs` runs each layer on a
//! fresh and on a warm workspace and demands identical bits).
//!
//! Contract:
//! * A forward's [`Mode`] says what batch norm normalizes with and what
//!   the layers keep:
//!   - `Eval` normalizes with the running statistics and caches nothing;
//!   - `BatchStats` normalizes with the batch's statistics and moves the
//!     running statistics exactly as `Train` does — the output is
//!     `Train`'s, bit for bit — and caches nothing;
//!   - `Train` does what `BatchStats` does and caches what `backward`
//!     reads (a convolution's input copy, batch norm's `x̂` and
//!     `1/σ` — from which a folded ReLU's mask is rebuilt — the bit masks
//!     of the other ReLUs, pooling indices and dims, `Linear`'s input).
//! * `backward` must be called at most once per `Mode::Train` forward,
//!   and only after one, with the gradient of the scalar loss w.r.t. the
//!   layer's output; it returns the gradient w.r.t. the input and
//!   **accumulates** into parameter gradients (so multi-head losses like
//!   deep mutual learning just call backward once with the combined
//!   output gradient). After a forward that cached nothing it panics
//!   ("… without forward(train)").
//! * The caller owns a returned tensor and hands it back with
//!   `ws.recycle_tensor` once consumed.

use crate::param::Param;
use kemf_tensor::workspace::Workspace;
use kemf_tensor::Tensor;

/// Numeric compute format of the forward pass.
///
/// `F32` is exact and required for training; `Int8` routes the GEMM-backed
/// layers (`Linear`, `Conv2d`) through the symmetric int8 engine in
/// [`kemf_tensor::quant`] — an inference-only approximation, selected only
/// by `kemf_core::ensemble::ensemble_forward_with_precision` for one
/// ensemble pass (the server itself distils in f32). Backward always runs
/// in f32 from the cached f32 activations, so a layer left in `Int8` by
/// mistake still trains on exact gradients of an approximate forward.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Precision {
    /// Exact f32 compute (default).
    #[default]
    F32,
    /// Symmetric per-row/per-column int8 quantized forward.
    Int8,
}

/// What a forward pass is for (see the module contract).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Inference with the running statistics; nothing cached.
    Eval,
    /// Inference with batch statistics (running statistics updated);
    /// nothing cached, so no backward may follow.
    BatchStats,
    /// Training: batch statistics, and every layer caches for backward.
    Train,
}

impl Mode {
    /// Whether batch norm normalizes with the batch's own statistics (and
    /// moves its running statistics).
    pub fn batch_stats(self) -> bool {
        self != Mode::Eval
    }

    /// Whether the layers keep what `backward` reads.
    pub fn caches(self) -> bool {
        self == Mode::Train
    }
}

/// `true` is a training forward, `false` an inference one — the meaning
/// of `Model::forward`'s flag.
impl From<bool> for Mode {
    fn from(training: bool) -> Self {
        if training {
            Mode::Train
        } else {
            Mode::Eval
        }
    }
}

/// A differentiable network module.
pub trait Layer: Send {
    /// Compute the layer output in `mode`.
    fn forward(&mut self, x: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor;

    /// Backpropagate: given ∂L/∂output, accumulate parameter gradients and
    /// return ∂L/∂input.
    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor;

    /// [`Layer::backward`] for a layer whose input gradient nobody reads —
    /// the first layer of a network inside a training step: accumulate
    /// parameter gradients and skip whatever only produces ∂L/∂input
    /// (`Conv2d`'s input-gradient product, `Linear`'s
    /// `g · W`). A container hands this to its first layer only and runs
    /// the rest as usual. The default runs `backward` and returns the
    /// gradient to the pool.
    fn backward_first(&mut self, grad_out: &Tensor, ws: &mut Workspace) {
        let gx = self.backward(grad_out, ws);
        ws.recycle_tensor(gx);
    }

    /// Visit parameters immutably, in a deterministic order.
    fn visit_params(&self, f: &mut dyn FnMut(&Param));

    /// Visit parameters mutably, in the same order as [`Layer::visit_params`].
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param));

    /// Visit non-trainable state tensors (batch-norm running statistics)
    /// that must travel with the weights in federated aggregation but must
    /// never receive gradient updates. Default: none.
    fn visit_buffers(&self, _f: &mut dyn FnMut(&Tensor)) {}

    /// Mutable counterpart of [`Layer::visit_buffers`], same order.
    fn visit_buffers_mut(&mut self, _f: &mut dyn FnMut(&mut Tensor)) {}

    /// Select the forward compute format. Containers forward the call to
    /// their children; layers without a quantized path ignore it.
    fn set_precision(&mut self, _p: Precision) {}

    /// Short human-readable layer name for debugging.
    fn name(&self) -> &'static str;

    /// Clone into a boxed trait object (enables `Clone` for containers).
    fn clone_box(&self) -> Box<dyn Layer>;

    /// Total scalar parameter count.
    fn param_count(&self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.numel());
        n
    }

    /// Zero all parameter gradients.
    fn zero_grad(&mut self) {
        self.visit_params_mut(&mut |p| p.zero_grad());
    }
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A layer with no parameters and no state worth naming; helper macro to
/// cut boilerplate in simple layers.
#[macro_export]
macro_rules! stateless_param_impl {
    () => {
        fn visit_params(&self, _f: &mut dyn FnMut(&$crate::param::Param)) {}
        fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut $crate::param::Param)) {}
    };
}
