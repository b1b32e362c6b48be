//! [`Model`]: a network paired with its [`ModelSpec`], plus the training
//! and evaluation entry points the federated layer drives.
//!
//! [`Model::train_step`] is the training step of the whole stack: local
//! SGD, FedMD digestion and server-side ensemble distillation all call it
//! with their own loss; only deep mutual learning (`kemf_core::dml`), which
//! crosses two networks' logits inside one step, writes the sequence out.

use crate::layer::{Layer, Mode};
use crate::loss::{accuracy, cross_entropy_ws};
use crate::models::ModelSpec;
use crate::optim::Sgd;
use crate::sequential::Sequential;
use crate::serialize::{LayoutError, ModelState, Weights};
use kemf_tensor::workspace::Workspace;
use kemf_tensor::Tensor;

/// A concrete, trainable network instance. Owns a [`Workspace`] that all
/// its forward/backward passes draw scratch buffers from, so repeated
/// training steps on stable shapes allocate nothing after the first.
pub struct Model {
    net: Sequential,
    spec: ModelSpec,
    ws: Workspace,
}

impl Clone for Model {
    fn clone(&self) -> Self {
        // The workspace is per-instance scratch, never cloned state.
        Model { net: self.net.clone(), spec: self.spec, ws: Workspace::new() }
    }
}

impl Model {
    /// Build a fresh model from a spec.
    pub fn new(spec: ModelSpec) -> Self {
        Model { net: spec.build(), spec, ws: Workspace::new() }
    }

    /// Build the model of `spec` holding `state`: what
    /// `Model::new(spec)` followed by `set_state(state)` arrives at,
    /// without drawing the initialization that `set_state` would
    /// overwrite (a normal deviate per weight — milliseconds on the wider
    /// specs, paid per client per round). The state's layout is held
    /// against the spec's first; a state from another architecture or
    /// width is an error here rather than a panic inside `set_state`.
    pub fn from_state(spec: ModelSpec, state: &ModelState) -> Result<Self, LayoutError> {
        let mut net = spec.build_zeroed();
        state.check_layout(&net)?;
        state.apply_to(&mut net);
        Ok(Model { net, spec, ws: Workspace::new() })
    }

    /// The model's scratch-buffer pool (for callers that want to recycle
    /// tensors produced by [`Model::forward`]/[`Model::backward`], or to
    /// inspect pool statistics in tests).
    pub fn ws_mut(&mut self) -> &mut Workspace {
        &mut self.ws
    }

    /// Hand a tensor produced by this model back to its pool.
    pub fn recycle(&mut self, t: Tensor) {
        self.ws.recycle_tensor(t);
    }

    /// The spec this model was built from.
    pub fn spec(&self) -> &ModelSpec {
        &self.spec
    }

    /// Mutable access to the underlying network.
    pub fn net_mut(&mut self) -> &mut Sequential {
        &mut self.net
    }

    /// Immutable access to the underlying network.
    pub fn net(&self) -> &Sequential {
        &self.net
    }

    /// Trainable scalar count.
    pub fn param_count(&self) -> usize {
        self.net.param_count()
    }

    /// Payload size of this model's weights in bytes (fp32).
    pub fn bytes(&self) -> usize {
        self.param_count() * 4
    }

    /// Forward pass in `mode` (scratch and output storage from the
    /// model's pool). A `bool` is accepted for `mode`: `true` is
    /// [`Mode::Train`], `false` [`Mode::Eval`].
    pub fn forward(&mut self, x: &Tensor, mode: impl Into<Mode>) -> Tensor {
        self.net.forward(x, mode.into(), &mut self.ws)
    }

    /// Backward pass (after a [`Mode::Train`] forward).
    pub fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.net.backward(grad, &mut self.ws)
    }

    /// Backward pass of a training step: parameter gradients only. The
    /// gradient with respect to the batch is not computed — the first
    /// layer skips the products that only feed it
    /// ([`Layer::backward_first`]).
    pub fn backward_params(&mut self, grad: &Tensor) {
        self.net.backward_first(grad, &mut self.ws);
    }

    /// Zero parameter gradients.
    pub fn zero_grad(&mut self) {
        self.net.zero_grad();
    }

    /// Select the forward compute format for every layer (see
    /// [`crate::layer::Precision`]). `Int8` is an inference-only
    /// approximation; callers that train afterwards must switch back to
    /// `F32`.
    pub fn set_precision(&mut self, p: crate::layer::Precision) {
        self.net.set_precision(p);
    }

    /// Snapshot the weights.
    pub fn weights(&self) -> Weights {
        Weights::from_layer(&self.net)
    }

    /// Restore weights from a snapshot.
    pub fn set_weights(&mut self, w: &Weights) {
        w.apply_to(&mut self.net);
    }

    /// Snapshot the full transmitted state (weights + batch-norm running
    /// statistics) — what federated algorithms put on the wire.
    pub fn state(&self) -> ModelState {
        ModelState::from_layer(&self.net)
    }

    /// Restore a full transmitted state.
    pub fn set_state(&mut self, s: &ModelState) {
        s.apply_to(&mut self.net);
    }

    /// Transmitted size in bytes of the full state.
    pub fn state_bytes(&self) -> usize {
        self.state().bytes()
    }

    /// One optimizer step on a batch: `zero_grad → forward → loss →
    /// backward → before_update → opt.step`; returns the loss value.
    ///
    /// `loss` maps the logits to `(value, ∂value/∂logits)` with the gradient
    /// drawn from the workspace it is handed (`cross_entropy_ws`,
    /// `kl_to_target_ws`); `before_update` sees the accumulated parameter
    /// gradients before the optimizer does (proximal terms, control
    /// variates, `clip_grad_norm`). The gradient with respect to `x` is
    /// not computed ([`Model::backward_params`]); every temporary — logits,
    /// loss gradient — returns to the model's pool, so a steady-state
    /// step performs no heap allocation.
    pub fn train_step(
        &mut self,
        x: &Tensor,
        opt: &mut Sgd,
        loss: impl FnOnce(&Tensor, &mut Workspace) -> (f32, Tensor),
        before_update: impl FnOnce(&mut Sequential),
    ) -> f32 {
        self.zero_grad();
        let logits = self.net.forward(x, Mode::Train, &mut self.ws);
        let (loss, grad) = loss(&logits, &mut self.ws);
        self.ws.recycle_tensor(logits);
        self.backward_params(&grad);
        self.ws.recycle_tensor(grad);
        before_update(&mut self.net);
        opt.step(&mut self.net);
        loss
    }

    /// [`Model::train_step`] with softmax cross-entropy against `labels`:
    /// one supervised SGD step.
    pub fn train_batch(&mut self, x: &Tensor, labels: &[usize], opt: &mut Sgd) -> f32 {
        self.train_step(x, opt, |logits, ws| cross_entropy_ws(logits, labels, ws), |_| {})
    }

    /// Inference logits for a batch ([`Mode::Eval`]).
    pub fn predict(&mut self, x: &Tensor) -> Tensor {
        self.net.forward(x, Mode::Eval, &mut self.ws)
    }

    /// Inference logits using **batch statistics** ([`Mode::BatchStats`]).
    /// Needed when a model has taken too few optimizer steps for its
    /// batch-norm running statistics to be trustworthy — e.g. knowledge
    /// networks acting as distillation teachers right after a short local
    /// update. The logits are a training forward's, bit for bit, and the
    /// running statistics move as a training forward moves them; no layer
    /// caches anything for a backward, so what the model holds afterwards
    /// above its parameters is its workspace pool — a few activations at
    /// `x`'s batch size.
    pub fn predict_batch_stats(&mut self, x: &Tensor) -> Tensor {
        self.net.forward(x, Mode::BatchStats, &mut self.ws)
    }

    /// Free everything this model holds besides its parameters and
    /// buffers: its workspace pool, any backward cache a training forward
    /// left, and the calling thread's convolution lowering buffer (every
    /// helper's, called outside a share). Tensors the model has handed
    /// out stay valid. The freed memory stays in the allocator's arena
    /// for whatever runs next to reuse, so this lowers the peak rather
    /// than what the process holds. The next pass warms the pools again,
    /// so this belongs after the last pass of a kind (a teacher's logits,
    /// a server-side evaluation), not between training steps.
    pub fn release_scratch(&mut self) {
        // A clone is exactly that: same parameters, empty caches and pool.
        *self = self.clone();
        kemf_tensor::conv::release_lowering();
    }

    /// Top-1 accuracy over a dataset, evaluated in mini-batches to bound
    /// memory.
    pub fn evaluate(&mut self, images: &Tensor, labels: &[usize], batch: usize) -> f32 {
        let n = labels.len();
        assert_eq!(images.dims()[0], n, "image/label count mismatch");
        if n == 0 {
            return 0.0;
        }
        let batch = batch.max(1);
        let mut correct = 0.0f32;
        let mut start = 0;
        while start < n {
            let end = (start + batch).min(n);
            let xb = images.slice_rows(start, end);
            let logits = self.predict(&xb);
            correct += accuracy(&logits, &labels[start..end]) * (end - start) as f32;
            self.ws.recycle_tensor(logits);
            start = end;
        }
        correct / n as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::Arch;
    use crate::optim::SgdConfig;
    use kemf_tensor::rng::seeded_rng;

    fn toy_spec() -> ModelSpec {
        ModelSpec::scaled(Arch::Cnn2, 1, 8, 2, 3)
    }

    #[test]
    fn clone_is_deep() {
        let m = Model::new(toy_spec());
        let mut c = m.clone();
        let w0 = m.weights();
        c.set_weights(&w0.zeros_like());
        assert_eq!(m.weights().values, w0.values);
    }

    #[test]
    fn weight_roundtrip_preserves_predictions() {
        let mut m = Model::new(toy_spec());
        let mut rng = seeded_rng(40);
        let x = Tensor::randn(&[4, 1, 8, 8], 1.0, &mut rng);
        let before = m.predict(&x);
        let snap = m.weights();
        let mut m2 = Model::new(ModelSpec { seed: 77, ..toy_spec() });
        m2.set_weights(&snap);
        let after = m2.predict(&x);
        kemf_tensor::assert_close(before.data(), after.data(), 1e-5);
    }

    #[test]
    fn training_learns_separable_toy_task() {
        // Two classes distinguished by overall brightness — a task a tiny
        // CNN must learn quickly if forward/backward/optimizer cohere.
        let mut m = Model::new(toy_spec());
        let mut opt = Sgd::new(SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 0.0 });
        let mut rng = seeded_rng(41);
        let n = 32;
        let mut imgs = Tensor::randn(&[n, 1, 8, 8], 0.3, &mut rng);
        let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
        for (i, &y) in labels.iter().enumerate() {
            let shift = if y == 0 { -1.0 } else { 1.0 };
            for v in &mut imgs.data_mut()[i * 64..(i + 1) * 64] {
                *v += shift;
            }
        }
        for _ in 0..30 {
            let _ = m.train_batch(&imgs, &labels, &mut opt);
        }
        let acc = m.evaluate(&imgs, &labels, 16);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn from_state_is_new_then_set_state_without_the_draw() {
        for arch in [Arch::Cnn2, Arch::ResNet20, Arch::Vgg11, Arch::Mlp1] {
            let spec = ModelSpec::scaled(arch, 3, 16, 10, 5);
            let state = Model::new(ModelSpec { seed: 99, ..spec }).state();
            let mut two_step = Model::new(spec);
            two_step.set_state(&state);
            let mut direct = Model::from_state(spec, &state).expect("same spec, same layout");
            assert_eq!(direct.state(), state, "{arch:?}");
            assert_eq!(direct.spec(), &spec);
            let x = Tensor::randn(&[2, 3, 16, 16], 1.0, &mut seeded_rng(43));
            assert_eq!(direct.predict(&x).data(), two_step.predict(&x).data(), "{arch:?}");
        }
    }

    #[test]
    fn from_state_refuses_a_state_of_another_layout() {
        let spec = toy_spec();
        let state = Model::new(spec).state();
        // Another width: same tensor count, other sizes.
        let wide = Model::new(ModelSpec { width: 8, ..spec }).state();
        let err = Model::from_state(spec, &wide).err().expect("layout differs");
        assert_eq!(err.section, "param");
        assert_eq!(err.found, wide.params.lens);
        assert_eq!(err.expected, state.params.lens);
        assert!(err.to_string().contains("param layout"), "{err}");
        // Buffers of a batch-norm model offered to a model without any.
        let normed = Model::new(ModelSpec::scaled(Arch::ResNet20, 1, 8, 3, 2)).state();
        let mut mixed = state.clone();
        mixed.buffers = normed.buffers;
        assert_eq!(Model::from_state(spec, &mixed).err().expect("buffers differ").section, "buffer");
        // Lens that are right over values that are short: an error here,
        // not a slice panic inside `apply_to`.
        let mut short = state.clone();
        short.params.values.pop();
        let err = Model::from_state(spec, &short).err().expect("values short");
        assert_eq!((err.section, err.values), ("param", state.params.values.len() - 1));
    }

    #[test]
    fn train_step_skips_only_the_input_gradient() {
        // The step's backward leaves the batch gradient out; parameters
        // must move exactly as with the full backward written out.
        for arch in [Arch::Cnn2, Arch::Mlp1] {
            let spec = ModelSpec::scaled(arch, 1, 8, 3, 9);
            let cfg = SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 1e-4 };
            let x = Tensor::randn(&[4, 1, 8, 8], 1.0, &mut seeded_rng(44));
            let labels = [0usize, 2, 1, 2];
            let (mut stepped, mut manual) = (Model::new(spec), Model::new(spec));
            let (mut opt_s, mut opt_m) = (Sgd::new(cfg), Sgd::new(cfg));
            for _ in 0..3 {
                let loss = stepped.train_batch(&x, &labels, &mut opt_s);
                manual.zero_grad();
                let logits = manual.forward(&x, Mode::Train);
                let (want, grad) = cross_entropy_ws(&logits, &labels, manual.ws_mut());
                let gx = manual.backward(&grad);
                assert_eq!(gx.dims(), x.dims());
                opt_m.step(manual.net_mut());
                assert_eq!(loss.to_bits(), want.to_bits(), "{arch:?}");
            }
            assert_eq!(stepped.state(), manual.state(), "{arch:?}");
        }
    }

    #[test]
    fn evaluate_handles_ragged_batches() {
        let mut m = Model::new(toy_spec());
        let mut rng = seeded_rng(42);
        let x = Tensor::randn(&[7, 1, 8, 8], 1.0, &mut rng);
        let labels = vec![0usize, 1, 0, 1, 0, 1, 0];
        let acc = m.evaluate(&x, &labels, 3);
        assert!((0.0..=1.0).contains(&acc));
    }
}
