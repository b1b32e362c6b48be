//! Activation layers. ReLU is the only nonlinearity the FedKEMF model zoo
//! needs. Where it follows a batch norm it is folded into it
//! ([`crate::norm::BatchNorm2d::with_relu`]); the standalone [`ReLU`]
//! serves the rest — the residual join, the classifier heads, the MLP and
//! Cnn2 — and keeps its mask as bits, one per element in `usize` words
//! from the caller's [`Workspace`], 32 times less than an f32 mask. The
//! mask and all outputs are pooled through that workspace.

use crate::layer::{Layer, Mode};
use kemf_tensor::workspace::Workspace;
use kemf_tensor::Tensor;

/// Mask bits per `usize` word.
const WORD: usize = usize::BITS as usize;

/// Rectified linear unit, `y = max(x, 0)`.
#[derive(Clone, Default)]
pub struct ReLU {
    /// Bit `i % WORD` of word `i / WORD` set where input `i` was positive
    /// (pooled storage), kept by a `Mode::Train` forward.
    mask: Option<Vec<usize>>,
}

impl ReLU {
    /// New ReLU layer.
    pub fn new() -> Self {
        ReLU { mask: None }
    }

    /// `max(a + b, 0)`: the residual join and the ReLU after it in one
    /// pass, the sum never stored. The same bits as adding `b` into `a`
    /// and running [`Layer::forward`] on the result.
    pub fn forward_sum(&mut self, a: &Tensor, b: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        assert_eq!(a.dims(), b.dims(), "residual shape mismatch");
        self.pass::<true>(a, b.data(), mode, ws)
    }

    /// `y = max(a (+ b where SUM), 0)`, and its mask bits in a training
    /// forward.
    fn pass<const SUM: bool>(&mut self, a: &Tensor, b: &[f32], mode: Mode, ws: &mut Workspace) -> Tensor {
        let a_data = a.data();
        // Unused without SUM: `a` stands in so the zip runs its length.
        let b = if SUM { b } else { a_data };
        let mut y = ws.take_tensor_unzeroed(a.dims());
        let value = |x: f32, s: f32| if SUM { x + s } else { x };
        let words = y.data_mut().chunks_mut(WORD).zip(a_data.chunks(WORD).zip(b.chunks(WORD)));
        if mode.caches() {
            let mut mask = ws.take_usize(a_data.len().div_ceil(WORD));
            for ((ys, (xs, ss)), word) in words.zip(&mut mask) {
                let mut bits = 0usize;
                for (i, (yv, (&x, &s))) in ys.iter_mut().zip(xs.iter().zip(ss)).enumerate() {
                    let v = value(x, s);
                    *yv = v.max(0.0);
                    bits |= usize::from(v > 0.0) << i;
                }
                *word = bits;
            }
            if let Some(stale) = self.mask.replace(mask) {
                ws.recycle_usize(stale);
            }
        } else {
            for (ys, (xs, ss)) in words {
                for (yv, (&x, &s)) in ys.iter_mut().zip(xs.iter().zip(ss)) {
                    *yv = value(x, s).max(0.0);
                }
            }
        }
        y
    }
}

impl Layer for ReLU {
    fn forward(&mut self, x: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        self.pass::<false>(x, &[], mode, ws)
    }

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let mask = self.mask.take().expect("ReLU::backward without forward(train)");
        let go = grad_out.data();
        assert_eq!(mask.len(), go.len().div_ceil(WORD), "ReLU mask/grad size mismatch");
        let mut g = ws.take_tensor_unzeroed(grad_out.dims());
        // `go·1.0` or `go·0.0`, never a selected `+0.0`: a `−0.0`, an
        // infinite or a NaN gradient keeps the bits an f32 mask gave it.
        for ((gs, gos), &word) in g.data_mut().chunks_mut(WORD).zip(go.chunks(WORD)).zip(&mask) {
            for (i, (gv, &go)) in gs.iter_mut().zip(gos).enumerate() {
                *gv = go * ((word >> i) & 1) as f32;
            }
        }
        ws.recycle_usize(mask);
        g
    }

    crate::stateless_param_impl!();

    fn name(&self) -> &'static str {
        "ReLU"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(ReLU { mask: None })
    }
}

/// Flatten `[N, ...]` to `[N, features]`; records the input shape so the
/// backward pass can restore it.
#[derive(Clone, Default)]
pub struct Flatten {
    input_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// New flatten layer.
    pub fn new() -> Self {
        Flatten { input_dims: None }
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        let dims = x.dims();
        assert!(!dims.is_empty(), "Flatten needs at least one dimension");
        let batch = dims[0];
        let feat: usize = dims[1..].iter().product();
        if mode.caches() {
            // Set still when this layer leads a network whose training
            // step skipped it (`Sequential::backward_first`): back to the
            // pool rather than dropped.
            if let Some(stale) = self.input_dims.take() {
                ws.recycle_usize(stale);
            }
            let mut cached = ws.take_usize(dims.len());
            cached.copy_from_slice(dims);
            self.input_dims = Some(cached);
        }
        let mut y = ws.take_tensor(&[batch, feat]);
        y.data_mut().copy_from_slice(x.data());
        y
    }

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let dims = self.input_dims.take().expect("Flatten::backward without forward(train)");
        let mut g = ws.take_tensor(&dims);
        g.data_mut().copy_from_slice(grad_out.data());
        ws.recycle_usize(dims);
        g
    }

    crate::stateless_param_impl!();

    fn name(&self) -> &'static str {
        "Flatten"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(Flatten { input_dims: None })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::grad_check;

    #[test]
    fn relu_clamps_negatives() {
        let ws = &mut Workspace::new();
        let mut r = ReLU::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]);
        assert_eq!(r.forward(&x, Mode::Eval, ws).data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_backward_masks() {
        let ws = &mut Workspace::new();
        let mut r = ReLU::new();
        let x = Tensor::from_vec(vec![-1.0, 0.5, 2.0], &[3]);
        let _ = r.forward(&x, Mode::Train, ws);
        let g = r.backward(&Tensor::ones(&[3]), ws);
        assert_eq!(g.data(), &[0.0, 1.0, 1.0]);
    }

    #[test]
    fn relu_gradcheck() {
        // Keep the perturbation small relative to typical pre-activation
        // magnitudes so no element crosses the kink during the check.
        let mut r = ReLU::new();
        grad_check(&mut r, &[2, 5], 1e-3, 5e-2);
    }

    #[test]
    fn relu_workspace_path_is_pooled() {
        let mut r = ReLU::new();
        let mut ws = Workspace::new();
        let x = Tensor::from_vec(vec![-1.0, 0.5, 2.0, -0.2], &[4]);
        for _ in 0..3 {
            let y = r.forward(&x, Mode::Train, &mut ws);
            let g = r.backward(&y, &mut ws);
            ws.recycle_tensor(y);
            ws.recycle_tensor(g);
        }
        // Warm-up: y and g; the mask bits and both dims come from the
        // index pool.
        assert_eq!(ws.fresh_allocations(), 2);
        assert_eq!(ws.fresh_usize_allocations(), 3);
    }

    #[test]
    fn flatten_roundtrip() {
        let ws = &mut Workspace::new();
        let mut f = Flatten::new();
        let x = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 2, 2]);
        let y = f.forward(&x, Mode::Train, ws);
        assert_eq!(y.dims(), &[2, 12]);
        let g = f.backward(&y, ws);
        assert_eq!(g.dims(), &[2, 3, 2, 2]);
        assert_eq!(g.data(), x.data());
    }
}
