//! Activation layers. ReLU is the only nonlinearity the FedKEMF model zoo
//! needs; it caches a 0/1 mask during training for the backward pass. The
//! mask and all outputs are pooled through the caller's [`Workspace`].
//! Both passes split by element ranges over the compute width
//! ([`par::split`]) where they clear its floor.

use crate::layer::Layer;
use kemf_tensor::par;
use kemf_tensor::workspace::Workspace;
use kemf_tensor::Tensor;

/// Rectified linear unit, `y = max(x, 0)`.
#[derive(Clone, Default)]
pub struct ReLU {
    /// 1.0 where the input was positive, 0.0 elsewhere (pooled storage).
    mask: Option<Vec<f32>>,
}

impl ReLU {
    /// New ReLU layer.
    pub fn new() -> Self {
        ReLU { mask: None }
    }
}

impl Layer for ReLU {
    fn forward(&mut self, x: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let (len, xd) = (x.numel(), x.data());
        let work = len as u64 * par::ELEMENT_FLOPS;
        let mut y = ws.take_tensor_unzeroed(x.dims());
        if train {
            let mut mask = ws.take_unzeroed(len);
            par::split(len, work, (y.data_mut(), &mut mask[..]), |r, (y, mask)| {
                for ((yv, mv), &xv) in y.iter_mut().zip(mask).zip(&xd[r]) {
                    *yv = xv.max(0.0);
                    *mv = if xv > 0.0 { 1.0 } else { 0.0 };
                }
            });
            self.mask = Some(mask);
        } else {
            par::split(len, work, y.data_mut(), |r, y| {
                for (yv, &xv) in y.iter_mut().zip(&xd[r]) {
                    *yv = xv.max(0.0);
                }
            });
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let mask = self.mask.take().expect("ReLU::backward without forward(train)");
        let (len, go) = (grad_out.numel(), grad_out.data());
        assert_eq!(mask.len(), len, "ReLU mask/grad size mismatch");
        let mut g = ws.take_tensor_unzeroed(grad_out.dims());
        par::split(len, len as u64 * par::ELEMENT_FLOPS, g.data_mut(), |r, g| {
            for ((gv, &go), &m) in g.iter_mut().zip(&go[r.clone()]).zip(&mask[r]) {
                *gv = go * m;
            }
        });
        ws.recycle(mask);
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
    fn forward(&mut self, x: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let dims = x.dims();
        assert!(!dims.is_empty(), "Flatten needs at least one dimension");
        let batch = dims[0];
        let feat: usize = dims[1..].iter().product();
        if train {
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
        assert_eq!(r.forward(&x, false, ws).data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_backward_masks() {
        let ws = &mut Workspace::new();
        let mut r = ReLU::new();
        let x = Tensor::from_vec(vec![-1.0, 0.5, 2.0], &[3]);
        let _ = r.forward(&x, true, ws);
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
            let y = r.forward(&x, true, &mut ws);
            let g = r.backward(&y, &mut ws);
            ws.recycle_tensor(y);
            ws.recycle_tensor(g);
        }
        // Warm-up: y, mask, g.
        assert_eq!(ws.fresh_allocations(), 3);
    }

    #[test]
    fn flatten_roundtrip() {
        let ws = &mut Workspace::new();
        let mut f = Flatten::new();
        let x = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 2, 2]);
        let y = f.forward(&x, true, ws);
        assert_eq!(y.dims(), &[2, 12]);
        let g = f.backward(&y, ws);
        assert_eq!(g.dims(), &[2, 3, 2, 2]);
        assert_eq!(g.data(), x.data());
    }
}
