//! Pooling layers: 2×2 max pooling (stride 2) and global average pooling.

use crate::layer::Layer;
use kemf_tensor::workspace::Workspace;
use kemf_tensor::Tensor;

/// 2×2 max pooling with stride 2. Odd trailing rows/columns are dropped
/// (floor semantics), matching the usual CIFAR model definitions.
#[derive(Clone, Default)]
pub struct MaxPool2 {
    /// Flat input index of each output's argmax, plus the input dims.
    cache: Option<(Vec<usize>, Vec<usize>)>,
}

impl MaxPool2 {
    /// New 2×2 max-pool layer.
    pub fn new() -> Self {
        MaxPool2 { cache: None }
    }
}

impl Layer for MaxPool2 {
    fn forward(&mut self, x: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let (n, c, h, w) = x.shape().as_nchw();
        let (oh, ow) = (h / 2, w / 2);
        assert!(oh > 0 && ow > 0, "MaxPool2 input {h}x{w} too small");
        let mut out = ws.take_tensor(&[n, c, oh, ow]);
        let mut arg = ws.take_usize(n * c * oh * ow);
        let src = x.data();
        let dst = out.data_mut();
        for nc in 0..n * c {
            let in_base = nc * h * w;
            let out_base = nc * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let i00 = in_base + (2 * oy) * w + 2 * ox;
                    let candidates = [i00, i00 + 1, i00 + w, i00 + w + 1];
                    let mut best = candidates[0];
                    for &i in &candidates[1..] {
                        if src[i] > src[best] {
                            best = i;
                        }
                    }
                    dst[out_base + oy * ow + ox] = src[best];
                    arg[out_base + oy * ow + ox] = best;
                }
            }
        }
        if train {
            let mut dims = ws.take_usize(4);
            dims.copy_from_slice(x.dims());
            self.cache = Some((arg, dims));
        } else {
            ws.recycle_usize(arg);
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let (arg, dims) = self.cache.take().expect("MaxPool2::backward without forward(train)");
        let mut gx = ws.take_tensor(&dims);
        let g = gx.data_mut();
        for (&idx, &go) in arg.iter().zip(grad_out.data().iter()) {
            g[idx] += go;
        }
        ws.recycle_usize(arg);
        ws.recycle_usize(dims);
        gx
    }

    crate::stateless_param_impl!();

    fn name(&self) -> &'static str {
        "MaxPool2"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(MaxPool2 { cache: None })
    }
}

/// Global average pooling: `[N, C, H, W] → [N, C]`.
#[derive(Clone, Default)]
pub struct GlobalAvgPool {
    input_dims: Option<Vec<usize>>,
}

impl GlobalAvgPool {
    /// New global average pool layer.
    pub fn new() -> Self {
        GlobalAvgPool { input_dims: None }
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, x: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let (n, c, h, w) = x.shape().as_nchw();
        let area = (h * w) as f32;
        let mut out = ws.take_tensor(&[n, c]);
        let src = x.data();
        let dst = out.data_mut();
        for nc in 0..n * c {
            let s: f32 = src[nc * h * w..(nc + 1) * h * w].iter().sum();
            dst[nc] = s / area;
        }
        if train {
            let mut dims = ws.take_usize(4);
            dims.copy_from_slice(x.dims());
            self.input_dims = Some(dims);
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let dims = self.input_dims.take().expect("GlobalAvgPool::backward without forward(train)");
        let (h, w) = (dims[2], dims[3]);
        let inv_area = 1.0 / (h * w) as f32;
        let mut gx = ws.take_tensor(&dims);
        let g = gx.data_mut();
        for (nc, &go) in grad_out.data().iter().enumerate() {
            let v = go * inv_area;
            for e in &mut g[nc * h * w..(nc + 1) * h * w] {
                *e = v;
            }
        }
        ws.recycle_usize(dims);
        gx
    }

    crate::stateless_param_impl!();

    fn name(&self) -> &'static str {
        "GlobalAvgPool"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(GlobalAvgPool { input_dims: None })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::grad_check;

    #[test]
    fn maxpool_picks_maxima() {
        let ws = &mut Workspace::new();
        let mut p = MaxPool2::new();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let y = p.forward(&x, false, ws);
        assert_eq!(y.dims(), &[1, 1, 1, 1]);
        assert_eq!(y.data(), &[4.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let ws = &mut Workspace::new();
        let mut p = MaxPool2::new();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let _ = p.forward(&x, true, ws);
        let g = p.backward(&Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]), ws);
        assert_eq!(g.data(), &[0.0, 0.0, 0.0, 5.0]);
    }

    #[test]
    fn maxpool_drops_odd_edges() {
        let ws = &mut Workspace::new();
        let mut p = MaxPool2::new();
        let x = Tensor::from_vec((0..15).map(|v| v as f32).collect(), &[1, 1, 3, 5]);
        let y = p.forward(&x, false, ws);
        assert_eq!(y.dims(), &[1, 1, 1, 2]);
    }

    #[test]
    fn maxpool_gradcheck() {
        let mut p = MaxPool2::new();
        grad_check(&mut p, &[1, 2, 4, 4], 1e-3, 5e-2);
    }

    #[test]
    fn gap_averages() {
        let ws = &mut Workspace::new();
        let mut p = GlobalAvgPool::new();
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0], &[1, 2, 2, 2]);
        let y = p.forward(&x, false, ws);
        assert_eq!(y.dims(), &[1, 2]);
        assert_eq!(y.data(), &[2.5, 10.0]);
    }

    #[test]
    fn gap_gradcheck() {
        let mut p = GlobalAvgPool::new();
        grad_check(&mut p, &[2, 3, 2, 2], 1e-2, 2e-2);
    }
}
