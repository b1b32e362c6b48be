//! Batch normalization over `[N, C, H, W]` activations (per-channel).
//!
//! Training mode normalizes with batch statistics, keeps exponential
//! running statistics for inference, and caches the normalized activations
//! for the exact batch-norm backward pass. Outputs and the cache live in
//! the caller's [`Workspace`], so a steady-state step allocates nothing.

use crate::layer::Layer;
use crate::param::Param;
use kemf_tensor::workspace::Workspace;
use kemf_tensor::Tensor;

/// Per-channel batch normalization.
pub struct BatchNorm2d {
    gamma: Param, // [C]
    beta: Param,  // [C]
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
    channels: usize,
    /// (x_hat, inv_std) cached during training forward.
    cache: Option<(Tensor, Vec<f32>)>,
}

impl BatchNorm2d {
    /// New batch-norm layer over `channels` feature maps.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Param::new(Tensor::ones(&[channels])),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            momentum: 0.1,
            eps: 1e-5,
            channels,
            cache: None,
        }
    }

    /// Running mean (inference statistics), for tests and serialization.
    pub fn running_mean(&self) -> &Tensor {
        &self.running_mean
    }

    /// Running variance (inference statistics).
    pub fn running_var(&self) -> &Tensor {
        &self.running_var
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, x: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let (n, c, h, w) = x.shape().as_nchw();
        assert_eq!(c, self.channels, "BatchNorm2d expected {} channels, got {c}", self.channels);
        let plane = h * w;
        let count = (n * plane) as f32;
        let mut y = ws.take_tensor(x.dims());
        let src = x.data();
        let gamma = self.gamma.value.data();
        let beta = self.beta.value.data();

        if train {
            let mut x_hat = ws.take_tensor(x.dims());
            let mut inv_stds = ws.take(c);
            for ch in 0..c {
                // Batch statistics for this channel.
                let mut sum = 0.0f64;
                let mut sq = 0.0f64;
                for ni in 0..n {
                    let base = (ni * c + ch) * plane;
                    for &v in &src[base..base + plane] {
                        sum += v as f64;
                        sq += (v as f64) * (v as f64);
                    }
                }
                let mean = (sum / count as f64) as f32;
                let var = ((sq / count as f64) - (sum / count as f64).powi(2)).max(0.0) as f32;
                let inv_std = 1.0 / (var + self.eps).sqrt();
                inv_stds[ch] = inv_std;
                self.running_mean.data_mut()[ch] =
                    (1.0 - self.momentum) * self.running_mean.data()[ch] + self.momentum * mean;
                self.running_var.data_mut()[ch] =
                    (1.0 - self.momentum) * self.running_var.data()[ch] + self.momentum * var;
                let (g, b) = (gamma[ch], beta[ch]);
                for ni in 0..n {
                    let base = (ni * c + ch) * plane;
                    for ((&sv, xv), yv) in src[base..base + plane]
                        .iter()
                        .zip(x_hat.data_mut()[base..base + plane].iter_mut())
                        .zip(y.data_mut()[base..base + plane].iter_mut())
                    {
                        let xh = (sv - mean) * inv_std;
                        *xv = xh;
                        *yv = g * xh + b;
                    }
                }
            }
            self.cache = Some((x_hat, inv_stds));
        } else {
            for ch in 0..c {
                let mean = self.running_mean.data()[ch];
                let inv_std = 1.0 / (self.running_var.data()[ch] + self.eps).sqrt();
                let (g, b) = (gamma[ch], beta[ch]);
                for ni in 0..n {
                    let base = (ni * c + ch) * plane;
                    for (&sv, yv) in
                        src[base..base + plane].iter().zip(y.data_mut()[base..base + plane].iter_mut())
                    {
                        *yv = g * (sv - mean) * inv_std + b;
                    }
                }
            }
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let (x_hat, inv_stds) =
            self.cache.take().expect("BatchNorm2d::backward without forward(train)");
        let (n, c, h, w) = x_hat.shape().as_nchw();
        let plane = h * w;
        let count = (n * plane) as f32;
        let mut gx = ws.take_tensor(x_hat.dims());
        let go = grad_out.data();
        let xh = x_hat.data();
        for (ch, &inv_std) in inv_stds.iter().enumerate() {
            // Channel-wise sums needed by the batch-norm gradient.
            let mut sum_g = 0.0f64;
            let mut sum_gxh = 0.0f64;
            for ni in 0..n {
                let base = (ni * c + ch) * plane;
                for i in base..base + plane {
                    sum_g += go[i] as f64;
                    sum_gxh += (go[i] as f64) * (xh[i] as f64);
                }
            }
            self.gamma.grad.data_mut()[ch] += sum_gxh as f32;
            self.beta.grad.data_mut()[ch] += sum_g as f32;
            let gamma = self.gamma.value.data()[ch];
            let mean_g = sum_g as f32 / count;
            let mean_gxh = sum_gxh as f32 / count;
            let scale = gamma * inv_std;
            for ni in 0..n {
                let base = (ni * c + ch) * plane;
                for i in base..base + plane {
                    gx.data_mut()[i] = scale * (go[i] - mean_g - xh[i] * mean_gxh);
                }
            }
        }
        ws.recycle_tensor(x_hat);
        ws.recycle(inv_stds);
        gx
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.gamma);
        f(&self.beta);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn visit_buffers(&self, f: &mut dyn FnMut(&Tensor)) {
        f(&self.running_mean);
        f(&self.running_var);
    }

    fn visit_buffers_mut(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        f(&mut self.running_mean);
        f(&mut self.running_var);
    }

    fn name(&self) -> &'static str {
        "BatchNorm2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl Clone for BatchNorm2d {
    fn clone(&self) -> Self {
        BatchNorm2d {
            gamma: self.gamma.clone(),
            beta: self.beta.clone(),
            running_mean: self.running_mean.clone(),
            running_var: self.running_var.clone(),
            momentum: self.momentum,
            eps: self.eps,
            channels: self.channels,
            cache: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::grad_check;
    use kemf_tensor::rng::seeded_rng;

    #[test]
    fn train_output_is_normalized() {
        let ws = &mut Workspace::new();
        let mut bn = BatchNorm2d::new(2);
        let mut rng = seeded_rng(5);
        let x = Tensor::randn(&[4, 2, 3, 3], 3.0, &mut rng).map(|v| v + 2.0);
        let y = bn.forward(&x, true, ws);
        // Per-channel mean ≈ 0, var ≈ 1 after normalization with γ=1, β=0.
        let (n, c, h, w) = y.shape().as_nchw();
        for ch in 0..c {
            let mut vals = Vec::new();
            for ni in 0..n {
                for p in 0..h * w {
                    vals.push(y.data()[(ni * c + ch) * h * w + p]);
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn running_stats_track_batch_stats() {
        // After many passes over the same batch, the exponential running
        // statistics converge to the *realized* batch statistics.
        let ws = &mut Workspace::new();
        let mut bn = BatchNorm2d::new(1);
        let mut rng = seeded_rng(6);
        let x = Tensor::randn(&[8, 1, 4, 4], 2.0, &mut rng).map(|v| v + 5.0);
        let mean = x.mean();
        let var = x.data().iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / x.numel() as f32;
        for _ in 0..80 {
            let _ = bn.forward(&x, true, ws);
        }
        assert!((bn.running_mean().data()[0] - mean).abs() < 0.05, "{} vs {mean}", bn.running_mean().data()[0]);
        assert!((bn.running_var().data()[0] - var).abs() < 0.1, "{} vs {var}", bn.running_var().data()[0]);
    }

    #[test]
    fn eval_uses_running_stats() {
        let ws = &mut Workspace::new();
        let mut bn = BatchNorm2d::new(1);
        bn.running_mean = Tensor::from_vec(vec![1.0], &[1]);
        bn.running_var = Tensor::from_vec(vec![4.0], &[1]);
        let x = Tensor::from_vec(vec![3.0], &[1, 1, 1, 1]);
        let y = bn.forward(&x, false, ws);
        // (3 - 1) / 2 = 1
        assert!((y.data()[0] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn gradcheck() {
        let mut bn = BatchNorm2d::new(3);
        grad_check(&mut bn, &[4, 3, 2, 2], 1e-2, 3e-2);
    }
}
