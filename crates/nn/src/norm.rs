//! Batch normalization over `[N, C, H, W]` activations (per-channel).
//!
//! Training mode normalizes with batch statistics, keeps exponential
//! running statistics for inference, and caches the normalized activations
//! for the exact batch-norm backward pass. Outputs and the cache live in
//! the caller's [`Workspace`], so a steady-state step allocates nothing.
//!
//! Each pass is split over the compute width ([`par::split`]) in two
//! steps, each partitioning what it writes. The per-channel reductions —
//! batch mean and variance with the running-statistics update forward,
//! `Σ g` and `Σ g·x̂` with the `γ`/`β` gradients backward — split by
//! *channels*: a channel's f64 sums run over its images and pixels in
//! the one order they always had, on one thread. The element-wise
//! normalization (`x̂`, `y`; the input gradient) then splits by *images*,
//! each element the expression it always was. Inference is the second
//! step alone.

use crate::layer::Layer;
use crate::param::Param;
use kemf_tensor::par;
use kemf_tensor::workspace::Workspace;
use kemf_tensor::Tensor;
use std::ops::Range;

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
        let work = x.numel() as u64 * par::ELEMENT_FLOPS;
        let mut y = ws.take_tensor_unzeroed(x.dims());
        let src = x.data();
        let (gamma, beta) = (self.gamma.value.data(), self.beta.value.data());
        let (momentum, eps) = (self.momentum, self.eps);

        if train {
            let mut x_hat = ws.take_tensor_unzeroed(x.dims());
            let mut inv_stds = ws.take_unzeroed(c);
            let mut means = ws.take_unzeroed(c);
            // Batch statistics, split by channels: a channel's f64 sums run
            // over its images and pixels in order, on one thread.
            let running = (self.running_mean.data_mut(), self.running_var.data_mut());
            let stats = (&mut means[..], &mut inv_stds[..], running);
            par::split(c, work, stats, |chans, (means, inv_stds, (running_mean, running_var))| {
                for (k, ch) in chans.enumerate() {
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
                    means[k] = mean;
                    inv_stds[k] = 1.0 / (var + eps).sqrt();
                    running_mean[k] = (1.0 - momentum) * running_mean[k] + momentum * mean;
                    running_var[k] = (1.0 - momentum) * running_var[k] + momentum * var;
                }
            });
            // Normalize, split by images.
            par::split(n, work, (x_hat.data_mut(), y.data_mut()), |images, (x_hat, y)| {
                let rows = x_hat.chunks_exact_mut(plane).zip(y.chunks_exact_mut(plane));
                for ((xh, yv), (src, ch)) in rows.zip(planes(src, images, c, plane)) {
                    let (mean, inv_std, g, b) = (means[ch], inv_stds[ch], gamma[ch], beta[ch]);
                    for ((&sv, xv), yv) in src.iter().zip(xh).zip(yv) {
                        let xh = (sv - mean) * inv_std;
                        *xv = xh;
                        *yv = g * xh + b;
                    }
                }
            });
            ws.recycle(means);
            self.cache = Some((x_hat, inv_stds));
        } else {
            let (running_mean, running_var) = (self.running_mean.data(), self.running_var.data());
            par::split(n, work, y.data_mut(), |images, y| {
                for (yv, (src, ch)) in y.chunks_exact_mut(plane).zip(planes(src, images, c, plane)) {
                    let mean = running_mean[ch];
                    let inv_std = 1.0 / (running_var[ch] + eps).sqrt();
                    let (g, b) = (gamma[ch], beta[ch]);
                    for (&sv, yv) in src.iter().zip(yv) {
                        *yv = g * (sv - mean) * inv_std + b;
                    }
                }
            });
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let (x_hat, inv_stds) =
            self.cache.take().expect("BatchNorm2d::backward without forward(train)");
        let (n, c, h, w) = x_hat.shape().as_nchw();
        let plane = h * w;
        let count = (n * plane) as f32;
        let work = x_hat.numel() as u64 * par::ELEMENT_FLOPS;
        let mut gx = ws.take_tensor_unzeroed(x_hat.dims());
        let go = grad_out.data();
        let xh = x_hat.data();
        // Channel-wise sums and the coefficients they give, split by
        // channels: per channel `[γ·inv_std, mean(g), mean(g·x̂)]`.
        let mut coefs = ws.take_unzeroed(3 * c);
        let gamma = self.gamma.value.data();
        let sums = (self.gamma.grad.data_mut(), self.beta.grad.data_mut(), &mut coefs[..]);
        par::split(c, work, sums, |chans, (gamma_grad, beta_grad, coefs)| {
            for ((k, ch), coef) in chans.enumerate().zip(coefs.chunks_exact_mut(3)) {
                let mut sum_g = 0.0f64;
                let mut sum_gxh = 0.0f64;
                for ni in 0..n {
                    let base = (ni * c + ch) * plane;
                    for i in base..base + plane {
                        sum_g += go[i] as f64;
                        sum_gxh += (go[i] as f64) * (xh[i] as f64);
                    }
                }
                gamma_grad[k] += sum_gxh as f32;
                beta_grad[k] += sum_g as f32;
                coef.copy_from_slice(&[gamma[ch] * inv_stds[ch], sum_g as f32 / count, sum_gxh as f32 / count]);
            }
        });
        // The input gradient, split by images.
        par::split(n, work, gx.data_mut(), |images, gx| {
            let first = images.start * c * plane;
            for (ch_plane, gx) in gx.chunks_exact_mut(plane).enumerate() {
                let (base, ch) = (first + ch_plane * plane, ch_plane % c);
                let [scale, mean_g, mean_gxh] = [coefs[3 * ch], coefs[3 * ch + 1], coefs[3 * ch + 2]];
                for ((g, &go), &xh) in gx.iter_mut().zip(&go[base..base + plane]).zip(&xh[base..base + plane]) {
                    *g = scale * (go - mean_g - xh * mean_gxh);
                }
            }
        });
        ws.recycle(coefs);
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

/// The `(plane, channel)` pairs of `images`, in storage order: image by
/// image, channel by channel.
fn planes(src: &[f32], images: Range<usize>, c: usize, plane: usize) -> impl Iterator<Item = (&[f32], usize)> {
    src[images.start * c * plane..images.end * c * plane].chunks_exact(plane).zip((0..c).cycle())
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
