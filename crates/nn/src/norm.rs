//! Batch normalization over `[N, C, H, W]` activations (per-channel),
//! optionally with the ReLU that follows it folded in.
//!
//! Training mode normalizes with batch statistics, keeps exponential
//! running statistics for inference, and caches the normalized activations
//! for the exact batch-norm backward pass; [`Mode::BatchStats`] does the
//! same without the cache. Outputs and the cache live in the caller's
//! [`Workspace`], so a steady-state step allocates nothing.
//!
//! Each training pass runs in two steps. The per-channel reductions —
//! batch mean and variance with the running-statistics update forward,
//! `Σ g` and `Σ g·x̂` with the `γ`/`β` gradients backward — run a
//! channel's f64 sums over its images and pixels in the one order they
//! always had ([`kemf_tensor::ops::channel_sums`]: on the vector tiers the
//! chains of four channels share a vector, in a fixed lane order, each
//! with a separate multiply and add — the plain loop's bits). The
//! element-wise normalization (`x̂`, `y`; the input gradient) then
//! computes each element as the expression it always was. Inference is
//! the second step alone.
//!
//! [`BatchNorm2d::with_relu`] is batch norm followed by a ReLU, the
//! `conv → bn → relu` of every convolution stage of the model zoo but the
//! residual join. It writes `y = (γ·x̂ + β).max(0.0)` and keeps no mask:
//! backward rebuilds it, `γ·x̂ + β > 0.0`, from the `x̂` it caches anyway
//! (the forward's own f32 multiply and add, so the same bits), and
//! multiplies the output gradient by it as the ReLU did — `go·1.0` or
//! `go·0.0` — inside the channel sums and the input-gradient pass. The
//! standalone ReLU's activation-sized f32 mask and its output and gradient
//! buffers are not taken at all.

use crate::layer::{Layer, Mode};
use crate::param::Param;
use kemf_tensor::ops::channel_sums;
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
    /// Whether the ReLU that follows is folded in.
    relu: bool,
    /// (x_hat, inv_std) cached by a `Mode::Train` forward.
    cache: Option<(Tensor, Vec<f32>)>,
}

impl BatchNorm2d {
    /// New batch-norm layer over `channels` feature maps.
    pub fn new(channels: usize) -> Self {
        Self::build(channels, false)
    }

    /// Batch norm over `channels` feature maps with the ReLU that follows
    /// it folded in: the layer is `BatchNorm2d::new` then `ReLU`, bit for
    /// bit, and holds no mask between forward and backward.
    pub fn with_relu(channels: usize) -> Self {
        Self::build(channels, true)
    }

    fn build(channels: usize, relu: bool) -> Self {
        BatchNorm2d {
            gamma: Param::new(Tensor::ones(&[channels])),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            momentum: 0.1,
            eps: 1e-5,
            channels,
            relu,
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
    fn forward(&mut self, x: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        let (n, c, h, w) = x.shape().as_nchw();
        assert_eq!(c, self.channels, "BatchNorm2d expected {} channels, got {c}", self.channels);
        let plane = h * w;
        let count = (n * plane) as f32;
        let mut y = ws.take_tensor_unzeroed(x.dims());
        let src = x.data();
        let (gamma, beta) = (self.gamma.value.data(), self.beta.value.data());
        let (momentum, eps) = (self.momentum, self.eps);

        if mode.batch_stats() {
            let mut x_hat = mode.caches().then(|| ws.take_tensor_unzeroed(x.dims()));
            let mut inv_stds = ws.take_unzeroed(c);
            let mut means = ws.take_unzeroed(c);
            // Batch statistics: a channel's f64 sums run over its images
            // and pixels in order.
            let (running_mean, running_var) = (self.running_mean.data_mut(), self.running_var.data_mut());
            channel_sums(src, None, None, c, plane, |ch, sum, sq| {
                let mean = (sum / count as f64) as f32;
                let var = ((sq / count as f64) - (sum / count as f64).powi(2)).max(0.0) as f32;
                means[ch] = mean;
                inv_stds[ch] = 1.0 / (var + eps).sqrt();
                running_mean[ch] = (1.0 - momentum) * running_mean[ch] + momentum * mean;
                running_var[ch] = (1.0 - momentum) * running_var[ch] + momentum * var;
            });
            // Normalize; `x̂` is kept only for backward.
            let (batch, x_hat_data) = ((&means[..], &inv_stds[..]), x_hat.as_mut().map(|t| t.data_mut()));
            match self.relu {
                true => normalize::<true>(src, x_hat_data, y.data_mut(), c, plane, batch, (gamma, beta)),
                false => normalize::<false>(src, x_hat_data, y.data_mut(), c, plane, batch, (gamma, beta)),
            }
            ws.recycle(means);
            match x_hat {
                Some(x_hat) => self.cache = Some((x_hat, inv_stds)),
                None => ws.recycle(inv_stds),
            }
        } else {
            let running = (self.running_mean.data(), self.running_var.data());
            match self.relu {
                true => infer::<true>(src, y.data_mut(), c, plane, eps, running, (gamma, beta)),
                false => infer::<false>(src, y.data_mut(), c, plane, eps, running, (gamma, beta)),
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
        let mut gx = ws.take_tensor_unzeroed(x_hat.dims());
        let go = grad_out.data();
        let xh = x_hat.data();
        // Channel-wise sums of the gradient (through the folded ReLU's
        // mask) and the coefficients they give: per channel
        // `[γ·inv_std, mean(g), mean(g·x̂)]`.
        let mut coefs = ws.take_unzeroed(3 * c);
        let (gamma, beta) = (self.gamma.value.data(), self.beta.value.data());
        let (gamma_grad, beta_grad) = (self.gamma.grad.data_mut(), self.beta.grad.data_mut());
        let relu = self.relu.then_some((gamma, beta));
        channel_sums(go, Some(xh), relu, c, plane, |ch, sum_g, sum_gxh| {
            gamma_grad[ch] += sum_gxh as f32;
            beta_grad[ch] += sum_g as f32;
            coefs[3 * ch..][..3].copy_from_slice(&[
                gamma[ch] * inv_stds[ch],
                sum_g as f32 / count,
                sum_gxh as f32 / count,
            ]);
        });
        match self.relu {
            true => input_grad::<true>(go, xh, gx.data_mut(), c, plane, &coefs, gamma, beta),
            false => input_grad::<false>(go, xh, gx.data_mut(), c, plane, &coefs, gamma, beta),
        }
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

/// The output of `γ·x̂ + β`: itself, or through the folded ReLU.
#[inline(always)]
fn act<const RELU: bool>(v: f32) -> f32 {
    if RELU {
        v.max(0.0)
    } else {
        v
    }
}

/// `go` through the folded ReLU's mask, rebuilt from `x̂` as forward
/// computed `γ·x̂ + β`: `go·1.0` or `go·0.0`, as the ReLU's backward
/// multiplied it.
#[inline(always)]
fn gate<const RELU: bool>(go: f32, xh: f32, g: f32, b: f32) -> f32 {
    if RELU {
        go * if g * xh + b > 0.0 { 1.0 } else { 0.0 }
    } else {
        go
    }
}

/// `y = act(γ·x̂ + β)` with `x̂ = (x − mean)·inv_std` from the batch's
/// mean and `1/σ`, `x̂` kept in `x_hat` where given. Both arms write `y`
/// from the same `x̂`.
fn normalize<const RELU: bool>(
    src: &[f32],
    x_hat: Option<&mut [f32]>,
    y: &mut [f32],
    c: usize,
    plane: usize,
    (means, inv_stds): (&[f32], &[f32]),
    (gamma, beta): (&[f32], &[f32]),
) {
    match x_hat {
        Some(x_hat) => {
            let rows = x_hat.chunks_exact_mut(plane).zip(y.chunks_exact_mut(plane));
            for ((xh, yv), (src, ch)) in rows.zip(planes(src, c, plane)) {
                let (mean, inv_std, g, b) = (means[ch], inv_stds[ch], gamma[ch], beta[ch]);
                for ((&sv, xv), yv) in src.iter().zip(xh).zip(yv) {
                    let xh = (sv - mean) * inv_std;
                    *xv = xh;
                    *yv = act::<RELU>(g * xh + b);
                }
            }
        }
        None => {
            for (yv, (src, ch)) in y.chunks_exact_mut(plane).zip(planes(src, c, plane)) {
                let (mean, inv_std, g, b) = (means[ch], inv_stds[ch], gamma[ch], beta[ch]);
                for (&sv, yv) in src.iter().zip(yv) {
                    let xh = (sv - mean) * inv_std;
                    *yv = act::<RELU>(g * xh + b);
                }
            }
        }
    }
}

/// Inference: `y = act(γ·(x − mean)·inv_std + β)` from the running mean
/// and variance.
fn infer<const RELU: bool>(
    src: &[f32],
    y: &mut [f32],
    c: usize,
    plane: usize,
    eps: f32,
    (means, vars): (&[f32], &[f32]),
    (gamma, beta): (&[f32], &[f32]),
) {
    for (yv, (src, ch)) in y.chunks_exact_mut(plane).zip(planes(src, c, plane)) {
        let mean = means[ch];
        let inv_std = 1.0 / (vars[ch] + eps).sqrt();
        let (g, b) = (gamma[ch], beta[ch]);
        for (&sv, yv) in src.iter().zip(yv) {
            *yv = act::<RELU>(g * (sv - mean) * inv_std + b);
        }
    }
}

/// The input gradient `scale·(g − mean(g) − x̂·mean(g·x̂))`, `g` the output
/// gradient through the folded ReLU's mask; `coefs` holds per channel
/// `[scale, mean(g), mean(g·x̂)]`.
#[allow(clippy::too_many_arguments)]
fn input_grad<const RELU: bool>(
    go: &[f32],
    xh: &[f32],
    gx: &mut [f32],
    c: usize,
    plane: usize,
    coefs: &[f32],
    gamma: &[f32],
    beta: &[f32],
) {
    for (ch_plane, gx) in gx.chunks_exact_mut(plane).enumerate() {
        let (base, ch) = (ch_plane * plane, ch_plane % c);
        let [scale, mean_g, mean_gxh] = [coefs[3 * ch], coefs[3 * ch + 1], coefs[3 * ch + 2]];
        let (g, b) = (gamma[ch], beta[ch]);
        for ((gv, &go), &xh) in gx.iter_mut().zip(&go[base..base + plane]).zip(&xh[base..base + plane]) {
            *gv = scale * (gate::<RELU>(go, xh, g, b) - mean_g - xh * mean_gxh);
        }
    }
}

/// The `(plane, channel)` pairs of `src`, in storage order: image by
/// image, channel by channel.
fn planes(src: &[f32], c: usize, plane: usize) -> impl Iterator<Item = (&[f32], usize)> {
    src.chunks_exact(plane).zip((0..c).cycle())
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
            relu: self.relu,
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
        let y = bn.forward(&x, Mode::Train, ws);
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
            let _ = bn.forward(&x, Mode::Train, ws);
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
        let y = bn.forward(&x, Mode::Eval, ws);
        // (3 - 1) / 2 = 1
        assert!((y.data()[0] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn gradcheck() {
        let mut bn = BatchNorm2d::new(3);
        grad_check(&mut bn, &[4, 3, 2, 2], 1e-2, 3e-2);
    }
}
