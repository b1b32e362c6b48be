//! Group normalization (Wu & He 2018) over `[N, C, H, W]` activations.
//!
//! GroupNorm normalizes over channel groups *within each sample*, so it
//! carries no running statistics — which makes it the standard batch-norm
//! replacement in federated learning, where client batch statistics clash
//! under non-IID data and stale running stats poison early-round
//! inference (both failure modes are documented in DESIGN.md). The model
//! zoo can be built with either norm via [`crate::models::NormKind`].
//! Outputs and the backward cache live in the caller's [`Workspace`], as
//! in [`crate::norm::BatchNorm2d`].

use crate::layer::Layer;
use crate::param::Param;
use kemf_tensor::workspace::Workspace;
use kemf_tensor::Tensor;

/// Per-group, per-sample normalization with learned affine parameters.
pub struct GroupNorm {
    gamma: Param, // [C]
    beta: Param,  // [C]
    groups: usize,
    channels: usize,
    eps: f32,
    /// (x_hat, inv_std per (n, group)) cached for backward.
    cache: Option<(Tensor, Vec<f32>)>,
}

impl GroupNorm {
    /// New GroupNorm over `channels` maps in `groups` groups; `channels`
    /// must divide evenly.
    pub fn new(groups: usize, channels: usize) -> Self {
        assert!(groups > 0 && channels.is_multiple_of(groups), "channels {channels} not divisible by groups {groups}");
        GroupNorm {
            gamma: Param::new(Tensor::ones(&[channels])),
            beta: Param::new(Tensor::zeros(&[channels])),
            groups,
            channels,
            eps: 1e-5,
            cache: None,
        }
    }

    /// Convenience: ≤4 channels per group (2 groups minimum when possible).
    pub fn with_default_groups(channels: usize) -> Self {
        let mut groups = (channels / 4).max(1);
        while !channels.is_multiple_of(groups) {
            groups -= 1;
        }
        GroupNorm::new(groups, channels)
    }
}

impl Layer for GroupNorm {
    fn forward(&mut self, x: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let (n, c, h, w) = x.shape().as_nchw();
        assert_eq!(c, self.channels, "GroupNorm expected {} channels, got {c}", self.channels);
        let cpg = c / self.groups; // channels per group
        let group_len = cpg * h * w;
        let mut y = ws.take_tensor(x.dims());
        let mut x_hat = ws.take_tensor(x.dims());
        let mut inv_stds = ws.take(n * self.groups);
        let src = x.data();
        let gamma = self.gamma.value.data();
        let beta = self.beta.value.data();
        for ni in 0..n {
            for g in 0..self.groups {
                let base = (ni * c + g * cpg) * h * w;
                let slice = &src[base..base + group_len];
                let mean = slice.iter().map(|&v| v as f64).sum::<f64>() / group_len as f64;
                let var = slice.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>()
                    / group_len as f64;
                let inv_std = (1.0 / (var + self.eps as f64).sqrt()) as f32;
                inv_stds[ni * self.groups + g] = inv_std;
                let mean = mean as f32;
                for ch_in_g in 0..cpg {
                    let ch = g * cpg + ch_in_g;
                    let (gm, bt) = (gamma[ch], beta[ch]);
                    let off = (ni * c + ch) * h * w;
                    for ((&sv, xv), yv) in src[off..off + h * w]
                        .iter()
                        .zip(x_hat.data_mut()[off..off + h * w].iter_mut())
                        .zip(y.data_mut()[off..off + h * w].iter_mut())
                    {
                        let xh = (sv - mean) * inv_std;
                        *xv = xh;
                        *yv = gm * xh + bt;
                    }
                }
            }
        }
        if train {
            self.cache = Some((x_hat, inv_stds));
        } else {
            ws.recycle_tensor(x_hat);
            ws.recycle(inv_stds);
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let (x_hat, inv_stds) =
            self.cache.take().expect("GroupNorm::backward without forward(train)");
        let (n, c, h, w) = x_hat.shape().as_nchw();
        let cpg = c / self.groups;
        let group_len = (cpg * h * w) as f32;
        let plane = h * w;
        let go = grad_out.data();
        let xh = x_hat.data();
        // Parameter gradients (per channel, over all samples).
        for ch in 0..c {
            let mut dg = 0.0f64;
            let mut db = 0.0f64;
            for ni in 0..n {
                let off = (ni * c + ch) * plane;
                for i in off..off + plane {
                    dg += (go[i] as f64) * (xh[i] as f64);
                    db += go[i] as f64;
                }
            }
            self.gamma.grad.data_mut()[ch] += dg as f32;
            self.beta.grad.data_mut()[ch] += db as f32;
        }
        // Input gradient, group by group (same algebra as batch norm but
        // statistics are per (sample, group)).
        let gamma = self.gamma.value.data();
        let mut gx = ws.take_tensor(x_hat.dims());
        for ni in 0..n {
            for g in 0..self.groups {
                let inv_std = inv_stds[ni * self.groups + g];
                // Sums of γ·go and γ·go·x̂ over the group.
                let mut sum_gg = 0.0f64;
                let mut sum_ggx = 0.0f64;
                for ch_in_g in 0..cpg {
                    let ch = g * cpg + ch_in_g;
                    let off = (ni * c + ch) * plane;
                    for i in off..off + plane {
                        let v = (gamma[ch] * go[i]) as f64;
                        sum_gg += v;
                        sum_ggx += v * (xh[i] as f64);
                    }
                }
                let mean_gg = (sum_gg / group_len as f64) as f32;
                let mean_ggx = (sum_ggx / group_len as f64) as f32;
                for ch_in_g in 0..cpg {
                    let ch = g * cpg + ch_in_g;
                    let off = (ni * c + ch) * plane;
                    for i in off..off + plane {
                        gx.data_mut()[i] =
                            inv_std * (gamma[ch] * go[i] - mean_gg - xh[i] * mean_ggx);
                    }
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

    fn name(&self) -> &'static str {
        "GroupNorm"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl Clone for GroupNorm {
    fn clone(&self) -> Self {
        GroupNorm {
            gamma: self.gamma.clone(),
            beta: self.beta.clone(),
            groups: self.groups,
            channels: self.channels,
            eps: self.eps,
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
    fn output_is_normalized_per_sample_group() {
        let ws = &mut Workspace::new();
        let mut gn = GroupNorm::new(2, 4);
        let mut rng = seeded_rng(3);
        let x = Tensor::randn(&[2, 4, 3, 3], 2.5, &mut rng).map(|v| v + 1.0);
        let y = gn.forward(&x, true, ws);
        for ni in 0..2 {
            for g in 0..2 {
                let mut vals = Vec::new();
                for ch in (g * 2)..(g * 2 + 2) {
                    for p in 0..9 {
                        vals.push(y.data()[(ni * 4 + ch) * 9 + p]);
                    }
                }
                let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
                let var: f32 =
                    vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
                assert!(mean.abs() < 1e-4, "mean {mean}");
                assert!((var - 1.0).abs() < 1e-2, "var {var}");
            }
        }
    }

    #[test]
    fn eval_equals_train_no_running_stats() {
        // GroupNorm's whole point in FL: inference needs no statistics.
        let ws = &mut Workspace::new();
        let mut gn = GroupNorm::new(2, 4);
        let mut rng = seeded_rng(4);
        let x = Tensor::randn(&[1, 4, 3, 3], 1.0, &mut rng);
        let a = gn.forward(&x, true, ws);
        let b = gn.forward(&x, false, ws);
        kemf_tensor::assert_close(a.data(), b.data(), 1e-6);
    }

    #[test]
    fn independent_of_other_samples_in_batch() {
        // Per-sample normalization: sample 0's output must not change when
        // sample 1 changes (unlike batch norm).
        let ws = &mut Workspace::new();
        let mut gn = GroupNorm::new(1, 2);
        let mut rng = seeded_rng(5);
        let a = Tensor::randn(&[2, 2, 2, 2], 1.0, &mut rng);
        let mut b = a.clone();
        for v in &mut b.data_mut()[8..] {
            *v += 100.0;
        }
        let ya = gn.forward(&a, false, ws);
        let yb = gn.forward(&b, false, ws);
        kemf_tensor::assert_close(&ya.data()[..8], &yb.data()[..8], 1e-5);
    }

    #[test]
    fn gradcheck() {
        let mut gn = GroupNorm::new(2, 4);
        grad_check(&mut gn, &[2, 4, 2, 2], 1e-2, 3e-2);
    }

    #[test]
    fn default_groups_divide_channels() {
        for c in [1usize, 2, 3, 4, 6, 8, 12, 16, 20] {
            let gn = GroupNorm::with_default_groups(c);
            assert_eq!(gn.channels % gn.groups, 0, "channels {c}");
        }
    }

    #[test]
    #[should_panic]
    fn rejects_indivisible_groups() {
        GroupNorm::new(3, 4);
    }
}
