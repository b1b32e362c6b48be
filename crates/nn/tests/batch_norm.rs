//! `BatchNorm2d`'s per-channel sums run several channels' chains in one
//! vector on the AVX2 and AVX-512 tiers (`kemf_tensor::ops::channel_sums`)
//! and the plain loop on the scalar one. None of it may change a bit. The
//! reference below is the layer's training forward and backward as they
//! were written with one f64 chain per channel, a channel at a time. The
//! layer must match it exactly — its output, running statistics, input
//! gradient and `γ`/`β` gradients — natively and under `ScalarGuard`:
//!
//! * on 1, 3, 4, 5, 8, 17 and 64 channels — single channels, a partial
//!   group of four, whole and ragged groups of eight;
//! * on 1×1, 3×3 and 16×16 planes — none, some and many whole quads of
//!   pixels;
//! * with `+∞`, `−∞` and `NaN` among the inputs and the output gradients,
//!   and with `±2⁶⁰` in two images of a channel, which absorb and then
//!   cancel what the sum held between them: where the order of the adds
//!   decides the bits. (An f64 sum of a few hundred ordinary f32 values is
//!   exact, in any order.)

use kemf_nn::layer::{Layer, Mode};
use kemf_nn::norm::BatchNorm2d;
use kemf_tensor::rng::seeded_rng;
use kemf_tensor::simd::ScalarGuard;
use kemf_tensor::workspace::Workspace;
use kemf_tensor::Tensor;

const CHANNELS: [usize; 7] = [1, 3, 4, 5, 8, 17, 64];
const PLANES: [(usize, usize); 3] = [(1, 1), (3, 3), (16, 16)];
const EPS: f32 = 1e-5;
const MOMENTUM: f32 = 0.1;

/// Bit patterns, every NaN as one: Rust leaves the sign and payload of a
/// NaN an operation produces unspecified, and the compiler may commute an
/// add — so where two NaNs meet in one sum (`∞·0` and a NaN input), which
/// one it carries on is not the program's. Every other bit stays pinned.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
}

/// `(Σ a, Σ a·b)` of channel `ch`: one f64 chain each, image by image,
/// pixel by pixel.
fn plain_sums(a: &[f32], b: &[f32], n: usize, c: usize, plane: usize, ch: usize) -> (f64, f64) {
    let (mut sum, mut dot) = (0.0f64, 0.0f64);
    for ni in 0..n {
        let base = (ni * c + ch) * plane;
        for i in base..base + plane {
            sum += a[i] as f64;
            dot += (a[i] as f64) * (b[i] as f64);
        }
    }
    (sum, dot)
}

/// y, running mean, running variance, gx, dγ, dβ of a training forward and
/// backward from fresh running statistics, a channel at a time.
fn reference(x: &Tensor, g: &Tensor, gamma: &[f32], beta: &[f32]) -> [Vec<u32>; 6] {
    let (n, c, h, w) = x.shape().as_nchw();
    let plane = h * w;
    let count = (n * plane) as f32;
    let (xs, gs) = (x.data(), g.data());
    let (mut y, mut x_hat, mut gx) = (vec![0.0f32; xs.len()], vec![0.0f32; xs.len()], vec![0.0f32; xs.len()]);
    let (mut running_mean, mut running_var) = (vec![0.0f32; c], vec![1.0f32; c]);
    let (mut dgamma, mut dbeta) = (vec![0.0f32; c], vec![0.0f32; c]);
    for ch in 0..c {
        let (sum, sq) = plain_sums(xs, xs, n, c, plane, ch);
        let mean = (sum / count as f64) as f32;
        let var = ((sq / count as f64) - (sum / count as f64).powi(2)).max(0.0) as f32;
        let inv_std = 1.0 / (var + EPS).sqrt();
        running_mean[ch] = (1.0 - MOMENTUM) * running_mean[ch] + MOMENTUM * mean;
        running_var[ch] = (1.0 - MOMENTUM) * running_var[ch] + MOMENTUM * var;
        for ni in 0..n {
            for i in (ni * c + ch) * plane..(ni * c + ch + 1) * plane {
                x_hat[i] = (xs[i] - mean) * inv_std;
                y[i] = gamma[ch] * x_hat[i] + beta[ch];
            }
        }
        let (sum_g, sum_gxh) = plain_sums(gs, &x_hat, n, c, plane, ch);
        dgamma[ch] += sum_gxh as f32;
        dbeta[ch] += sum_g as f32;
        let (scale, mean_g, mean_gxh) = (gamma[ch] * inv_std, sum_g as f32 / count, sum_gxh as f32 / count);
        for ni in 0..n {
            for i in (ni * c + ch) * plane..(ni * c + ch + 1) * plane {
                gx[i] = scale * (gs[i] - mean_g - x_hat[i] * mean_gxh);
            }
        }
    }
    [bits(&y), bits(&running_mean), bits(&running_var), bits(&gx), bits(&dgamma), bits(&dbeta)]
}

/// The same six results from the layer.
fn layer(x: &Tensor, g: &Tensor, gamma: &[f32], beta: &[f32], ws: &mut Workspace) -> [Vec<u32>; 6] {
    let mut bn = BatchNorm2d::new(x.dims()[1]);
    let mut values = [gamma, beta].into_iter();
    bn.visit_params_mut(&mut |p| p.value.data_mut().copy_from_slice(values.next().expect("γ and β")));
    let y = bn.forward(x, Mode::Train, ws);
    let gx = bn.backward(g, ws);
    let mut grads = Vec::new();
    bn.visit_params(&mut |p| grads.push(bits(p.grad.data())));
    let out = [
        bits(y.data()),
        bits(bn.running_mean().data()),
        bits(bn.running_var().data()),
        bits(gx.data()),
        grads[0].clone(),
        grads[1].clone(),
    ];
    ws.recycle_tensor(y);
    ws.recycle_tensor(gx);
    out
}

fn every_shape_matches_the_per_channel_loop(tier: &str) {
    let mut rng = seeded_rng(41);
    let mut ws = Workspace::new();
    for c in CHANNELS {
        for (h, w) in PLANES {
            let cancel = 2f32.powi(60);
            for special in [None, Some(f32::INFINITY), Some(f32::NEG_INFINITY), Some(f32::NAN), Some(cancel)] {
                let n = 3;
                let mut x = Tensor::randn(&[n, c, h, w], 2.0, &mut rng);
                let mut g = Tensor::randn(&[n, c, h, w], 1.0, &mut rng);
                let gamma = Tensor::randn(&[c], 1.0, &mut rng);
                let beta = Tensor::randn(&[c], 1.0, &mut rng);
                let plane = h * w;
                match special {
                    Some(v) if v == cancel => {
                        // The middle pixel of the last channel, in the
                        // first and the last image.
                        for (image, v) in [(0, v), (n - 1, -v)] {
                            let at = (image * c + c - 1) * plane + plane / 2;
                            x.data_mut()[at] = v;
                            g.data_mut()[at] = v;
                        }
                    }
                    Some(v) => {
                        // The last channel's second image, in the input of
                        // one pass's forward and the output gradient of
                        // another's.
                        let at = (c + c - 1) * plane + plane / 2;
                        x.data_mut()[at] = v;
                        g.data_mut()[at / 2] = v;
                    }
                    None => {}
                }
                let want = reference(&x, &g, gamma.data(), beta.data());
                let got = layer(&x, &g, gamma.data(), beta.data(), &mut ws);
                let names = ["y", "running mean", "running variance", "gx", "dγ", "dβ"];
                for (name, (a, b)) in names.iter().zip(got.iter().zip(&want)) {
                    assert!(a == b, "{tier}: {c} channels, {h}×{w}, {special:?}: {name} differs");
                }
            }
        }
    }
}

#[test]
fn interleaved_channel_sums_are_bit_identical_to_the_per_channel_loop() {
    every_shape_matches_the_per_channel_loop("native");
    let _scalar = ScalarGuard::new();
    every_shape_matches_the_per_channel_loop("scalar");
}
