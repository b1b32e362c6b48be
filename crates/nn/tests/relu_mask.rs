//! No ReLU keeps an f32 mask. Where one follows a batch norm it is folded
//! into it (`BatchNorm2d::with_relu`), which rebuilds the mask from the
//! `x̂` it caches anyway; every other ReLU keeps one bit per element. None
//! of it may change a bit. The references below are the layers as they
//! were written: a batch norm, then a ReLU whose forward keeps an f32
//! mask — `1.0` where the input was positive, `0.0` elsewhere — and whose
//! backward multiplies the output gradient by it. Checked bit for bit:
//!
//! * the fused layer against the plain batch norm followed by that loop —
//!   output, input gradient, `γ`/`β` gradients and running statistics of a
//!   training pass, and the outputs of a `BatchStats` and an `Eval` pass;
//! * the bit-mask `ReLU` (and its residual form, `forward_sum`) against
//!   the loop, in all three modes;
//! * on fresh and on warm workspaces, natively and under `ScalarGuard`;
//! * with N = 1, 3, 16 and 17 images and planes from 1×1 to 16×16, and
//!   on lengths either side of a mask word;
//! * with `±0`, `±∞` and `NaN` among the inputs and the output gradients
//!   (a NaN compares as NaN, whatever its sign and payload), and with
//!   channels where `γ·x̂ + β` is exactly `+0` or `−0` (`γ = 0`, `β = ±0`;
//!   a constant channel, whose `x̂` is all zero).
//!
//! And the point of it: a batch-16 ResNet-20 training step takes no f32
//! buffer for a mask.

use kemf_nn::activation::ReLU;
use kemf_nn::layer::{Layer, Mode};
use kemf_nn::model::Model;
use kemf_nn::models::{Arch, ModelSpec};
use kemf_nn::norm::BatchNorm2d;
use kemf_nn::optim::{Sgd, SgdConfig};
use kemf_tensor::rng::seeded_rng;
use kemf_tensor::simd::ScalarGuard;
use kemf_tensor::workspace::Workspace;
use kemf_tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;

const IMAGES: [usize; 4] = [1, 3, 16, 17];
const PLANES: [(usize, usize); 4] = [(1, 1), (2, 2), (3, 5), (16, 16)];
const CHANNELS: usize = 6;
const SPECIALS: [f32; 5] = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];

/// Bit patterns, every NaN as one: Rust leaves the sign and payload of a
/// NaN an operation produces unspecified, and the compiler may commute an
/// add — so where two NaNs meet (`∞·0` from a masked infinite gradient,
/// and a NaN gradient), which one a sum carries on is not the program's.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
}

/// The f32-mask ReLU: output and mask.
fn relu_reference(x: &[f32]) -> (Vec<f32>, Vec<f32>) {
    let y = x.iter().map(|&v| v.max(0.0)).collect();
    let mask = x.iter().map(|&v| if v > 0.0 { 1.0 } else { 0.0 }).collect();
    (y, mask)
}

/// The f32-mask ReLU's backward.
fn relu_reference_backward(go: &[f32], mask: &[f32]) -> Vec<f32> {
    go.iter().zip(mask).map(|(&g, &m)| g * m).collect()
}

/// `n` random values with a special one every few, drawn from `SPECIALS`.
fn salted(dims: &[usize], rng: &mut StdRng) -> Tensor {
    let mut t = Tensor::randn(dims, 1.5, rng);
    for v in t.data_mut() {
        if rng.gen_range(0..7) == 0 {
            *v = SPECIALS[rng.gen_range(0..SPECIALS.len())];
        }
    }
    t
}

/// A batch-norm layer with the given `γ` and `β`.
fn batch_norm(relu: bool, gamma: &[f32], beta: &[f32]) -> BatchNorm2d {
    let mut bn = if relu { BatchNorm2d::with_relu(gamma.len()) } else { BatchNorm2d::new(gamma.len()) };
    let mut values = [gamma, beta].into_iter();
    bn.visit_params_mut(&mut |p| p.value.data_mut().copy_from_slice(values.next().expect("γ and β")));
    bn
}

/// Everything a training pass, then a `BatchStats` and an `Eval` pass,
/// produce: y, gx, dγ, dβ, running mean and variance, batch-statistics
/// output, inference output — from the fused layer, or from the plain
/// batch norm and the f32-mask loop.
fn bn_relu_bits(fused: bool, x: &Tensor, go: &Tensor, gamma: &[f32], beta: &[f32], ws: &mut Workspace) -> Vec<Vec<u32>> {
    let mut bn = batch_norm(fused, gamma, beta);
    let mut out = Vec::new();
    let y = bn.forward(x, Mode::Train, ws);
    let gx = if fused {
        out.push(bits(y.data()));
        bn.backward(go, ws)
    } else {
        let (y_relu, mask) = relu_reference(y.data());
        out.push(bits(&y_relu));
        let g = Tensor::from_vec(relu_reference_backward(go.data(), &mask), go.dims());
        bn.backward(&g, ws)
    };
    out.push(bits(gx.data()));
    bn.visit_params(&mut |p| out.push(bits(p.grad.data())));
    out.push(bits(bn.running_mean().data()));
    out.push(bits(bn.running_var().data()));
    for mode in [Mode::BatchStats, Mode::Eval] {
        let y = bn.forward(x, mode, ws);
        out.push(bits(&if fused { y.data().to_vec() } else { relu_reference(y.data()).0 }));
        ws.recycle_tensor(y);
    }
    ws.recycle_tensor(y);
    ws.recycle_tensor(gx);
    out
}

fn fused_matches_batch_norm_then_relu(tier: &str) {
    let mut rng = seeded_rng(44);
    let mut warm = Workspace::new();
    for n in IMAGES {
        for (h, w) in PLANES {
            let dims = [n, CHANNELS, h, w];
            let mut x = salted(&dims, &mut rng);
            let go = salted(&dims, &mut rng);
            let mut gamma: Vec<f32> = (0..CHANNELS).map(|_| rng.gen_range(-1.5..1.5)).collect();
            let mut beta: Vec<f32> = (0..CHANNELS).map(|_| rng.gen_range(-1.0..1.0)).collect();
            // γ·x̂ + β exactly +0 and −0: γ = 0 with β = ±0 (channels 0,
            // 1), and a constant channel with β = 0 (channel 2, x̂ = 0).
            gamma[0] = 0.0;
            beta[0] = 0.0;
            gamma[1] = 0.0;
            beta[1] = -0.0;
            beta[2] = 0.0;
            for image in 0..n {
                x.data_mut()[(image * CHANNELS + 2) * h * w..][..h * w].fill(0.75);
            }
            // Channel 3 keeps its specials; the others' inputs stay finite
            // so their statistics are.
            for image in 0..n {
                for ch in [0, 1, 4, 5] {
                    for v in &mut x.data_mut()[(image * CHANNELS + ch) * h * w..][..h * w] {
                        if !v.is_finite() {
                            *v = 0.5;
                        }
                    }
                }
            }
            let want = bn_relu_bits(false, &x, &go, &gamma, &beta, &mut Workspace::new());
            let fresh = bn_relu_bits(true, &x, &go, &gamma, &beta, &mut Workspace::new());
            // A warm workspace: another shape's buffers handed back dirty.
            let other = salted(&[n + 1, CHANNELS, h, w], &mut rng);
            let _ = bn_relu_bits(true, &other, &other, &gamma, &beta, &mut warm);
            let warmed = bn_relu_bits(true, &x, &go, &gamma, &beta, &mut warm);
            let names = ["y", "gx", "dγ", "dβ", "running mean", "running variance", "batch-stats y", "eval y"];
            for (name, ((want, fresh), warmed)) in names.iter().zip(want.iter().zip(&fresh).zip(&warmed)) {
                assert!(want == fresh, "{tier}: N={n}, {h}×{w}: fused {name} differs (fresh workspace)");
                assert!(want == warmed, "{tier}: N={n}, {h}×{w}: fused {name} differs (warm workspace)");
            }
        }
    }
}

/// y and gx of the bit-mask ReLU (`sum`: its residual form over `x` and
/// `s`) in `mode` — gx only after a training forward — against the
/// f32-mask loop over `x` (+ `s`).
fn relu_matches_loop(tier: &str, x: &Tensor, s: Option<&Tensor>, go: &Tensor, ws: &mut Workspace) {
    let input: Vec<f32> = match s {
        Some(s) => x.data().iter().zip(s.data()).map(|(&a, &b)| a + b).collect(),
        None => x.data().to_vec(),
    };
    let (want_y, mask) = relu_reference(&input);
    let want_gx = relu_reference_backward(go.data(), &mask);
    for mode in [Mode::Train, Mode::BatchStats, Mode::Eval] {
        let mut relu = ReLU::new();
        let y = match s {
            Some(s) => relu.forward_sum(x, s, mode, ws),
            None => relu.forward(x, mode, ws),
        };
        assert!(bits(y.data()) == bits(&want_y), "{tier}: {} elements, {mode:?}: y differs", x.numel());
        if mode == Mode::Train {
            let gx = relu.backward(go, ws);
            assert!(bits(gx.data()) == bits(&want_gx), "{tier}: {} elements: gx differs", x.numel());
            ws.recycle_tensor(gx);
        }
        ws.recycle_tensor(y);
    }
}

fn bit_mask_matches_f32_mask(tier: &str) {
    let mut rng = seeded_rng(45);
    let mut warm = Workspace::new();
    let mut shapes: Vec<Vec<usize>> = [1usize, 2, 63, 64, 65, 127, 128, 1000].iter().map(|&len| vec![len]).collect();
    for n in IMAGES {
        for (h, w) in PLANES {
            shapes.push(vec![n, CHANNELS, h, w]);
        }
    }
    for dims in shapes {
        let (x, s, go) = (salted(&dims, &mut rng), salted(&dims, &mut rng), salted(&dims, &mut rng));
        for residual in [None, Some(&s)] {
            relu_matches_loop(tier, &x, residual, &go, &mut Workspace::new());
            let other: Vec<usize> = dims.iter().map(|&d| d + 1).collect();
            let other = salted(&other, &mut rng);
            relu_matches_loop(tier, &other, None, &other, &mut warm);
            relu_matches_loop(tier, &x, residual, &go, &mut warm);
        }
    }
}

#[test]
fn fused_batch_norm_relu_is_bit_identical_to_batch_norm_then_relu() {
    fused_matches_batch_norm_then_relu("native");
    let _scalar = ScalarGuard::new();
    fused_matches_batch_norm_then_relu("scalar");
}

#[test]
fn bit_mask_relu_is_bit_identical_to_the_f32_mask_loop() {
    bit_mask_matches_f32_mask("native");
    let _scalar = ScalarGuard::new();
    bit_mask_matches_f32_mask("scalar");
}

/// A cold batch-16 ResNet-20 step draws 71 f32 buffers from its workspace:
/// its layers' outputs, caches and gradients, and no mask. With an f32 mask
/// per ReLU — nineteen of them, ten after a batch norm and nine after a
/// residual join — it drew 89. The nine bit masks come from the index
/// pool.
#[test]
fn a_resnet20_step_takes_no_f32_buffer_for_a_mask() {
    let mut model = Model::new(ModelSpec::scaled(Arch::ResNet20, 3, 16, 10, 11));
    let mut rng = seeded_rng(46);
    let x = Tensor::randn(&[16, 3, 16, 16], 1.0, &mut rng);
    let labels: Vec<usize> = (0..16).map(|i| i % 10).collect();
    let mut opt = Sgd::new(SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 5e-4 });
    assert!(model.train_batch(&x, &labels, &mut opt).is_finite());
    let ws = model.ws_mut();
    assert_eq!(ws.fresh_allocations(), 71, "f32 buffers of a cold ResNet-20 step");
    assert_eq!(ws.fresh_usize_allocations(), 35, "index buffers: dims and the nine bit masks");
}
