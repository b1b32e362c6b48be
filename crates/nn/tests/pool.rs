//! `MaxPool2` picks each window's maximum with selects rather than a
//! branch per candidate — 16 windows a vector on AVX-512
//! (`kemf_tensor::ops::max_pool2`). It may not change a bit, nor which pixel the
//! gradient goes back to. The reference below is the layer's forward as it
//! was written with a data-dependent branch: the candidates top-left,
//! top-right, bottom-left, bottom-right, a later one replacing the best
//! only where it compares strictly greater — so a tie keeps the first, a
//! `NaN` never replaces and a `NaN` first candidate stays. The layer must
//! match it exactly — the pooled values and, through a backward that sends
//! a distinct gradient from every output, the argmax — natively and under
//! `ScalarGuard`:
//!
//! * on 2×2, 3×3, 5×7 and 16×16 planes (odd edges dropped) of 1, 3 and 16
//!   images — and on 4×6 and 4×64, whose rows of 3 and of 32 windows
//!   the vector kernel takes differently (or not at all);
//! * on values drawn from a handful of levels, so most windows hold ties,
//!   with `+0.0` and `−0.0` side by side (equal, so the first stays), and
//!   with `NaN`, `+∞` and `−∞` scattered among them.

use kemf_nn::layer::{Layer, Mode};
use kemf_nn::pool::MaxPool2;
use kemf_tensor::rng::seeded_rng;
use kemf_tensor::simd::ScalarGuard;
use kemf_tensor::workspace::Workspace;
use kemf_tensor::Tensor;
use rand::Rng;

const PLANES: [(usize, usize); 6] = [(2, 2), (3, 3), (5, 7), (16, 16), (4, 6), (4, 64)];
const IMAGES: [usize; 3] = [1, 3, 16];
const CHANNELS: usize = 3;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The pooled values and each output's argmax (a flat input index), the
/// candidates compared one by one with a branch.
fn reference(x: &Tensor) -> (Vec<f32>, Vec<usize>) {
    let (n, c, h, w) = x.shape().as_nchw();
    let (oh, ow, src) = (h / 2, w / 2, x.data());
    let (mut y, mut arg) = (Vec::new(), Vec::new());
    for nc in 0..n * c {
        for oy in 0..oh {
            for ox in 0..ow {
                let i00 = nc * h * w + (2 * oy) * w + 2 * ox;
                let mut best = i00;
                for i in [i00 + 1, i00 + w, i00 + w + 1] {
                    if src[i] > src[best] {
                        best = i;
                    }
                }
                y.push(src[best]);
                arg.push(best);
            }
        }
    }
    (y, arg)
}

/// The input gradient of the reference: output `k`'s gradient `go[k]`
/// added into its argmax pixel.
fn reference_backward(len: usize, arg: &[usize], go: &[f32]) -> Vec<f32> {
    let mut gx = vec![0.0f32; len];
    for (&i, &g) in arg.iter().zip(go) {
        gx[i] += g;
    }
    gx
}

/// An input of few levels — ties in most windows — with `±0.0`, `NaN` and
/// `±∞` among them.
fn input(dims: &[usize], rng: &mut impl Rng) -> Tensor {
    let specials = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
    let values = (0..dims.iter().product::<usize>())
        .map(|_| match rng.gen_range(0..10) {
            0 | 1 => specials[rng.gen_range(0..specials.len())],
            _ => rng.gen_range(-2i32..3) as f32,
        })
        .collect();
    Tensor::from_vec(values, dims)
}

/// (y, gx) of the layer: a training forward, then a backward of distinct
/// gradients, one per output.
fn layer_pass(x: &Tensor, ws: &mut Workspace) -> (Vec<u32>, Vec<u32>) {
    let mut pool = MaxPool2::new();
    let y = pool.forward(x, Mode::Train, ws);
    let go = Tensor::from_vec((1..=y.numel()).map(|k| k as f32).collect(), y.dims());
    let gx = pool.backward(&go, ws);
    let eval = pool.forward(x, Mode::Eval, ws);
    assert_eq!(bits(eval.data()), bits(y.data()), "an Eval forward differs from the Train one");
    (bits(y.data()), bits(gx.data()))
}

fn every_plane_matches_the_branching_loop(tier: &str) {
    let mut rng = seeded_rng(53);
    let mut ws = Workspace::new();
    for (h, w) in PLANES {
        for n in IMAGES {
            let x = input(&[n, CHANNELS, h, w], &mut rng);
            let (y, arg) = reference(&x);
            let go: Vec<f32> = (1..=y.len()).map(|k| k as f32).collect();
            let want = (bits(&y), bits(&reference_backward(x.numel(), &arg, &go)));
            let what = format!("{tier} {h}x{w} n{n}");
            assert!(layer_pass(&x, &mut ws) == want, "{what}: differs from the branching loop");
        }
    }
}

#[test]
fn max_pool_picks_the_branching_loops_values_and_argmax() {
    every_plane_matches_the_branching_loop("native");
    let _scalar = ScalarGuard::new();
    every_plane_matches_the_branching_loop("scalar");
}

#[test]
fn ties_zeros_and_nans_keep_the_first_candidate() {
    let ws = &mut Workspace::new();
    let nan = f32::NAN;
    // One 2×2 window per case, candidates in reading order; the expected
    // value's bits and the argmax within the window.
    let cases: [([f32; 4], f32, usize); 6] = [
        ([1.0, 1.0, 1.0, 1.0], 1.0, 0),
        ([0.0, -0.0, -0.0, 0.0], 0.0, 0),
        ([-0.0, 0.0, 0.0, -0.0], -0.0, 0),
        ([nan, 5.0, f32::INFINITY, 1.0], nan, 0),
        ([1.0, nan, 2.0, nan], 2.0, 2),
        ([f32::NEG_INFINITY, f32::NEG_INFINITY, -1.0, -1.0], -1.0, 2),
    ];
    for (window, value, at) in cases {
        let mut pool = MaxPool2::new();
        let x = Tensor::from_vec(window.to_vec(), &[1, 1, 2, 2]);
        let y = pool.forward(&x, Mode::Train, ws);
        assert_eq!(y.data()[0].to_bits(), value.to_bits(), "{window:?}");
        let gx = pool.backward(&Tensor::from_vec(vec![1.0], &[1, 1, 1, 1]), ws);
        let mut want = [0.0f32; 4];
        want[at] = 1.0;
        assert_eq!(gx.data(), &want, "{window:?}: the gradient went to another pixel");
    }
}
