//! `Conv2d` runs all three products on the direct route on AVX-512 —
//! straight from the NCHW tensors, no patch matrix, a tile of at most 16
//! filters at a time, images in the lanes where an output plane has fewer
//! than 16 positions — and keeps its input, not the patch matrix, for the
//! weight gradient. None of it may change a bit. The reference below is
//! the layer as it was written while every product was lowered, it cached
//! `cols` from forward and gave `dcols` storage of its own, spelled out
//! over the same public kernels (`im2col`, `gemm_ops`, `col2im`). The
//! layer must match it exactly — its output in every `Mode`, both
//! gradients and the bias gradient — on the native tier (direct where it
//! is AVX-512) and on the scalar tier (lowered):
//!
//! * on every convolution geometry of the benchmark's ResNet-20 and
//!   VGG-11 (3×16×16 inputs, batch 16) — stride 2, 1×1 shortcut kernels
//!   and 1×1 output planes included — and the 2-layer CNN's 5×5 layers;
//! * on planes no multiple of 16 or 8 lanes, with one and three images and
//!   filter banks and inputs of 1 to 16 channels;
//! * on wide banks — 16, 32 and 64 input channels by 17, 24, 32 and 64
//!   filters, over one tile and across its edge — on 1×1, 2×2, 3×3, 4×4
//!   and 5×7 planes, 3×3 (padding 1) and 1×1 stride-2 kernels, and 1, 3,
//!   16, 17 and 32 images (partial and several vectors of images);
//! * with a `±∞` weight, a `NaN` weight or a `NaN` output gradient, where
//!   `0·∞` in a padding tap and the order of the adds decide the bits —
//!   on narrow banks, and on wide ones at a tile's first filter over
//!   planes whose taps land in the padding from every position (1×1).
//!
//! The weight gradient is held on its own as well, through
//! `kemf_tensor::conv::weight_grad` — direct on AVX-512 — against the
//! lowered route (`conv::weight_grad_lowered`) and the patch-matrix
//! product: on 1, 3 and 5 input channels and banks of 1,
//! 3, 12 and 16 filters, 3×3, 5×5 (padding 2) and 1×1 stride-2 kernels,
//! accumulated into a `dw` that already holds values, and with `NaN` or
//! `±∞` in the output gradient where its taps land in the padding.
//!
//! On AVX-512 a training step of ResNet-20, -32 or -44, VGG-11 or the
//! 2-layer CNN runs every product of every convolution direct: it never
//! lowers, so the lowering buffers stay empty.
//!
//! A last test holds the FLOP counter to the products a pass replaces.
//! The counter is process-wide, so the tests of this file take turns.

use kemf_nn::conv2d::Conv2d;
use kemf_nn::layer::{Layer, Mode};
use kemf_nn::model::Model;
use kemf_nn::models::{Arch, ModelSpec};
use kemf_nn::optim::{Sgd, SgdConfig};
use kemf_tensor::conv::{self, col2im, im2col, ConvGeom};
use kemf_tensor::flops;
use kemf_tensor::gemm::{gemm_ops, Accumulate, ColMajor, NchwGather, RowMajor, Store};
use kemf_tensor::rng::seeded_rng;
use kemf_tensor::simd::{self, Isa, ScalarGuard};
use kemf_tensor::workspace::Workspace;
use kemf_tensor::Tensor;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// (in, out, kernel, stride, pad, input height, input width)
type Layout = (usize, usize, usize, usize, usize, usize, usize);

const GEOMETRIES: [Layout; 15] = [
    // ResNet-20, width 4: stem, stage 1, both down-sampling blocks with
    // their 1×1 stride-2 shortcuts, stages 2 and 3.
    (3, 4, 3, 1, 1, 16, 16),
    (4, 4, 3, 1, 1, 16, 16),
    (4, 8, 3, 2, 1, 16, 16),
    (4, 8, 1, 2, 0, 16, 16),
    (8, 8, 3, 1, 1, 8, 8),
    (8, 16, 3, 2, 1, 8, 8),
    (8, 16, 1, 2, 0, 8, 8),
    (16, 16, 3, 1, 1, 4, 4),
    // VGG-11, width 8: what the pooling schedule leaves, down to 1×1 planes.
    (3, 8, 3, 1, 1, 16, 16),
    (8, 16, 3, 1, 1, 8, 8),
    (32, 32, 3, 1, 1, 4, 4),
    (64, 64, 3, 1, 1, 2, 2),
    (64, 64, 3, 1, 1, 1, 1),
    // The 2-layer CNN, width 4, on 1×12×12 inputs: 5×5 kernels, padding 2.
    (1, 8, 5, 1, 2, 12, 12),
    (8, 16, 5, 1, 2, 6, 6),
];

/// Planes that fill no whole vector of 16 or 8 lanes.
const ODD_PLANES: [(usize, usize); 4] = [(6, 6), (5, 7), (3, 3), (1, 1)];
/// (kernel, stride, pad) over them.
const ODD_KERNELS: [(usize, usize, usize); 4] = [(3, 1, 1), (3, 2, 1), (1, 2, 0), (5, 1, 2)];
/// Filter banks and input channels.
const CHANNELS: [usize; 6] = [1, 2, 3, 5, 12, 16];

/// One test at a time: the FLOP counter is process-wide.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The layer and its geometry over `n` images.
fn layer(&(c, o, k, stride, pad, h, w): &Layout, n: usize, seed: u64) -> (Conv2d, ConvGeom) {
    (Conv2d::new(c, o, k, stride, pad, seed), ConvGeom { n, c, h, w, kh: k, kw: k, stride, pad })
}

/// (y, gx, dW, db) of the layer itself, after checking that an `Eval` and
/// a `BatchStats` forward give the `Train` forward's `y`.
fn layer_pass(conv: &mut Conv2d, x: &Tensor, g: &Tensor, ws: &mut Workspace) -> [Vec<u32>; 4] {
    let mut ys = Vec::new();
    for mode in [Mode::Eval, Mode::BatchStats] {
        let y = conv.forward(x, mode, ws);
        ys.push(bits(y.data()));
        ws.recycle_tensor(y);
    }
    conv.zero_grad();
    let y = conv.forward(x, Mode::Train, ws);
    let gx = conv.backward(g, ws);
    let mut grads = Vec::new();
    conv.visit_params(&mut |p| grads.push(bits(p.grad.data())));
    let out = [bits(y.data()), bits(gx.data()), grads[0].clone(), grads[1].clone()];
    assert!(
        ys.iter().all(|y| *y == out[0]),
        "an Eval or BatchStats forward differs from the Train one"
    );
    ws.recycle_tensor(y);
    ws.recycle_tensor(gx);
    out
}

/// The same four results from a patch matrix lowered once and kept, with
/// `dcols` in a buffer of its own.
fn cached_cols_pass(
    conv: &Conv2d,
    geom: &ConvGeom,
    o: usize,
    x: &Tensor,
    g: &Tensor,
) -> [Vec<u32>; 4] {
    let mut params = Vec::new();
    conv.visit_params(&mut |p| params.push(p.value.data().to_vec()));
    let (weight, bias) = (&params[0], &params[1]);
    let (plane, ncols, patch) = (geom.oh() * geom.ow(), geom.cols(), geom.patch_len());
    let mut cols = vec![0.0f32; patch * ncols];
    im2col(x.data(), geom, &mut cols);

    let mut y_mat = vec![0.0f32; o * ncols];
    gemm_ops(
        o,
        patch,
        ncols,
        &RowMajor { data: weight, ld: patch },
        &RowMajor { data: &cols, ld: ncols },
        &mut Store { c: &mut y_mat, ldc: ncols },
    );
    let mut y = vec![0.0f32; geom.n * o * plane];
    for n in 0..geom.n {
        for oi in 0..o {
            for p in 0..plane {
                y[(n * o + oi) * plane + p] = y_mat[oi * ncols + n * plane + p] + bias[oi];
            }
        }
    }

    let g_mat = NchwGather { data: g.data(), o, plane };
    let mut dw = vec![0.0f32; o * patch];
    gemm_ops(
        o,
        ncols,
        patch,
        &g_mat,
        &ColMajor { data: &cols, ld: ncols },
        &mut Accumulate { c: &mut dw, ldc: patch },
    );
    let mut db = vec![0.0f32; o];
    for n in 0..geom.n {
        for (oi, d) in db.iter_mut().enumerate() {
            *d += g.data()[(n * o + oi) * plane..(n * o + oi + 1) * plane].iter().sum::<f32>();
        }
    }
    let mut dcols = vec![0.0f32; patch * ncols];
    gemm_ops(
        patch,
        o,
        ncols,
        &ColMajor { data: weight, ld: patch },
        &g_mat,
        &mut Store { c: &mut dcols, ldc: ncols },
    );
    let mut gx = vec![0.0f32; x.numel()];
    col2im(&dcols, geom, &mut gx);
    [bits(&y), bits(&gx), bits(&dw), bits(&db)]
}

/// Run the layer twice on `ws` (the second time on buffers another pass
/// left behind) against the reference; `what` names the case.
fn matches_reference(
    conv: &mut Conv2d,
    geom: &ConvGeom,
    x: &Tensor,
    g: &Tensor,
    ws: &mut Workspace,
    what: &str,
) {
    let o = g.dims()[1];
    let want = cached_cols_pass(conv, geom, o, x, g);
    for step in 0..2 {
        let got = layer_pass(conv, x, g, ws);
        for (name, (a, b)) in ["y", "gx", "dW", "db"].iter().zip(got.iter().zip(&want)) {
            assert!(a == b, "{what}, step {step}: {name} differs");
        }
    }
}

fn every_geometry_matches_the_cached_reference(tier: &str) {
    let mut rng = seeded_rng(23);
    // One workspace and one thread for the whole sweep, so every layer
    // after the first lowers into a buffer holding another layer's data.
    let mut ws = Workspace::new();
    for layout in GEOMETRIES {
        let (mut conv, geom) = layer(&layout, 16, 5);
        let x = Tensor::randn(&[16, geom.c, geom.h, geom.w], 1.0, &mut rng);
        let g = Tensor::randn(&[16, layout.1, geom.oh(), geom.ow()], 1.0, &mut rng);
        matches_reference(&mut conv, &geom, &x, &g, &mut ws, &format!("{tier} {layout:?}"));
    }
}

#[test]
fn backward_from_the_recomputed_and_overwritten_buffer_is_bit_identical_to_cached_cols() {
    let _serial = serial();
    every_geometry_matches_the_cached_reference("native");
    let _scalar = ScalarGuard::new();
    every_geometry_matches_the_cached_reference("scalar");
}

fn odd_shapes_match_the_cached_reference(tier: &str) {
    let mut rng = seeded_rng(29);
    let mut ws = Workspace::new();
    for (h, w) in ODD_PLANES {
        for (k, stride, pad) in ODD_KERNELS {
            for c in CHANNELS {
                for o in CHANNELS {
                    for n in [1, 3] {
                        let layout = (c, o, k, stride, pad, h, w);
                        let (mut conv, geom) = layer(&layout, n, 7);
                        let x = Tensor::randn(&[n, c, h, w], 1.0, &mut rng);
                        let g = Tensor::randn(&[n, o, geom.oh(), geom.ow()], 1.0, &mut rng);
                        let what = format!("{tier} {layout:?} n{n}");
                        matches_reference(&mut conv, &geom, &x, &g, &mut ws, &what);
                    }
                }
            }
        }
    }
}

#[test]
fn odd_planes_batches_and_channel_counts_are_bit_identical_to_cached_cols() {
    let _serial = serial();
    odd_shapes_match_the_cached_reference("native");
    let _scalar = ScalarGuard::new();
    odd_shapes_match_the_cached_reference("scalar");
}

fn special_values_match_the_cached_reference(tier: &str) {
    let mut rng = seeded_rng(31);
    let mut ws = Workspace::new();
    let layouts = [
        (3, 4, 3, 1, 1, 5, 7),
        (4, 8, 3, 2, 1, 6, 6),
        (8, 16, 1, 2, 0, 8, 8),
        (5, 12, 5, 1, 2, 3, 3),
        (16, 16, 3, 1, 1, 1, 1),
    ];
    for layout in layouts {
        for (value, in_weight) in [(f32::INFINITY, true), (f32::NAN, true), (f32::NAN, false)] {
            let (mut conv, geom) = layer(&layout, 3, 11);
            let x = Tensor::randn(&[3, geom.c, geom.h, geom.w], 1.0, &mut rng);
            let mut g = Tensor::randn(&[3, layout.1, geom.oh(), geom.ow()], 1.0, &mut rng);
            if in_weight {
                // The top-left tap of a middle channel of the second
                // filter: it lands in the padding from the top and left
                // edges, where the lowered product multiplies it by 0.
                let tap = geom.c / 2 * geom.kh * geom.kw;
                conv.visit_params_mut(&mut |p| {
                    if p.value.dims().len() == 2 {
                        let at = (layout.1 > 1) as usize * geom.patch_len() + tap;
                        p.value.data_mut()[at] = value;
                    }
                });
            } else {
                let at = g.numel() / 2;
                g.data_mut()[at] = value;
            }
            let what = format!(
                "{tier} {layout:?} {value} in the {}",
                if in_weight { "weights" } else { "gradient" }
            );
            matches_reference(&mut conv, &geom, &x, &g, &mut ws, &what);
        }
    }
}

#[test]
fn infinite_and_nan_weights_and_gradients_are_bit_identical_to_cached_cols() {
    let _serial = serial();
    special_values_match_the_cached_reference("native");
    let _scalar = ScalarGuard::new();
    special_values_match_the_cached_reference("scalar");
}

/// `dw + g · colsᵀ` from the patch matrix, spelled out.
fn patch_matrix_weight_grad(g: &[f32], o: usize, x: &[f32], geom: &ConvGeom, dw: &[f32]) -> Vec<u32> {
    let mut cols = vec![0.0f32; geom.patch_len() * geom.cols()];
    im2col(x, geom, &mut cols);
    let mut dw = dw.to_vec();
    gemm_ops(
        o,
        geom.cols(),
        geom.patch_len(),
        &NchwGather { data: g, o, plane: geom.oh() * geom.ow() },
        &ColMajor { data: &cols, ld: geom.cols() },
        &mut Accumulate { c: &mut dw, ldc: geom.patch_len() },
    );
    bits(&dw)
}

fn weight_gradients_match_the_patch_matrix(tier: &str) {
    let mut rng = seeded_rng(43);
    for c in [1, 3, 5] {
        for o in [1, 3, 12, 16] {
            for (k, stride, pad) in [(3, 1, 1), (3, 2, 1), (1, 2, 0), (5, 1, 2)] {
                for ((h, w), n) in [((8, 8), 3), ((5, 7), 1)] {
                    let geom = ConvGeom { n, c, h, w, kh: k, kw: k, stride, pad };
                    let plane = geom.oh() * geom.ow();
                    let x = Tensor::randn(&[n, c, h, w], 1.0, &mut rng);
                    let start = Tensor::randn(&[o, geom.patch_len()], 1.0, &mut rng);
                    for special in [None, Some(f32::NAN), Some(f32::INFINITY), Some(f32::NEG_INFINITY)] {
                        let mut g = Tensor::randn(&[n, o, geom.oh(), geom.ow()], 1.0, &mut rng);
                        if let Some(v) = special {
                            // The top-left output position of the last
                            // filter, whose top and left taps land in the
                            // padding where there is any (multiplied by 0
                            // there), and the last of the first image.
                            g.data_mut()[(o - 1) * plane] = v;
                            g.data_mut()[o * plane - 1] = v;
                        }
                        let what = format!("{tier} c{c} o{o} k{k} s{stride} p{pad} {h}x{w} n{n} {special:?}");
                        let want = patch_matrix_weight_grad(g.data(), o, x.data(), &geom, start.data());
                        let product = |lowered: bool| {
                            let mut dw = start.data().to_vec();
                            match lowered {
                                false => conv::weight_grad(g.data(), o, x.data(), &geom, &mut dw),
                                true => conv::weight_grad_lowered(g.data(), o, x.data(), &geom, &mut dw),
                            }
                            bits(&dw)
                        };
                        assert!(product(false) == want, "{what}: the routed weight gradient differs");
                        assert!(product(true) == want, "{what}: the lowered weight gradient differs");
                    }
                }
            }
        }
    }
}

#[test]
fn weight_gradients_of_narrow_banks_are_bit_identical_to_the_patch_matrix_product() {
    let _serial = serial();
    weight_gradients_match_the_patch_matrix("native");
    let _scalar = ScalarGuard::new();
    weight_gradients_match_the_patch_matrix("scalar");
}

/// Input channels and filter banks wider than one 16-filter tile, and
/// the planes of the wide layers: under a vector of positions (1×1, 2×2,
/// 3×3 — images in the lanes) and over one (4×4, 5×7).
const WIDE_CHANNELS: [usize; 3] = [16, 32, 64];
const WIDE_BANKS: [usize; 4] = [17, 24, 32, 64];
const WIDE_PLANES: [(usize, usize); 5] = [(1, 1), (2, 2), (3, 3), (4, 4), (5, 7)];
/// Batches under, at and past one and two vectors of images.
const WIDE_BATCHES: [usize; 5] = [1, 3, 16, 17, 32];

fn wide_banks_match_the_patch_matrix(tier: &str) {
    let mut rng = seeded_rng(59);
    let mut case = 0;
    for c in WIDE_CHANNELS {
        for o in WIDE_BANKS {
            for (h, w) in WIDE_PLANES {
                for (k, stride, pad) in [(3, 1, 1), (1, 2, 0)] {
                    // Every batch meets every plane and kernel as the
                    // banks go round.
                    let n = WIDE_BATCHES[case % WIDE_BATCHES.len()];
                    case += 1;
                    let layout = (c, o, k, stride, pad, h, w);
                    let (mut conv, geom) = layer(&layout, n, 61);
                    let x = Tensor::randn(&[n, c, h, w], 1.0, &mut rng);
                    let g = Tensor::randn(&[n, o, geom.oh(), geom.ow()], 1.0, &mut rng);
                    let what = format!("{tier} {layout:?} n{n}");
                    matches_reference(&mut conv, &geom, &x, &g, &mut Workspace::new(), &what);
                }
            }
        }
    }
}

#[test]
fn wide_banks_and_small_planes_are_bit_identical_to_the_patch_matrix() {
    let _serial = serial();
    wide_banks_match_the_patch_matrix("native");
    let _scalar = ScalarGuard::new();
    wide_banks_match_the_patch_matrix("scalar");
}

fn wide_special_values_match_the_patch_matrix(tier: &str) {
    let mut rng = seeded_rng(67);
    for (c, o, (h, w), n) in [(16, 17, (1, 1), 3), (32, 24, (2, 2), 17), (16, 32, (3, 3), 16), (64, 64, (1, 1), 32)] {
        for (value, in_weight) in
            [(f32::INFINITY, true), (f32::NEG_INFINITY, true), (f32::NAN, true), (f32::NAN, false)]
        {
            let layout = (c, o, 3, 1, 1, h, w);
            let (mut conv, geom) = layer(&layout, n, 71);
            let x = Tensor::randn(&[n, c, h, w], 1.0, &mut rng);
            let mut g = Tensor::randn(&[n, o, geom.oh(), geom.ow()], 1.0, &mut rng);
            if in_weight {
                // The top-left tap of a middle channel of filters 0, 16
                // (the first of the second tile) and the last: it lands in
                // the padding from every position of a 1×1 plane and the
                // top and left ones of the others, where the lowered
                // product multiplies it by 0.
                let (patch, tap) = (geom.patch_len(), c / 2 * 9);
                conv.visit_params_mut(&mut |p| {
                    if p.value.dims().len() == 2 {
                        for f in [0, 16, o - 1] {
                            p.value.data_mut()[f * patch + tap] = value;
                        }
                    }
                });
            } else {
                // An output of filter 16 in the last image.
                let at = ((n - 1) * o + 16) * geom.oh() * geom.ow();
                g.data_mut()[at] = value;
            }
            let what = format!("{tier} {layout:?} n{n} {value} in the {}", if in_weight { "weights" } else { "gradient" });
            matches_reference(&mut conv, &geom, &x, &g, &mut Workspace::new(), &what);
        }
    }
}

#[test]
fn infinite_and_nan_padding_taps_of_wide_banks_are_bit_identical_to_the_patch_matrix() {
    let _serial = serial();
    wide_special_values_match_the_patch_matrix("native");
    let _scalar = ScalarGuard::new();
    wide_special_values_match_the_patch_matrix("scalar");
}

#[test]
fn training_steps_never_lower_on_avx512() {
    let _serial = serial();
    if simd::isa() != Isa::Avx512 {
        return;
    }
    let mut rng = seeded_rng(47);
    let x = Tensor::randn(&[16, 3, 16, 16], 1.0, &mut rng);
    let labels: Vec<usize> = (0..16).map(|i| i % 10).collect();
    conv::release_lowering();
    for arch in [Arch::ResNet20, Arch::ResNet32, Arch::ResNet44, Arch::Vgg11, Arch::Cnn2] {
        let mut model = Model::new(ModelSpec::scaled(arch, 3, 16, 10, 3));
        let mut opt = Sgd::new(SgdConfig::default());
        model.train_batch(&x, &labels, &mut opt);
        assert_eq!(conv::lowering_held(), 0, "{arch:?}: a training step lowered");
    }
}

#[test]
fn a_training_pass_credits_the_products_it_replaces() {
    let _serial = serial();
    let mut rng = seeded_rng(37);
    let mut ws = Workspace::new();
    let odd = ODD_PLANES.iter().zip(ODD_KERNELS).map(|(&(h, w), (k, s, p))| (5, 12, k, s, p, h, w));
    for layout in GEOMETRIES.into_iter().chain(odd) {
        for n in [1, 16] {
            let (mut conv, geom) = layer(&layout, n, 13);
            let product = 2 * (layout.1 * geom.patch_len() * geom.cols()) as u64;
            let x = Tensor::randn(&[n, geom.c, geom.h, geom.w], 1.0, &mut rng);
            let g = Tensor::randn(&[n, layout.1, geom.oh(), geom.ow()], 1.0, &mut rng);

            let before = flops::total();
            let y = conv.forward(&x, Mode::Train, &mut ws);
            let gx = conv.backward(&g, &mut ws);
            assert_eq!(flops::total() - before, 3 * product, "{layout:?} n{n}: forward + backward");
            ws.recycle_tensor(y);
            ws.recycle_tensor(gx);

            let before = flops::total();
            let y = conv.forward(&x, Mode::Train, &mut ws);
            conv.backward_first(&g, &mut ws);
            assert_eq!(
                flops::total() - before,
                2 * product,
                "{layout:?} n{n}: forward + backward_first"
            );
            ws.recycle_tensor(y);
        }
    }
}
