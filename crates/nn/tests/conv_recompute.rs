//! `Conv2d` keeps its input, not the patch matrix: backward lowers the
//! input a second time into the thread's lowering buffer, and the
//! input-gradient product then overwrites that buffer. Neither step may
//! change a bit. The reference below is the layer as it was written
//! while it cached `cols` from forward and gave `dcols` storage of its
//! own, spelled out over the same public kernels; the layer must match it
//! exactly on every convolution geometry of the benchmark's ResNet-20 and
//! VGG-11 (3×16×16 inputs, batch 16) — stride 2, 1×1 shortcut kernels and
//! 1×1 output planes included — on the native and on the scalar tier.

use kemf_nn::conv2d::Conv2d;
use kemf_nn::layer::Layer;
use kemf_tensor::conv::{col2im, im2col, ConvGeom};
use kemf_tensor::gemm::{gemm_ops, Accumulate, ColMajor, NchwGather, RowMajor, Store};
use kemf_tensor::rng::seeded_rng;
use kemf_tensor::simd::ScalarGuard;
use kemf_tensor::workspace::Workspace;
use kemf_tensor::Tensor;

/// (in, out, kernel, stride, pad, input hw)
const GEOMETRIES: [(usize, usize, usize, usize, usize, usize); 13] = [
    // ResNet-20, width 4: stem, stage 1, both down-sampling blocks with
    // their 1×1 stride-2 shortcuts, stages 2 and 3.
    (3, 4, 3, 1, 1, 16),
    (4, 4, 3, 1, 1, 16),
    (4, 8, 3, 2, 1, 16),
    (4, 8, 1, 2, 0, 16),
    (8, 8, 3, 1, 1, 8),
    (8, 16, 3, 2, 1, 8),
    (8, 16, 1, 2, 0, 8),
    (16, 16, 3, 1, 1, 4),
    // VGG-11, width 8: what the pooling schedule leaves, down to 1×1 planes.
    (3, 8, 3, 1, 1, 16),
    (8, 16, 3, 1, 1, 8),
    (32, 32, 3, 1, 1, 4),
    (64, 64, 3, 1, 1, 2),
    (64, 64, 3, 1, 1, 1),
];

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// (y, gx, dW, db) of the layer itself.
fn layer_pass(conv: &mut Conv2d, x: &Tensor, g: &Tensor, ws: &mut Workspace) -> [Vec<u32>; 4] {
    conv.zero_grad();
    let y = conv.forward(x, true, ws);
    let gx = conv.backward(g, ws);
    let mut grads = Vec::new();
    conv.visit_params(&mut |p| grads.push(bits(p.grad.data())));
    let out = [bits(y.data()), bits(gx.data()), grads[0].clone(), grads[1].clone()];
    ws.recycle_tensor(y);
    ws.recycle_tensor(gx);
    out
}

/// The same four results from a patch matrix lowered once and kept, with
/// `dcols` in a buffer of its own.
fn cached_cols_pass(conv: &Conv2d, geom: &ConvGeom, o: usize, x: &Tensor, g: &Tensor) -> [Vec<u32>; 4] {
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

fn every_geometry_matches_the_cached_reference(tier: &str) {
    let mut rng = seeded_rng(23);
    // One workspace and one thread for the whole sweep, so every layer
    // after the first lowers into a buffer holding another layer's data.
    let mut ws = Workspace::new();
    for (c, o, k, stride, pad, hw) in GEOMETRIES {
        let mut conv = Conv2d::new(c, o, k, stride, pad, 5);
        let geom = ConvGeom { n: 16, c, h: hw, w: hw, kh: k, kw: k, stride, pad };
        let x = Tensor::randn(&[16, c, hw, hw], 1.0, &mut rng);
        let g = Tensor::randn(&[16, o, geom.oh(), geom.ow()], 1.0, &mut rng);
        let want = cached_cols_pass(&conv, &geom, o, &x, &g);
        for step in 0..2 {
            let got = layer_pass(&mut conv, &x, &g, &mut ws);
            for (name, (a, b)) in ["y", "gx", "dW", "db"].iter().zip(got.iter().zip(&want)) {
                assert!(a == b, "{tier} {c}→{o} k{k} s{stride} @{hw}, step {step}: {name} differs");
            }
        }
    }
}

#[test]
fn backward_from_the_recomputed_and_overwritten_buffer_is_bit_identical_to_cached_cols() {
    every_geometry_matches_the_cached_reference("native");
    let _scalar = ScalarGuard::new();
    every_geometry_matches_the_cached_reference("scalar");
}
