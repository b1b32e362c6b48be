//! 2-D convolution, lowered to matrix multiplication through `im2col`.
//!
//! The filter bank is stored as a `[O, C·KH·KW]` matrix so the forward pass
//! is one GEMM, the weight gradient a second, and the input gradient a
//! third followed by a `col2im` scatter. All three products run on the
//! packed engine in `kemf_tensor::gemm`, every operand a typed view of the
//! storage it already lives in — nothing is reordered or staged:
//!
//! * forward `W · cols`: both row-major as stored; the bias-add and the
//!   `[O, N·OH·OW] → [N, O, OH, OW]` reorder are the GEMM epilogue
//!   (`NchwScatterBias`), and with `O ≤ 16` the engine's widest kernel
//!   reads `cols` in place instead of packing it;
//! * weight gradient `g · colsᵀ`: the incoming `[N, O, OH, OW]` gradient
//!   through `NchwGather`, `cols` as a column-major view, accumulated
//!   straight into `weight.grad`;
//! * input gradient `Wᵀ · g`: the filters as a column-major view, the
//!   gradient through `NchwGather` again.
//!
//! The patch matrix is never kept. A training forward caches a copy of
//! its *input* (`KH·KW` times smaller) and backward lowers it again —
//! `im2col` runs at memory speed and is deterministic, so the weight
//! gradient reads the bits forward multiplied by. Both passes lower into
//! the thread's one buffer ([`kemf_tensor::conv::with_lowering`]), and
//! `dcols` overwrites `cols` there once the weight gradient has been
//! accumulated. What a model holds between forward and backward is
//! therefore its activations, not nine times them; that is what lets two
//! clients train side by side in the memory one used to take. The
//! remaining temporaries (input copy, outputs, input gradient) live in the
//! caller's [`Workspace`], so a steady-state training step allocates
//! nothing.

use crate::layer::{Layer, Precision};
use crate::param::Param;
use kemf_tensor::conv::{col2im, im2col, with_lowering, ConvGeom};
use kemf_tensor::gemm::{
    gemm_ops, Accumulate, ColMajor, NchwGather, NchwScatterBias, RowMajor, Store,
};
use kemf_tensor::quant;
use kemf_tensor::rng::seeded_rng;
use kemf_tensor::workspace::Workspace;
use kemf_tensor::Tensor;

/// Convolutional layer (`[N, C, H, W] → [N, O, OH, OW]`).
pub struct Conv2d {
    weight: Param, // [O, C*KH*KW]
    bias: Param,   // [O]
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    precision: Precision,
    /// (copy of the input, geometry) kept by a training forward.
    cache: Option<(Vec<f32>, ConvGeom)>,
}

impl Conv2d {
    /// Kaiming-initialized square convolution.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        seed: u64,
    ) -> Self {
        let mut rng = seeded_rng(seed);
        let patch = in_channels * kernel * kernel;
        Conv2d {
            weight: Param::new(Tensor::kaiming(&[out_channels, patch], patch, &mut rng)),
            bias: Param::new(Tensor::zeros(&[out_channels])),
            in_channels,
            out_channels,
            kernel,
            stride,
            pad,
            precision: Precision::F32,
            cache: None,
        }
    }

    /// Layer geometry for a given input.
    fn geom(&self, x: &Tensor) -> ConvGeom {
        let (n, c, h, w) = x.shape().as_nchw();
        assert_eq!(c, self.in_channels, "Conv2d expected {} channels, got {c}", self.in_channels);
        ConvGeom { n, c, h, w, kh: self.kernel, kw: self.kernel, stride: self.stride, pad: self.pad }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let geom = self.geom(x);
        let (oh, ow) = (geom.oh(), geom.ow());
        let plane = oh * ow;
        let ncols = geom.cols();
        let patch = geom.patch_len();
        let o = self.out_channels;
        let mut y = ws.take_tensor(&[geom.n, o, oh, ow]);
        with_lowering(patch * ncols, |cols| {
            im2col(x.data(), &geom, cols);
            // y[n, o, oy, ox] = Σ_p W[o, p] cols[p, (n·oh+oy)·ow+ox] + b[o]:
            // one GEMM whose epilogue scatters straight into NCHW with the
            // bias added, replacing a staging matrix + reorder copy.
            let mut out =
                NchwScatterBias { out: y.data_mut(), o, plane, bias: self.bias.value.data() };
            match self.precision {
                Precision::F32 => gemm_ops(
                    o,
                    patch,
                    ncols,
                    &RowMajor { data: self.weight.value.data(), ld: patch },
                    &RowMajor { data: cols, ld: ncols },
                    &mut out,
                ),
                Precision::Int8 => {
                    // A = filter bank per-row, B = im2col matrix per-column;
                    // the dequantizing epilogue reuses the fused NCHW scatter.
                    let mut qa = ws.take_i8(quant::a_codes_len(o, patch));
                    let mut sa = ws.take(o);
                    quant::quantize_a_rows(self.weight.value.data(), o, patch, &mut qa, &mut sa);
                    let mut bp = ws.take_i8(quant::b_pack_len(patch, ncols));
                    let mut sb = ws.take(ncols);
                    quant::pack_b_rowmajor(cols, patch, ncols, &mut bp, &mut sb);
                    quant::gemm_i8(o, patch, ncols, &qa, &sa, &bp, &sb, &mut out);
                    ws.recycle_i8(qa);
                    ws.recycle_i8(bp);
                    ws.recycle(sa);
                    ws.recycle(sb);
                }
            }
        });
        if train {
            let mut input = ws.take_unzeroed(x.numel());
            input.copy_from_slice(x.data());
            self.cache = Some((input, geom));
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let (input, geom) = self.cache.take().expect("Conv2d::backward without forward(train)");
        let plane = geom.oh() * geom.ow();
        let ncols = geom.cols();
        let patch = geom.patch_len();
        let o = self.out_channels;
        let g = grad_out.data();
        assert_eq!(g.len(), geom.n * o * plane, "Conv2d grad_out size mismatch");
        // The incoming gradient, read as a `[O, N·OH·OW]` matrix without
        // materializing the reorder.
        let g_mat = NchwGather { data: g, o, plane };

        // db[o] += Σ_col g[o, col]
        {
            let db = self.bias.grad.data_mut();
            for ni in 0..geom.n {
                for (oi, dbo) in db.iter_mut().enumerate() {
                    let row = &g[(ni * o + oi) * plane..(ni * o + oi + 1) * plane];
                    *dbo += row.iter().sum::<f32>();
                }
            }
        }
        with_lowering(patch * ncols, |buf| {
            // Lower the input again rather than having kept the patch
            // matrix since forward: the same bits, `KH·KW` times less held.
            im2col(&input, &geom, buf);
            // The input gradient has the input's size: it takes this buffer.
            ws.recycle(input);
            // dW[o, p] += Σ_col g[o, col] cols[p, col] — accumulated directly
            // into the parameter gradient.
            gemm_ops(
                o,
                ncols,
                patch,
                &g_mat,
                &ColMajor { data: buf, ld: ncols },
                &mut Accumulate { c: self.weight.grad.data_mut(), ldc: patch },
            );
            // dcols[p, col] = Σ_o W[o, p] g[o, col], over the patch matrix
            // the weight gradient is done with.
            gemm_ops(
                patch,
                o,
                ncols,
                &ColMajor { data: self.weight.value.data(), ld: patch },
                &g_mat,
                &mut Store { c: buf, ldc: ncols },
            );
            let mut gx = ws.take_tensor(&[geom.n, geom.c, geom.h, geom.w]);
            col2im(buf, &geom, gx.data_mut());
            gx
        })
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.weight);
        f(&self.bias);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn set_precision(&mut self, p: Precision) {
        self.precision = p;
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl Clone for Conv2d {
    fn clone(&self) -> Self {
        Conv2d {
            weight: self.weight.clone(),
            bias: self.bias.clone(),
            in_channels: self.in_channels,
            out_channels: self.out_channels,
            kernel: self.kernel,
            stride: self.stride,
            pad: self.pad,
            precision: self.precision,
            cache: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::grad_check;
    use kemf_tensor::assert_close;
    use kemf_tensor::conv::conv2d_reference;
    use kemf_tensor::rng::seeded_rng;

    #[test]
    fn forward_matches_reference() {
        let ws = &mut Workspace::new();
        let mut conv = Conv2d::new(3, 4, 3, 1, 1, 42);
        let mut rng = seeded_rng(13);
        let x = Tensor::randn(&[2, 3, 6, 6], 1.0, &mut rng);
        let fast = conv.forward(&x, false, ws);
        let w4 = conv.weight.value.clone().reshape(&[4, 3, 3, 3]);
        let slow = conv2d_reference(&x, &w4, Some(conv.bias.value.data()), 1, 1);
        assert_eq!(fast.dims(), slow.dims());
        assert_close(fast.data(), slow.data(), 1e-4);
    }

    #[test]
    fn strided_forward_matches_reference() {
        let ws = &mut Workspace::new();
        let mut conv = Conv2d::new(2, 3, 3, 2, 1, 7);
        let mut rng = seeded_rng(14);
        let x = Tensor::randn(&[1, 2, 8, 8], 1.0, &mut rng);
        let fast = conv.forward(&x, false, ws);
        let w4 = conv.weight.value.clone().reshape(&[3, 2, 3, 3]);
        let slow = conv2d_reference(&x, &w4, Some(conv.bias.value.data()), 2, 1);
        assert_eq!(fast.dims(), &[1, 3, 4, 4]);
        assert_close(fast.data(), slow.data(), 1e-4);
    }

    #[test]
    fn gradcheck() {
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, 3);
        grad_check(&mut conv, &[2, 2, 4, 4], 1e-2, 3e-2);
    }

    #[test]
    fn gradcheck_strided() {
        let mut conv = Conv2d::new(1, 2, 3, 2, 1, 4);
        grad_check(&mut conv, &[1, 1, 5, 5], 1e-2, 3e-2);
    }

    #[test]
    fn steady_state_training_step_hits_the_pool() {
        let mut conv = Conv2d::new(2, 4, 3, 1, 1, 30);
        let mut ws = Workspace::new();
        let mut rng = seeded_rng(31);
        let x = Tensor::randn(&[2, 2, 6, 6], 1.0, &mut rng);
        let g = Tensor::randn(&[2, 4, 6, 6], 1.0, &mut rng);
        for _ in 0..3 {
            let y = conv.forward(&x, true, &mut ws);
            ws.recycle_tensor(y);
            let gx = conv.backward(&g, &mut ws);
            ws.recycle_tensor(gx);
        }
        // Warm-up takes: y and the input copy (gx takes the input copy's
        // buffer back, and its dims reuse y's recycled dims); the patch
        // matrix is the thread's, not the pool's.
        assert_eq!(ws.fresh_allocations(), 2, "f32 pool misses after warm-up");
        assert_eq!(ws.fresh_usize_allocations(), 1, "dims pool misses after warm-up");
    }

    #[test]
    fn int8_forward_stays_close_to_f32() {
        let ws = &mut Workspace::new();
        let mut conv = Conv2d::new(3, 8, 3, 1, 1, 55);
        let mut rng = seeded_rng(56);
        let x = Tensor::randn(&[2, 3, 8, 8], 1.0, &mut rng);
        let exact = conv.forward(&x, false, ws);
        conv.set_precision(crate::layer::Precision::Int8);
        let quantized = conv.forward(&x, false, ws);
        assert_eq!(exact.dims(), quantized.dims());
        // Quantization error scales with output magnitude; 2·127 levels
        // over a 27-element patch keeps relative error small.
        let max_out = exact.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        for (e, q) in exact.data().iter().zip(quantized.data()) {
            assert!((e - q).abs() <= 0.05 * max_out + 1e-3, "{e} vs {q}");
        }
        // Switching back restores the exact path.
        conv.set_precision(crate::layer::Precision::F32);
        let again = conv.forward(&x, false, ws);
        assert_eq!(exact.data(), again.data());
    }

    #[test]
    fn fused_backward_is_the_adjoint_of_forward() {
        // With zero bias, convolution is linear in x and in W, so its
        // backward pass must satisfy the adjoint identities exactly:
        //   ⟨conv(x; W), g⟩ = ⟨x, ∂x⟩ = ⟨W, ∂W⟩.
        // This pins the fused epilogue/operand index math (NCHW scatter in
        // the forward, in-place NCHW gather in the backward) to the
        // forward semantics without a reference implementation.
        let ws = &mut Workspace::new();
        for &(cin, cout, k, stride, pad, hw) in
            &[(3usize, 5usize, 3usize, 1usize, 1usize, 7usize), (2, 4, 3, 2, 1, 8), (4, 6, 1, 1, 0, 5)]
        {
            let mut conv = Conv2d::new(cin, cout, k, stride, pad, 77);
            conv.bias.value.fill(0.0);
            let mut rng = seeded_rng(78);
            let x = Tensor::randn(&[2, cin, hw, hw], 1.0, &mut rng);
            let y = conv.forward(&x, true, ws);
            let g = Tensor::randn(y.dims(), 1.0, &mut rng);
            conv.zero_grad();
            let gx = conv.backward(&g, ws);
            let ygdot = y.dot(&g);
            let xdot = x.dot(&gx);
            let wdot = conv.weight.value.dot(&conv.weight.grad);
            let tol = 1e-3 * ygdot.abs().max(1.0);
            assert!((ygdot - xdot).abs() < tol, "input adjoint: {ygdot} vs {xdot}");
            assert!((ygdot - wdot).abs() < tol, "weight adjoint: {ygdot} vs {wdot}");
        }
    }

    #[test]
    fn param_count() {
        let conv = Conv2d::new(3, 8, 3, 1, 1, 0);
        assert_eq!(conv.param_count(), 8 * 3 * 9 + 8);
    }
}
