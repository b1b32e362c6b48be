//! 2-D convolution, lowered to matrix multiplication through `im2col`.
//!
//! The filter bank is stored as a `[O, C·KH·KW]` matrix, so the layer is
//! three products over the patch matrix `cols` (`[C·KH·KW, N·OH·OW]`,
//! row-major) and the `[N, O, OH, OW]` output gradient `g`. Each runs on
//! the engine in `kemf_tensor::gemm` along the route its shape wants;
//! every operand is a typed view of the storage it already lives in, and
//! in all three every output element is one FMA chain over the inner
//! index, ascending from zero — on every kernel tier and every route,
//! which is what lets `tests/golden_histories.rs` pin one table of
//! hashes.
//!
//! * **Forward** `y = W · cols + b` (inner index: the patch). `W` is
//!   packed; `cols` is read in place by the widest kernel when `O ≤ 16`
//!   and packed by row copies otherwise; the bias add and the
//!   `[O, N·OH·OW] → [N, O, OH, OW]` reorder are the epilogue
//!   (`NchwScatterBias`).
//! * **Weight gradient** `dW += g · colsᵀ` (inner index: the `N·OH·OW`
//!   columns — thousands, under a handful of rows). `g`, the small
//!   operand, is packed, through `NchwGather` without a reorder copy.
//!   `cols` is the column-major B and, for `O ≤ 16`, is not packed: the
//!   transposing kernel loads 16×16 blocks along its rows, turns them in
//!   registers and runs the chains from there. Wider banks pack it
//!   through an 8×8 block transpose. The finished chains are added to
//!   `weight.grad` once ([`kemf_tensor::conv::weight_grad`]).
//! * **Input gradient** `gx = col2im(Wᵀ · g)` (inner index: `O`). `Wᵀ`
//!   and `g` pack by row copies. The patch gradient — as large as `cols`
//!   — is never whole: it is produced a panel of whole images at a time
//!   (one 16×16 image of ResNet-20's first stage is 36 KB) and scattered
//!   into those images' pixels while the panel is in the inner caches;
//!   a pixel meets its addends in the order of the whole-matrix scatter
//!   ([`kemf_tensor::conv::input_grad`]). The first layer of a network
//!   inside a training step skips this product altogether
//!   ([`Layer::backward_first`]): nothing reads the gradient of the batch.
//!
//! Called outside a share — the server's student steps, evaluation —
//! each product splits over the compute width by what it writes
//! (`kemf_tensor::par`): the forward and the input gradient by *images*
//! (a range of images is the convolution of that sub-batch), the weight
//! gradient by *input channels* (a thread lowers and reduces only its
//! channels' patch rows, its finished chains added to `weight.grad` as
//! the inline epilogue adds them), the bias gradient by *output
//! channels*. Inside a share (a client of a cohort) they run inline on
//! the calling thread.
//!
//! The patch matrix is never kept. A training forward caches a copy of
//! its *input* (`KH·KW` times smaller) and backward lowers it again —
//! `im2col` runs at memory speed and is deterministic, so the weight
//! gradient reads the bits forward multiplied by. Every product lowers
//! into its thread's one buffer ([`kemf_tensor::conv::with_lowering`]),
//! and the input gradient's panels overwrite `cols` there once the weight
//! gradient has been accumulated. What a model holds between forward and
//! backward is therefore its activations, not nine times them; that is
//! what lets two clients train side by side in the memory one used to
//! take. The remaining temporaries (input copy, outputs, input gradient)
//! live in the caller's [`Workspace`], so a steady-state training step
//! allocates nothing.

use crate::layer::{Layer, Precision};
use crate::param::{Init, Param};
use kemf_tensor::conv::{self, im2col, input_grad, weight_grad, with_lowering, ConvGeom};
use kemf_tensor::gemm::NchwScatterBias;
use kemf_tensor::par;
use kemf_tensor::quant;
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
        Self::with_init(in_channels, out_channels, kernel, stride, pad, Init::Seeded(seed))
    }

    /// Square convolution with its filters from `init`.
    pub fn with_init(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        init: Init,
    ) -> Self {
        let patch = in_channels * kernel * kernel;
        Conv2d {
            weight: init.weight(&[out_channels, patch], patch),
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

    /// The one backward pass: parameter gradients always, the input
    /// gradient when `want_input`.
    fn backward_pass(&mut self, grad_out: &Tensor, ws: &mut Workspace, want_input: bool) -> Option<Tensor> {
        let (input, geom) = self.cache.take().expect("Conv2d::backward without forward(train)");
        let plane = geom.oh() * geom.ow();
        let o = self.out_channels;
        let g = grad_out.data();
        assert_eq!(g.len(), geom.n * o * plane, "Conv2d grad_out size mismatch");

        // db[o] += Σ_col g[o, col], image by image, split by channels.
        par::split(o, g.len() as u64 * par::ELEMENT_FLOPS, self.bias.grad.data_mut(), |chans, db| {
            for ni in 0..geom.n {
                for (oi, dbo) in chans.clone().zip(db.iter_mut()) {
                    let row = &g[(ni * o + oi) * plane..(ni * o + oi + 1) * plane];
                    *dbo += row.iter().sum::<f32>();
                }
            }
        });
        // dW[o, p] += Σ_col g[o, col] cols[p, col], the input lowered
        // again rather than its patch matrix kept since forward: the same
        // bits, `KH·KW` times less held.
        weight_grad(g, o, &input, &geom, self.weight.grad.data_mut());
        // The input gradient has the input's size: it takes this buffer.
        ws.recycle(input);
        want_input.then(|| {
            let mut gx = ws.take_tensor_unzeroed(&[geom.n, geom.c, geom.h, geom.w]);
            input_grad(self.weight.value.data(), g, o, &geom, gx.data_mut());
            gx
        })
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
        let mut y = ws.take_tensor_unzeroed(&[geom.n, o, oh, ow]);
        let (w, bias) = (self.weight.value.data(), self.bias.value.data());
        // A training forward keeps a copy of its input for backward.
        let mut input = train.then(|| ws.take_unzeroed(x.numel()));
        match self.precision {
            // y[n, o, oy, ox] = Σ_p W[o, p] cols[p, (n·oh+oy)·ow+ox] + b[o]:
            // one GEMM per share of images whose epilogue scatters straight
            // into NCHW with the bias added.
            Precision::F32 => conv::forward(x.data(), w, bias, o, &geom, y.data_mut(), input.as_deref_mut()),
            // A = filter bank per-row, B = im2col matrix per-column; the
            // dequantizing epilogue reuses the fused NCHW scatter.
            Precision::Int8 => with_lowering(patch * ncols, |cols| {
                im2col(x.data(), &geom, cols);
                let mut out = NchwScatterBias { out: y.data_mut(), o, plane, bias };
                let mut qa = ws.take_i8(quant::a_codes_len(o, patch));
                let mut sa = ws.take(o);
                quant::quantize_a_rows(w, o, patch, &mut qa, &mut sa);
                let mut bp = ws.take_i8(quant::b_pack_len(patch, ncols));
                let mut sb = ws.take(ncols);
                quant::pack_b_rowmajor(cols, patch, ncols, &mut bp, &mut sb);
                quant::gemm_i8(o, patch, ncols, &qa, &sa, &bp, &sb, &mut out);
                ws.recycle_i8(qa);
                ws.recycle_i8(bp);
                ws.recycle(sa);
                ws.recycle(sb);
                if let Some(input) = &mut input {
                    input.copy_from_slice(x.data());
                }
            }),
        }
        if let Some(input) = input {
            self.cache = Some((input, geom));
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        self.backward_pass(grad_out, ws, true).expect("input gradient was asked for")
    }

    fn backward_first(&mut self, grad_out: &Tensor, ws: &mut Workspace) {
        let _ = self.backward_pass(grad_out, ws, false);
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
    fn backward_first_leaves_out_only_the_input_gradient() {
        let mut rng = seeded_rng(32);
        for &(cin, cout, k, stride, hw) in &[(3usize, 4usize, 3usize, 1usize, 8usize), (2, 20, 3, 2, 7), (4, 8, 1, 1, 5)] {
            let x = Tensor::randn(&[3, cin, hw, hw], 1.0, &mut rng);
            let mut full = Conv2d::new(cin, cout, k, stride, k / 2, 33);
            let mut first = full.clone();
            let mut ws = Workspace::new();
            let y = full.forward(&x, true, &mut ws);
            let g = Tensor::randn(y.dims(), 1.0, &mut rng);
            let _gx = full.backward(&g, &mut ws);
            let _ = first.forward(&x, true, &mut ws);
            first.backward_first(&g, &mut ws);
            assert_eq!(first.weight.grad.data(), full.weight.grad.data());
            assert_eq!(first.bias.grad.data(), full.bias.grad.data());
        }
        // And its steady state takes one buffer fewer: no input gradient.
        let mut conv = Conv2d::new(2, 4, 3, 1, 1, 30);
        let mut ws = Workspace::new();
        let x = Tensor::randn(&[2, 2, 6, 6], 1.0, &mut rng);
        let g = Tensor::randn(&[2, 4, 6, 6], 1.0, &mut rng);
        for _ in 0..3 {
            let y = conv.forward(&x, true, &mut ws);
            ws.recycle_tensor(y);
            conv.backward_first(&g, &mut ws);
        }
        assert_eq!(ws.fresh_allocations(), 2, "y and the input copy");
        assert_eq!(ws.fresh_usize_allocations(), 1, "y's dims");
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
