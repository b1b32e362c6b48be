//! 2-D convolution: three products over the input `x`, the filter bank
//! and the output gradient `g`.
//!
//! The filter bank is stored as a `[O, C·KH·KW]` matrix, so each product
//! can be read as a GEMM over the patch matrix `cols` (`[C·KH·KW,
//! N·OH·OW]`, row-major) and the `[N, O, OH, OW]` output gradient `g`. On
//! the AVX-512 tier all three run on the direct route, straight from the
//! NCHW tensors, whatever the bank (`kemf_tensor::conv::is_direct`); on
//! AVX2 and scalar hosts they run on the engine in `kemf_tensor::gemm`
//! over the lowered operands. In every case every output element is one
//! FMA chain over the inner index, ascending from zero — on every kernel
//! tier and every route, which is what lets `tests/golden_histories.rs`
//! pin one table of hashes.
//!
//! * **Forward** `y = W · cols + b` (inner index: the patch). The direct
//!   route runs each chain over the input where it lies, a tile of at most
//!   16 filters at a time, a padding tap multiplied by `0.0` as the patch
//!   matrix's zero would be; where an output plane has fewer than 16
//!   positions (VGG-11's 2×2 and 1×1 maps) the batch is staged images last
//!   and a vector holds 16 images of one position. Lowered, `W` and `cols`
//!   pack by row copies; the bias add and the `[O, N·OH·OW] → [N, O, OH,
//!   OW]` reorder are the epilogue (`NchwScatterBias`).
//! * **Weight gradient** `dW += g · colsᵀ` (inner index: the `N·OH·OW`
//!   columns). The direct route puts chains in the lanes — `(kx, c)` pairs
//!   of a zero-framed channels-last copy of the input, or the patch columns
//!   themselves where the output plane is under 16 positions or the filter
//!   is 1×1 — and broadcasts `g` where it lies. Lowered, `g`, the small
//!   operand, is packed through `NchwGather`; `cols` is the column-major B
//!   and, for `O ≤ 16`, is read in place by the transposing kernel, wider
//!   banks packing it through an 8×8 block transpose. Either way the
//!   finished chains are added to `weight.grad` once
//!   ([`kemf_tensor::conv::weight_grad`]).
//! * **Input gradient** `gx = col2im(Wᵀ · g)` (inner index: `O`). The
//!   direct route runs each patch-gradient value's chain from `g` where it
//!   lies (staged images last for planes under 16 positions) and adds it
//!   straight into its pixel, in the order `col2im` would; no patch
//!   gradient is stored. Lowered, `Wᵀ` and `g` pack by row copies and the
//!   patch gradient — as large as `cols` — is produced a panel of whole
//!   images at a time and scattered into those images' pixels while the
//!   panel is in the inner caches ([`kemf_tensor::conv::input_grad`]). The
//!   first layer of a network inside a training step skips this product
//!   altogether ([`Layer::backward_first`]): nothing reads the gradient of
//!   the batch.
//! * **Bias gradient** `db[o] += Σ g[n, o, ·]`, image by image: each
//!   `(image, filter)` row of `g` one f32 chain from `−0.0`, the bits of
//!   `row.iter().sum()`. On AVX-512 sixteen rows share a vector, each lane
//!   one row's chain ([`kemf_tensor::ops::row_sums`]), so a chain of 256
//!   dependent adds no longer runs one row at a time.
//!
//! Every product runs whole on the calling thread — a client's, in a
//! cohort, or the server's for its student steps and evaluations.
//!
//! The patch matrix is never kept. A training forward caches a copy of
//! its *input* (`KH·KW` times smaller), and backward reads it again for
//! the weight gradient — staged per call on the direct route, lowered
//! again by `im2col` (deterministic, at memory speed) on the lowered one —
//! so the weight gradient reads the bits forward multiplied by. Every
//! lowered product lowers into its thread's one buffer
//! ([`kemf_tensor::conv::with_lowering`]); the direct route's copies live
//! in a staging buffer per thread beside it. What a model holds between
//! forward and backward is therefore its activations, not nine times
//! them; that is what lets two clients train side by side in the memory
//! one used to take. The remaining temporaries (input copy, outputs,
//! input gradient) live in the caller's [`Workspace`], so a steady-state
//! training step allocates nothing.

use crate::layer::{Layer, Mode, Precision};
use crate::param::{Init, Param};
use kemf_tensor::conv::{self, im2col, input_grad, weight_grad, with_lowering, ConvGeom};
use kemf_tensor::gemm::NchwScatterBias;
use kemf_tensor::ops::row_sums;
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
    /// (copy of the input, geometry) kept by a `Mode::Train` forward.
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

        // db[o] += Σ_col g[o, col], image by image: each (image, filter)
        // row one chain, 16 rows in the lanes of a vector on AVX-512.
        let (db, mut filter) = (self.bias.grad.data_mut(), 0);
        row_sums(g, plane, |sum| {
            db[filter] += sum;
            filter = if filter + 1 == o { 0 } else { filter + 1 };
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
    fn forward(&mut self, x: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        let geom = self.geom(x);
        let (oh, ow) = (geom.oh(), geom.ow());
        let plane = oh * ow;
        let ncols = geom.cols();
        let patch = geom.patch_len();
        let o = self.out_channels;
        let mut y = ws.take_tensor_unzeroed(&[geom.n, o, oh, ow]);
        let (w, bias) = (self.weight.value.data(), self.bias.value.data());
        // A training forward keeps a copy of its input for backward.
        let mut input = mode.caches().then(|| ws.take_unzeroed(x.numel()));
        match self.precision {
            // y[n, o, oy, ox] = Σ_p W[o, p] cols[p, (n·oh+oy)·ow+ox] + b[o],
            // direct on AVX-512, else one GEMM whose epilogue scatters
            // straight into NCHW with the bias.
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
        let fast = conv.forward(&x, Mode::Eval, ws);
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
        let fast = conv.forward(&x, Mode::Eval, ws);
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
            let y = conv.forward(&x, Mode::Train, &mut ws);
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
            let y = full.forward(&x, Mode::Train, &mut ws);
            let g = Tensor::randn(y.dims(), 1.0, &mut rng);
            let _gx = full.backward(&g, &mut ws);
            let _ = first.forward(&x, Mode::Train, &mut ws);
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
            let y = conv.forward(&x, Mode::Train, &mut ws);
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
        let exact = conv.forward(&x, Mode::Eval, ws);
        conv.set_precision(crate::layer::Precision::Int8);
        let quantized = conv.forward(&x, Mode::Eval, ws);
        assert_eq!(exact.dims(), quantized.dims());
        // Quantization error scales with output magnitude; 2·127 levels
        // over a 27-element patch keeps relative error small.
        let max_out = exact.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        for (e, q) in exact.data().iter().zip(quantized.data()) {
            assert!((e - q).abs() <= 0.05 * max_out + 1e-3, "{e} vs {q}");
        }
        // Switching back restores the exact path.
        conv.set_precision(crate::layer::Precision::F32);
        let again = conv.forward(&x, Mode::Eval, ws);
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
            let y = conv.forward(&x, Mode::Train, ws);
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
