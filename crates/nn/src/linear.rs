//! Fully-connected layer: `y = x · Wᵀ + b`.
//!
//! Weights are stored `[out, in]`; the forward product runs on the packed
//! GEMM with the transpose expressed as a column-major view of the same
//! storage — read in place by the transposing kernel under a batch of at
//! most 16 rows, packed through the block transpose under a wider one —
//! and the bias add fused into the epilogue (`BiasCol`); the backward
//! products read the gradient and the cached input as views too, packed
//! by slice copies. The weight gradient accumulates directly into
//! `weight.grad`, and all temporaries (the cached input copy, the
//! returned tensors) live in the caller's [`Workspace`], so a
//! steady-state step allocates nothing. As a network's first layer
//! inside a training step it leaves `g · W` out
//! ([`Layer::backward_first`]).

use crate::layer::{Layer, Mode, Precision};
use crate::param::{Init, Param};
use kemf_tensor::gemm::{gemm_ops, Accumulate, BiasCol, ColMajor, RowMajor, Store};
use kemf_tensor::quant;
use kemf_tensor::workspace::Workspace;
use kemf_tensor::Tensor;

/// Dense affine layer.
pub struct Linear {
    weight: Param, // [out, in]
    bias: Param,   // [out]
    in_features: usize,
    out_features: usize,
    precision: Precision,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Kaiming-initialized dense layer.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        Self::with_init(in_features, out_features, Init::Seeded(seed))
    }

    /// Dense layer with its weights from `init`.
    pub fn with_init(in_features: usize, out_features: usize, init: Init) -> Self {
        Linear {
            weight: init.weight(&[out_features, in_features], in_features),
            bias: Param::new(Tensor::zeros(&[out_features])),
            in_features,
            out_features,
            precision: Precision::F32,
            cached_input: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl Linear {
    /// The parameter half of backward: `dW += gᵀ · x`, `db += Σ_b g`.
    /// Hands back the cached input, which the input gradient has no use
    /// for but whose buffer the caller returns to the pool.
    fn backward_params(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cached_input.take().expect("Linear::backward without forward(train)");
        let (batch, feat) = x.shape().as_matrix();
        let out = self.out_features;
        let g = grad_out.data();
        assert_eq!(g.len(), batch * out, "Linear grad_out size mismatch");
        // dW[o, i] += Σ_b g[b, o] x[b, i] — straight into the parameter
        // gradient, no staging matrix.
        gemm_ops(
            out,
            batch,
            feat,
            &ColMajor { data: g, ld: out },
            &RowMajor { data: x.data(), ld: feat },
            &mut Accumulate { c: self.weight.grad.data_mut(), ldc: feat },
        );
        // db[o] += Σ_b g[b, o]
        let db = self.bias.grad.data_mut();
        for row in g.chunks_exact(out) {
            for (dbo, &gv) in db.iter_mut().zip(row.iter()) {
                *dbo += gv;
            }
        }
        x
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor, mode: Mode, ws: &mut Workspace) -> Tensor {
        let (batch, feat) = x.shape().as_matrix();
        assert_eq!(feat, self.in_features, "Linear expected {} features, got {feat}", self.in_features);
        let xd = x.data();
        // y[b, o] = Σ_i x[b, i] W[o, i] + b[o]; the Wᵀ read is a
        // column-major view, the bias add is the epilogue.
        let mut y = ws.take_tensor(&[batch, self.out_features]);
        match self.precision {
            Precision::F32 => gemm_ops(
                batch,
                feat,
                self.out_features,
                &RowMajor { data: xd, ld: feat },
                &ColMajor { data: self.weight.value.data(), ld: feat },
                &mut BiasCol {
                    c: y.data_mut(),
                    ldc: self.out_features,
                    bias: self.bias.value.data(),
                },
            ),
            Precision::Int8 => {
                // A = x per-row, B = Wᵀ per-column (one packed column per
                // contiguous weight row); the dequantizing epilogue reuses
                // the fused bias writer unchanged.
                let out = self.out_features;
                let mut qa = ws.take_i8(quant::a_codes_len(batch, feat));
                let mut sa = ws.take(batch);
                quant::quantize_a_rows(xd, batch, feat, &mut qa, &mut sa);
                let mut bp = ws.take_i8(quant::b_pack_len(feat, out));
                let mut sb = ws.take(out);
                quant::pack_b_transposed(self.weight.value.data(), out, feat, &mut bp, &mut sb);
                quant::gemm_i8(
                    batch,
                    feat,
                    out,
                    &qa,
                    &sa,
                    &bp,
                    &sb,
                    &mut BiasCol { c: y.data_mut(), ldc: out, bias: self.bias.value.data() },
                );
                ws.recycle_i8(qa);
                ws.recycle_i8(bp);
                ws.recycle(sa);
                ws.recycle(sb);
            }
        }
        if mode.caches() {
            let mut cached = ws.take_tensor(&[batch, feat]);
            cached.data_mut().copy_from_slice(xd);
            self.cached_input = Some(cached);
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Tensor {
        let x = self.backward_params(grad_out);
        let (batch, feat) = x.shape().as_matrix();
        let out = self.out_features;
        // dx[b, i] = Σ_o g[b, o] W[o, i]
        let mut dx = ws.take_tensor(&[batch, feat]);
        gemm_ops(
            batch,
            out,
            feat,
            &RowMajor { data: grad_out.data(), ld: out },
            &RowMajor { data: self.weight.value.data(), ld: feat },
            &mut Store { c: dx.data_mut(), ldc: feat },
        );
        ws.recycle_tensor(x);
        dx
    }

    fn backward_first(&mut self, grad_out: &Tensor, ws: &mut Workspace) {
        let x = self.backward_params(grad_out);
        ws.recycle_tensor(x);
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
        "Linear"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl Clone for Linear {
    fn clone(&self) -> Self {
        Linear {
            weight: self.weight.clone(),
            bias: self.bias.clone(),
            in_features: self.in_features,
            out_features: self.out_features,
            precision: self.precision,
            cached_input: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::grad_check;

    #[test]
    fn forward_matches_manual() {
        let ws = &mut Workspace::new();
        let mut l = Linear::new(2, 2, 0);
        l.visit_params_mut(&mut |p| p.value.fill(0.0));
        // W = [[1, 2], [3, 4]], b = [0.5, -0.5]
        l.weight.value = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        l.bias.value = Tensor::from_vec(vec![0.5, -0.5], &[2]);
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let y = l.forward(&x, Mode::Eval, ws);
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn param_count() {
        let l = Linear::new(10, 4, 0);
        assert_eq!(l.param_count(), 44);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut l = Linear::new(3, 4, 1);
        grad_check(&mut l, &[2, 3], 1e-2, 2e-2);
    }

    #[test]
    fn int8_forward_tracks_f32_forward() {
        let ws = &mut Workspace::new();
        use kemf_tensor::rng::seeded_rng;
        let mut l = Linear::new(48, 10, 3);
        let mut rng = seeded_rng(4);
        let x = Tensor::randn(&[8, 48], 1.0, &mut rng);
        let exact = l.forward(&x, Mode::Eval, ws);
        l.set_precision(crate::layer::Precision::Int8);
        let quantized = l.forward(&x, Mode::Eval, ws);
        // Per-element error must stay within the analytic quantization
        // bound (with slack for f32 accumulation order).
        let xd = x.data();
        let wd = l.weight.value.data();
        for b in 0..8 {
            let row = &xd[b * 48..(b + 1) * 48];
            let max_a = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            for o in 0..10 {
                let col = &wd[o * 48..(o + 1) * 48];
                let max_b = col.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
                let bound =
                    quant::error_bound(48, max_a, max_a / 127.0, max_b, max_b / 127.0) * 1.05
                        + 1e-4;
                let err = (exact.data()[b * 10 + o] - quantized.data()[b * 10 + o]).abs();
                assert!(err <= bound, "({b},{o}): err {err} > bound {bound}");
            }
        }
        // Flipping back restores the exact path bit-for-bit.
        l.set_precision(crate::layer::Precision::F32);
        let again = l.forward(&x, Mode::Eval, ws);
        assert_eq!(exact.data(), again.data());
    }

    #[test]
    fn clone_box_is_independent() {
        let l = Linear::new(3, 3, 2);
        let mut c = l.clone_box();
        c.visit_params_mut(&mut |p| p.value.fill(9.0));
        let mut orig_first = None;
        l.visit_params(&mut |p| {
            if orig_first.is_none() {
                orig_first = Some(p.value.data()[0]);
            }
        });
        assert_ne!(orig_first.unwrap(), 9.0);
    }
}
