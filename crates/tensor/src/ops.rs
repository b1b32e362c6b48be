//! Row-wise operations used by losses and classifiers: softmax,
//! log-softmax, argmax, transpose, and axis reductions — and the
//! per-channel sums of batch normalization ([`channel_sums`]), the row
//! sums of a convolution's bias gradient ([`row_sums`]) and the window
//! maxima of 2×2 max pooling ([`max_pool2`]).
//!
//! "Row-wise" means over the last dimension with all leading dimensions
//! flattened, which matches the `[batch, classes]` logit layout used
//! throughout the stack.

use crate::simd::{self, Isa};
use crate::tensor::Tensor;

/// `each(ch, Σ a, Σ a·b)` for every channel `ch`, in order, of
/// `[N, C, plane]` activations `a` and `b` (`b = None`: `a` itself) with
/// `c` channels: the sums in f64, each one chain of adds over the
/// channel's images and pixels in storage order from `+0.0`, the product
/// of two values a separate multiply — the bits of the plain per-channel
/// loop on every tier.
///
/// `relu = Some((γ, β))` (with `b`) gates `a` by the ReLU folded into a
/// batch norm whose `x̂` is `b`: each `a` value is multiplied in f32 by
/// `1.0` where `γ[ch]·b + β[ch] > 0.0` (a separate multiply and add) and
/// by `0.0` elsewhere before it is summed — the gradient that a ReLU's
/// backward would have handed the batch norm, never stored.
///
/// Where the tier has vectors (AVX2 and up) the chains of four channels
/// share one (`crate::simd::channel_sums`), two such groups at a time, in
/// a fixed lane order: a channel's chain is as long and as ordered as it
/// is alone, but four or eight advance per add instead of one. The scalar
/// tier runs the plain loop.
pub fn channel_sums(
    a: &[f32],
    b: Option<&[f32]>,
    relu: Option<(&[f32], &[f32])>,
    c: usize,
    plane: usize,
    mut each: impl FnMut(usize, f64, f64),
) {
    let images = a.len() / (c * plane).max(1);
    assert_eq!(a.len(), images * c * plane, "activation size mismatch");
    assert!(b.is_none_or(|b| b.len() == a.len()), "second activation size mismatch");
    assert!(relu.is_none_or(|(g, bt)| b.is_some() && g.len() == c && bt.len() == c), "ReLU gate needs x̂, γ and β");
    #[cfg(target_arch = "x86_64")]
    if simd::isa() != Isa::Scalar && plane > 0 {
        for c0 in (0..c).step_by(8) {
            let live = 8.min(c - c0);
            // Channels past the last repeat it; they are not handed on.
            let channel = |i: usize, k: usize| c0 + (4 * i + k).min(live - 1);
            let planes = |v: &[f32]| -> [[*const f32; 4]; 2] {
                std::array::from_fn(|i| std::array::from_fn(|k| v[channel(i, k) * plane..].as_ptr()))
            };
            let (pa, pb) = (planes(a), planes(b.unwrap_or(a)));
            let (gamma, beta) = relu.unwrap_or((&[], &[]));
            let gate: [[[f32; 4]; 2]; 2] = match relu {
                Some(_) => std::array::from_fn(|i| [gamma, beta].map(|v| std::array::from_fn(|k| v[channel(i, k)]))),
                None => [[[0.0; 4]; 2]; 2],
            };
            // SAFETY: the tier has AVX2, and from the plane of channel ch
            // < c of image 0, `a` and `b` hold `plane` floats at every
            // `n·c·plane`, n < images.
            let groups = unsafe {
                match (b.is_some(), relu.is_some()) {
                    (true, true) => groups::<true, true>(live, pa, pb, gate, images, c * plane, plane),
                    (true, false) => groups::<true, false>(live, pa, pb, gate, images, c * plane, plane),
                    (false, _) => groups::<false, false>(live, pa, pb, gate, images, c * plane, plane),
                }
            };
            for k in 0..live {
                let (sums, dots) = &groups[k / 4];
                each(c0 + k, sums[k % 4], dots[k % 4]);
            }
        }
        return;
    }
    let b = b.unwrap_or(a);
    for ch in 0..c {
        let (mut sum, mut dot) = (0.0f64, 0.0f64);
        for n in 0..images {
            let at = (n * c + ch) * plane;
            for (&x, &y) in a[at..at + plane].iter().zip(&b[at..at + plane]) {
                let x = match relu {
                    Some((gamma, beta)) => x * if gamma[ch] * y + beta[ch] > 0.0 { 1.0 } else { 0.0 },
                    None => x,
                };
                sum += x as f64;
                dot += (x as f64) * (y as f64);
            }
        }
        each(ch, sum, dot);
    }
}

/// Up to eight channels' sums: two vectors of four, or — four channels or
/// fewer — one, handed back twice.
///
/// # Safety
///
/// As [`simd::channel_sums`].
#[cfg(target_arch = "x86_64")]
unsafe fn groups<const PAIR: bool, const RELU: bool>(
    live: usize,
    a: [[*const f32; 4]; 2],
    b: [[*const f32; 4]; 2],
    gate: [[[f32; 4]; 2]; 2],
    images: usize,
    image_stride: usize,
    plane: usize,
) -> [([f64; 4], [f64; 4]); 2] {
    if live > 4 {
        simd::channel_sums::<2, PAIR, RELU>(a, b, gate, images, image_stride, plane)
    } else {
        let [g] = simd::channel_sums::<1, PAIR, RELU>([a[0]], [b[0]], [gate[0]], images, image_stride, plane);
        [g, g]
    }
}

/// `each(Σ row)` for every row of `src` cut into rows of `len` floats, in
/// row order: each sum one chain of f32 adds over its row in
/// order from `−0.0`, what `row.iter().sum::<f32>()` computes, on every
/// tier. On AVX-512 the chains of 16 rows share a vector
/// ([`simd::row_sums16`]); elsewhere — and for rows of one element, which
/// the vector would only turn — the rows run one by one.
pub fn row_sums(src: &[f32], len: usize, mut each: impl FnMut(f32)) {
    if len == 0 {
        return;
    }
    let rows = src.len() / len;
    assert_eq!(src.len(), rows * len, "row size mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd::isa() == Isa::Avx512 && len > 1 {
        for r0 in (0..rows).step_by(16) {
            let live = 16.min(rows - r0);
            // SAFETY: the tier is AVX-512 and rows r0..r0 + live lie in `src`.
            let sums = unsafe { simd::row_sums16(src[r0 * len..].as_ptr(), live, len) };
            sums[..live].iter().for_each(|&sum| each(sum));
        }
        return;
    }
    for row in src.chunks_exact(len) {
        each(row.iter().sum::<f32>());
    }
}

/// 2×2 max pooling with stride 2 of the whole `h × w` planes of `src`:
/// each window's maximum into `dst` (`[planes, h/2, w/2]`, odd edges
/// dropped) and its flat index in `src` into `arg`.
///
/// A window's candidates are taken top-left, top-right, bottom-left,
/// bottom-right, and a later one replaces the best so far only where it
/// compares strictly greater: a tie keeps the first, a `NaN` never
/// replaces, and a `NaN` first candidate stays. Each window carries its
/// best value and offset and selects, with no branch on the data. On the
/// AVX-512 tier, where the output windows of 16 consecutive outputs lie
/// in a fixed pattern (even `h`, and `w/2` a divisor or a multiple of 16),
/// the windows of 16 outputs are compared a vector at a time
/// ([`simd::max_pool2`]), with the same rule.
pub fn max_pool2(src: &[f32], (h, w): (usize, usize), dst: &mut [f32], arg: &mut [usize]) {
    let (oh, ow) = (h / 2, w / 2);
    let planes = src.len() / (h * w).max(1);
    assert_eq!(src.len(), planes * h * w, "input size mismatch");
    assert!(dst.len() == planes * oh * ow && arg.len() == dst.len(), "output size mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd::isa() == Isa::Avx512 && h % 2 == 0 && ow > 0 && (16 % ow == 0 || ow % 16 == 0) && src.len() <= i32::MAX as usize {
        // SAFETY: the tier is AVX-512; output k's window starts at
        // 2w·(k / ow) + 2·(k % ow) (input row 2·(k / ow): h is even), and
        // its four candidates lie inside `src`; `dst` and `arg` hold an
        // element per output.
        unsafe { simd::max_pool2(src.as_ptr(), w, ow, dst.len(), dst.as_mut_ptr(), arg.as_mut_ptr()) };
        return;
    }
    let outs = dst.chunks_exact_mut(oh * ow).zip(arg.chunks_exact_mut(oh * ow));
    for (p, (plane, (dst, arg))) in src.chunks_exact(h * w).zip(outs).enumerate() {
        for (oy, (dst, arg)) in dst.chunks_exact_mut(ow).zip(arg.chunks_exact_mut(ow)).enumerate() {
            let (top, bottom) = (&plane[2 * oy * w..][..2 * ow], &plane[(2 * oy + 1) * w..][..2 * ow]);
            let first = p * h * w;
            for (ox, (d, a)) in dst.iter_mut().zip(arg.iter_mut()).enumerate() {
                let candidates = [(top[2 * ox + 1], 1), (bottom[2 * ox], w), (bottom[2 * ox + 1], w + 1)];
                let (best, at) = candidates.into_iter().fold((top[2 * ox], 0), |(best, at), (v, offset)| {
                    let greater = v > best;
                    (if greater { v } else { best }, if greater { offset } else { at })
                });
                *d = best;
                *a = first + 2 * oy * w + 2 * ox + at;
            }
        }
    }
}

/// Numerically-stable softmax over the last dimension.
pub fn softmax(logits: &Tensor) -> Tensor {
    let (rows, cols) = logits.shape().as_matrix();
    assert!(cols > 0, "softmax over empty rows");
    let mut out = logits.clone();
    softmax_inplace_rows(out.data_mut(), rows, cols);
    out
}

/// In-place row softmax on a raw buffer.
pub fn softmax_inplace_rows(data: &mut [f32], rows: usize, cols: usize) {
    assert_eq!(data.len(), rows * cols);
    for r in 0..rows {
        let row = &mut data[r * cols..(r + 1) * cols];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// Numerically-stable log-softmax over the last dimension.
pub fn log_softmax(logits: &Tensor) -> Tensor {
    let (rows, cols) = logits.shape().as_matrix();
    assert!(cols > 0, "log_softmax over empty rows");
    let mut out = logits.clone();
    let data = out.data_mut();
    for r in 0..rows {
        let row = &mut data[r * cols..(r + 1) * cols];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let log_sum = row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln() + max;
        for v in row.iter_mut() {
            *v -= log_sum;
        }
    }
    out
}

/// Index of the maximum element in each row (ties → first).
pub fn argmax_rows(t: &Tensor) -> Vec<usize> {
    let (rows, cols) = t.shape().as_matrix();
    let mut out = Vec::with_capacity(rows);
    for r in 0..rows {
        let row = &t.data()[r * cols..(r + 1) * cols];
        let mut best = 0;
        let mut best_v = f32::NEG_INFINITY;
        for (i, &v) in row.iter().enumerate() {
            if v > best_v {
                best_v = v;
                best = i;
            }
        }
        out.push(best);
    }
    out
}

/// Sum over rows → vector of length `cols` (used for bias gradients).
pub fn sum_rows(t: &Tensor) -> Tensor {
    let (rows, cols) = t.shape().as_matrix();
    let mut out = Tensor::zeros(&[cols]);
    let o = out.data_mut();
    for r in 0..rows {
        let row = &t.data()[r * cols..(r + 1) * cols];
        for (ov, &v) in o.iter_mut().zip(row.iter()) {
            *ov += v;
        }
    }
    out
}

/// 2-D transpose (copies).
pub fn transpose2d(t: &Tensor) -> Tensor {
    let (rows, cols) = t.shape().as_matrix();
    let mut out = Tensor::zeros(&[cols, rows]);
    let src = t.data();
    let dst = out.data_mut();
    for r in 0..rows {
        for c in 0..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
    out
}

/// Element-wise maximum of many same-shaped tensors (the paper's
/// max-logits ensemble primitive, Eq. 5). Panics on an empty slice.
pub fn elementwise_max(tensors: &[&Tensor]) -> Tensor {
    assert!(!tensors.is_empty(), "elementwise_max of zero tensors");
    let mut out = tensors[0].clone();
    for t in &tensors[1..] {
        assert_eq!(t.shape(), out.shape(), "elementwise_max shape mismatch");
        for (o, &v) in out.data_mut().iter_mut().zip(t.data().iter()) {
            if v > *o {
                *o = v;
            }
        }
    }
    out
}

/// Element-wise mean of many same-shaped tensors (avg-logits ensemble).
pub fn elementwise_mean(tensors: &[&Tensor]) -> Tensor {
    assert!(!tensors.is_empty(), "elementwise_mean of zero tensors");
    let mut out = tensors[0].clone();
    for t in &tensors[1..] {
        assert_eq!(t.shape(), out.shape(), "elementwise_mean shape mismatch");
        out.axpy(1.0, t);
    }
    out.scale_inplace(1.0 / tensors.len() as f32);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let s = softmax(&t);
        for r in 0..2 {
            let sum: f32 = s.data()[r * 3..(r + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Monotone in logits.
        assert!(s.at(&[0, 2]) > s.at(&[0, 1]));
    }

    #[test]
    fn softmax_handles_large_logits() {
        let t = Tensor::from_vec(vec![1000.0, 1001.0], &[1, 2]);
        let s = softmax(&t);
        assert!(!s.has_non_finite());
        assert!((s.data()[0] + s.data()[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let t = Tensor::from_vec(vec![0.5, -0.2, 1.3, 2.0, 0.0, -3.0], &[2, 3]);
        let ls = log_softmax(&t);
        let s = softmax(&t);
        let expect: Vec<f32> = s.data().iter().map(|&p| p.ln()).collect();
        assert_close(ls.data(), &expect, 1e-5);
    }

    #[test]
    fn argmax_rows_basic() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.0, 5.0, 4.0, 4.5], &[2, 3]);
        assert_eq!(argmax_rows(&t), vec![1, 0]);
    }

    #[test]
    fn sum_rows_basic() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(sum_rows(&t).data(), &[4.0, 6.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let tt = transpose2d(&transpose2d(&t));
        assert_eq!(tt.data(), t.data());
        assert_eq!(transpose2d(&t).at(&[2, 1]), t.at(&[1, 2]));
    }

    #[test]
    fn row_sums_are_the_plain_loop() {
        // Row counts either side of 16, planes 1/4/16/256 (and 23, a
        // ragged last block), one row of −0.0: each sum must be the bits
        // of `row.iter().sum::<f32>()`, natively and on the scalar tier.
        let mut rng = crate::rng::seeded_rng(17);
        for rows in [1usize, 15, 16, 17, 40] {
            for len in [1usize, 4, 16, 23, 256] {
                let mut src: Vec<f32> = (0..rows * len).map(|_| crate::rng::sample_normal(&mut rng)).collect();
                src[(rows / 2) * len..][..len].fill(-0.0);
                let want: Vec<u32> = src.chunks_exact(len).map(|r| r.iter().sum::<f32>().to_bits()).collect();
                for scalar in [false, true] {
                    let _guard = scalar.then(simd::ScalarGuard::new);
                    let mut got = Vec::new();
                    row_sums(&src, len, |sum| got.push(sum.to_bits()));
                    assert_eq!(got, want, "{rows} rows of {len}, scalar tier {scalar}");
                }
            }
        }
        assert_eq!((-0.0f32).to_bits(), [-0.0f32].iter().sum::<f32>().to_bits(), "sum starts from −0.0");
    }

    #[test]
    fn ensembles() {
        let a = Tensor::from_vec(vec![1.0, 5.0], &[1, 2]);
        let b = Tensor::from_vec(vec![3.0, 2.0], &[1, 2]);
        assert_eq!(elementwise_max(&[&a, &b]).data(), &[3.0, 5.0]);
        assert_eq!(elementwise_mean(&[&a, &b]).data(), &[2.0, 3.5]);
    }
}
