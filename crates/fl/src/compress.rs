//! Payload compression for federated communication: uniform int8
//! quantization of weight snapshots (cf. HeteroSAg's heterogeneous
//! quantization, which the paper cites among communication-efficiency
//! work). Orthogonal to FedKEMF's knowledge-network idea — the harness
//! can stack the two and measure combined savings.
//!
//! A [`QuantizedWeights`] is wire data: it may arrive truncated or
//! corrupted from an unreliable client. Its wire form is read with
//! [`kemf_nn::codec::Reader`] (declared lengths held against the bytes
//! present), and [`QuantizedWeights::validate`] then checks the decoded
//! structure, so damage is a [`CompressError`], never an out-of-bounds
//! index.
//!
//! The int8 *compute* format is a different thing: [`ComputePrecision`]
//! (the layers' [`kemf_nn::layer::Precision`] under the name ensemble
//! callers use) routes a model's GEMM-backed layers through the symmetric
//! int8 engine (`kemf_tensor::quant`) for one
//! `kemf_core::ensemble::ensemble_forward_with_precision` pass. The
//! property tests at the bottom pin the wire → int8-forward round trip to
//! its analytic error bound.

use kemf_nn::codec::{CodecError, Reader, Writer};
use kemf_nn::serialize::Weights;
use kemf_tensor::quant;
use serde::{Deserialize, Serialize};

pub use kemf_nn::layer::Precision as ComputePrecision;

/// A uniformly-quantized weight snapshot: int8 codes plus a per-chunk
/// affine dequantization `(scale, zero_point)`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QuantizedWeights {
    /// Int8 codes, one per scalar.
    pub codes: Vec<i8>,
    /// Per-chunk scale factors.
    pub scales: Vec<f32>,
    /// Per-chunk minimum values (affine offset).
    pub offsets: Vec<f32>,
    /// Chunk length used at quantization time.
    pub chunk: usize,
    /// Original per-parameter lengths (restored on dequantize).
    pub lens: Vec<usize>,
}

/// Why a quantized payload could not be encoded or decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompressError {
    /// Chunk length of zero — no block structure to decode.
    ZeroChunk,
    /// The number of per-chunk headers does not match the code count.
    ChunkMismatch {
        /// Chunks implied by `codes.len()` and `chunk`.
        expected: usize,
        /// `scales.len()` actually present.
        scales: usize,
        /// `offsets.len()` actually present.
        offsets: usize,
    },
    /// `lens` does not partition the decoded values.
    LenMismatch {
        /// Sum of the declared per-parameter lengths.
        lens_total: usize,
        /// Number of codes actually present.
        codes: usize,
    },
    /// A scale or offset is NaN/infinite, or input weights were.
    NonFinite,
    /// A wire-encoded payload does not hold its declared contents.
    Truncated {
        /// Bytes the section being decoded needs.
        needed: usize,
        /// Bytes present for it.
        got: usize,
    },
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressError::ZeroChunk => write!(f, "chunk length must be positive"),
            CompressError::ChunkMismatch { expected, scales, offsets } => write!(
                f,
                "expected {expected} chunk headers, got {scales} scales / {offsets} offsets"
            ),
            CompressError::LenMismatch { lens_total, codes } => {
                write!(f, "lens sum to {lens_total} but payload has {codes} codes")
            }
            CompressError::NonFinite => write!(f, "non-finite value in payload"),
            CompressError::Truncated { needed, got } => {
                write!(f, "wire payload truncated: needs {needed} bytes, got {got}")
            }
        }
    }
}

impl std::error::Error for CompressError {}

impl From<CodecError> for CompressError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Short { needed, left, .. } => CompressError::Truncated {
                needed: usize::try_from(needed).unwrap_or(usize::MAX),
                got: left,
            },
            // Only a size beyond this host's `usize`: no buffer holds it.
            CodecError::Malformed(_) => CompressError::Truncated { needed: usize::MAX, got: 0 },
        }
    }
}

/// Quantization chunk size: per-chunk ranges adapt to local weight
/// magnitudes (layers differ by orders of magnitude).
pub const DEFAULT_CHUNK: usize = 256;

/// Quantize a snapshot to int8 with per-chunk affine ranges. Rejects a
/// zero chunk length and non-finite weights (a NaN would poison the
/// chunk's range and decode as garbage on every peer).
///
/// Each chunk is [`kemf_tensor::quant::affine_chunk`]: offset `lo` and top
/// `hi` its least and greatest value, `scale = (hi − lo).max(1e-12) /
/// 255`, code `((v − lo) / scale).round().clamp(0, 255) − 128`. On
/// AVX-512 it runs 16 values a vector with the same codes, scales and
/// offsets as the scalar loop every other tier runs (`tests/quantize.rs`).
pub fn quantize(w: &Weights, chunk: usize) -> Result<QuantizedWeights, CompressError> {
    if chunk == 0 {
        return Err(CompressError::ZeroChunk);
    }
    // A fold per chunk rather than an early-exit scan: it vectorizes.
    if w.values.chunks(chunk).any(|block| block.iter().fold(false, |bad, v| bad | !v.is_finite())) {
        return Err(CompressError::NonFinite);
    }
    let mut codes = vec![0i8; w.values.len()];
    let (scales, offsets) =
        w.values.chunks(chunk).zip(codes.chunks_mut(chunk)).map(|(block, codes)| quant::affine_chunk(block, codes)).unzip();
    Ok(QuantizedWeights { codes, scales, offsets, chunk, lens: w.lens.clone() })
}

/// Reconstruct an approximate snapshot. Validates the payload first —
/// a truncated or corrupted [`QuantizedWeights`] returns an error
/// instead of panicking out of bounds in the server loop.
pub fn dequantize(q: &QuantizedWeights) -> Result<Weights, CompressError> {
    q.validate()?;
    let mut values = Vec::with_capacity(q.codes.len());
    for (bi, block) in q.codes.chunks(q.chunk).enumerate() {
        let scale = q.scales[bi];
        let lo = q.offsets[bi];
        for &c in block {
            values.push(lo + ((c as i32 + 128) as f32) * scale);
        }
    }
    Ok(Weights { values, lens: q.lens.clone() })
}

impl QuantizedWeights {
    /// Check structural integrity: chunk length positive, exactly one
    /// `(scale, offset)` header per chunk of codes, finite headers, and
    /// `lens` partitioning the codes.
    pub fn validate(&self) -> Result<(), CompressError> {
        if self.chunk == 0 {
            return Err(CompressError::ZeroChunk);
        }
        let expected = self.codes.len().div_ceil(self.chunk);
        if self.scales.len() != expected || self.offsets.len() != expected {
            return Err(CompressError::ChunkMismatch {
                expected,
                scales: self.scales.len(),
                offsets: self.offsets.len(),
            });
        }
        if self.scales.iter().chain(self.offsets.iter()).any(|v| !v.is_finite()) {
            return Err(CompressError::NonFinite);
        }
        let lens_total: usize = self.lens.iter().sum();
        if lens_total != self.codes.len() {
            return Err(CompressError::LenMismatch { lens_total, codes: self.codes.len() });
        }
        Ok(())
    }

    /// Wire size in bytes: one byte per scalar plus the per-chunk header.
    pub fn bytes(&self) -> usize {
        self.codes.len() + 8 * self.scales.len()
    }

    /// Compression ratio versus fp32.
    pub fn ratio(&self) -> f64 {
        (self.codes.len() * 4) as f64 / self.bytes() as f64
    }

    /// Encode to the transport wire format: length-prefixed sections in
    /// a fixed order, little-endian throughout. The inverse of
    /// [`QuantizedWeights::from_wire`].
    pub fn to_wire(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(
            8 * 5 + self.codes.len() + 4 * (self.scales.len() + self.offsets.len())
                + 8 * self.lens.len(),
        );
        w.i8s(&self.codes);
        w.f32s(&self.scales);
        w.f32s(&self.offsets);
        w.usize(self.chunk);
        w.u64s(&self.lens);
        w.into_bytes()
    }

    /// Decode the transport wire format written by
    /// [`QuantizedWeights::to_wire`]. The length guarding is
    /// [`kemf_nn::codec::Reader`]'s, so truncated or corrupted inputs
    /// surface as [`CompressError::Truncated`] — never a panic or an
    /// unbounded allocation.
    pub fn from_wire(bytes: &[u8]) -> Result<Self, CompressError> {
        let mut r = Reader::new(bytes);
        let q = QuantizedWeights {
            codes: r.i8s("codes")?,
            scales: r.f32s("scales")?,
            offsets: r.f32s("offsets")?,
            chunk: r.usize()?,
            lens: r.u64s("lens")?,
        };
        // Trailing garbage is corruption too: the payload needed fewer
        // bytes than it was given.
        match r.rest().len() {
            0 => Ok(q),
            extra => Err(CompressError::Truncated { needed: bytes.len() - extra, got: bytes.len() }),
        }
    }
}

/// Worst-case absolute reconstruction error of a quantize→dequantize
/// round trip (measured, not theoretical).
pub fn max_abs_error(original: &Weights, restored: &Weights) -> f32 {
    original
        .values
        .iter()
        .zip(restored.values.iter())
        .map(|(&a, &b)| (a - b).abs())
        .fold(0.0, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kemf_nn::model::Model;
    use kemf_nn::models::{Arch, ModelSpec};

    fn snapshot() -> Weights {
        Model::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 1)).weights()
    }

    #[test]
    fn roundtrip_error_bounded_by_half_step() {
        let w = snapshot();
        let q = quantize(&w, DEFAULT_CHUNK).unwrap();
        let restored = dequantize(&q).unwrap();
        assert_eq!(restored.values.len(), w.values.len());
        assert_eq!(restored.lens, w.lens);
        let max_scale = q.scales.iter().copied().fold(0.0f32, f32::max);
        let err = max_abs_error(&w, &restored);
        assert!(err <= max_scale * 0.5 + 1e-6, "error {err} vs half-step {}", max_scale * 0.5);
    }

    #[test]
    fn wire_codec_round_trips_exactly() {
        let w = snapshot();
        let q = quantize(&w, DEFAULT_CHUNK).unwrap();
        let wire = q.to_wire();
        let back = QuantizedWeights::from_wire(&wire).unwrap();
        assert_eq!(back, q, "wire round trip must be lossless");
        back.validate().unwrap();
    }

    #[test]
    fn wire_codec_rejects_truncation_at_every_cut() {
        let w = Weights { values: (0..80).map(|i| i as f32 * 0.1).collect(), lens: vec![50, 30] };
        let q = quantize(&w, 32).unwrap();
        let wire = q.to_wire();
        // Any strict prefix must fail loudly, never panic or mis-decode.
        for cut in 0..wire.len() {
            let err = QuantizedWeights::from_wire(&wire[..cut]);
            assert!(err.is_err(), "prefix of {cut}/{} bytes decoded", wire.len());
        }
        // Trailing garbage is corruption too.
        let mut long = wire.clone();
        long.push(0);
        assert!(QuantizedWeights::from_wire(&long).is_err());
    }

    #[test]
    fn wire_codec_rejects_hostile_section_lengths() {
        // A header declaring more codes than the buffer could ever hold
        // must be refused before any allocation happens.
        let mut hostile = vec![0u8; 16];
        hostile[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            QuantizedWeights::from_wire(&hostile),
            Err(CompressError::Truncated { .. })
        ));
    }

    #[test]
    fn achieves_near_4x_compression() {
        let w = snapshot();
        let q = quantize(&w, DEFAULT_CHUNK).unwrap();
        assert!(q.ratio() > 3.5, "ratio {}", q.ratio());
        assert!(q.bytes() < w.bytes() / 3);
    }

    #[test]
    fn quantized_model_predictions_stay_close() {
        let spec = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 2);
        let mut m = Model::new(spec);
        let mut rng = kemf_tensor::rng::seeded_rng(5);
        let x = kemf_tensor::Tensor::randn(&[8, 1, 12, 12], 1.0, &mut rng);
        let before = m.predict(&x);
        let q = quantize(&m.weights(), DEFAULT_CHUNK).unwrap();
        m.set_weights(&dequantize(&q).unwrap());
        let after = m.predict(&x);
        // Top-1 decisions should rarely flip on an untrained net's margins;
        // logits must stay numerically close.
        let diff: f32 = before
            .data()
            .iter()
            .zip(after.data().iter())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max);
        assert!(diff < 0.2, "max logit drift {diff}");
    }

    #[test]
    fn constant_block_quantizes_exactly() {
        let w = Weights { values: vec![0.25; 100], lens: vec![100] };
        let restored = dequantize(&quantize(&w, 32).unwrap()).unwrap();
        kemf_tensor::assert_close(&restored.values, &w.values, 1e-6);
    }

    #[test]
    fn ragged_tail_chunk_handled() {
        let w = Weights { values: (0..77).map(|i| i as f32 / 10.0).collect(), lens: vec![77] };
        let q = quantize(&w, 32).unwrap();
        assert_eq!(q.scales.len(), 3);
        let restored = dequantize(&q).unwrap();
        assert!(max_abs_error(&w, &restored) < 0.05);
    }

    #[test]
    fn quantize_rejects_bad_input() {
        let w = Weights { values: vec![1.0, f32::NAN], lens: vec![2] };
        assert_eq!(quantize(&w, 32).unwrap_err(), CompressError::NonFinite);
        let w = Weights { values: vec![1.0, f32::INFINITY], lens: vec![2] };
        assert_eq!(quantize(&w, 32).unwrap_err(), CompressError::NonFinite);
        let ok = Weights { values: vec![1.0, 2.0], lens: vec![2] };
        assert_eq!(quantize(&ok, 0).unwrap_err(), CompressError::ZeroChunk);
    }

    #[test]
    fn dequantize_rejects_corrupt_payloads() {
        let w = Weights { values: (0..64).map(|i| i as f32).collect(), lens: vec![64] };
        let good = quantize(&w, 16).unwrap();

        // Truncated header vector: used to index out of bounds.
        let mut q = good.clone();
        q.scales.pop();
        assert!(matches!(dequantize(&q), Err(CompressError::ChunkMismatch { .. })));

        // Zero chunk: used to panic inside `chunks(0)`.
        let mut q = good.clone();
        q.chunk = 0;
        assert_eq!(dequantize(&q).unwrap_err(), CompressError::ZeroChunk);

        // Lens that no longer partition the payload.
        let mut q = good.clone();
        q.lens = vec![63];
        assert!(matches!(dequantize(&q), Err(CompressError::LenMismatch { .. })));

        // A NaN header smuggled past quantization.
        let mut q = good.clone();
        q.offsets[0] = f32::NAN;
        assert_eq!(dequantize(&q).unwrap_err(), CompressError::NonFinite);

        // The untouched payload still decodes.
        assert!(dequantize(&good).is_ok());
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use kemf_tensor::gemm::{gemm_naive, Store};
    use kemf_tensor::quant;
    use kemf_tensor::rng::seeded_rng;
    use proptest::prelude::*;
    use rand::Rng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Wire round trip: every element lands within half a
        /// quantization step of its chunk.
        #[test]
        fn wire_roundtrip_within_half_step(
            pool in prop::collection::vec(-8.0f32..8.0, 300),
            len in 1usize..300,
            chunk in 1usize..64,
        ) {
            let values = pool[..len].to_vec();
            let w = Weights { values: values.clone(), lens: vec![values.len()] };
            let q = quantize(&w, chunk).unwrap();
            let r = dequantize(&q).unwrap();
            for (bi, block) in values.chunks(chunk).enumerate() {
                let tol = q.scales[bi] * 0.5 + 1e-5;
                for (a, b) in block.iter().zip(&r.values[bi * chunk..]) {
                    prop_assert!((a - b).abs() <= tol, "{a} vs {b} (half-step {tol})");
                }
            }
        }

        /// Full round trip of the server's quantized inference: weights
        /// cross the wire (affine int8), then the forward pass itself
        /// runs in the symmetric int8 compute format. The end-to-end
        /// error stays within the sum of the compute-format bound
        /// (actual scales) and the wire error propagated through the
        /// product (k · max|x| · half-step).
        #[test]
        fn quantize_then_int8_forward_within_combined_bound(
            m in 1usize..6,
            k in 1usize..48,
            n in 1usize..16,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = seeded_rng(seed);
            let x: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            let wmat: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();

            // Wire leg: weights travel as affine int8 chunks.
            let w = Weights { values: wmat.clone(), lens: vec![wmat.len()] };
            let q = quantize(&w, DEFAULT_CHUNK).unwrap();
            let restored = dequantize(&q).unwrap().values;
            let wire_half_step = q.scales.iter().copied().fold(0.0f32, f32::max) * 0.5;

            // Compute leg: symmetric int8 GEMM over the restored weights
            // ([n, k] is exactly the Linear weight layout).
            let mut qa = vec![0i8; quant::a_codes_len(m, k)];
            let mut sa = vec![0.0f32; m];
            quant::quantize_a_rows(&x, m, k, &mut qa, &mut sa);
            let mut bp = vec![0i8; quant::b_pack_len(k, n)];
            let mut sb = vec![0.0f32; n];
            quant::pack_b_transposed(&restored, n, k, &mut bp, &mut sb);
            let mut got = vec![0.0f32; m * n];
            quant::gemm_i8(m, k, n, &qa, &sa, &bp, &sb, &mut Store { c: &mut got, ldc: n });

            let exact = gemm_naive(m, k, n, |i, kk| x[i * k + kk], |kk, j| wmat[j * k + kk]);
            for i in 0..m {
                let max_a = x[i * k..(i + 1) * k].iter().fold(0.0f32, |mx, &v| mx.max(v.abs()));
                for j in 0..n {
                    let max_b = restored[j * k..(j + 1) * k]
                        .iter()
                        .fold(0.0f32, |mx, &v| mx.max(v.abs()));
                    let bound = quant::error_bound(k, max_a, sa[i], max_b, sb[j])
                        + k as f32 * max_a * wire_half_step;
                    let err = (got[i * n + j] - exact[i * n + j]).abs();
                    prop_assert!(
                        err <= bound * 1.05 + 1e-4,
                        "({i},{j}): err {err} > bound {bound}"
                    );
                }
            }
        }
    }
}
