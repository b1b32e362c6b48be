//! `compress::quantize` runs a chunk 16 values a vector on AVX-512
//! (`kemf_tensor::quant::affine_chunk`). It may not change a code, a
//! scale or an offset — they are the wire bytes every peer decodes. The
//! reference below is the quantizer as it was written, one scalar fold
//! for each extreme and one scalar expression per code. Checked natively
//! and under `ScalarGuard` (`scripts/ci.sh` runs this file under
//! `KEMF_SIMD=avx2` and `=scalar` too) on:
//!
//! * the 317,450 parameters of the `avg_mlp_socket` benchmark's MLP;
//! * random values at several scales, chunk lengths of 1 to 256 and a
//!   ragged last chunk;
//! * chunks of `+0.0` and `−0.0` alone and in every order, zeros as the
//!   least or the greatest value beside others, and constant chunks;
//! * values exactly half a step from a code, which round away from zero.
//!
//! And the socket transport's payload built around the encoded model is
//! the same byte string.

use kemf_fl::compress::{quantize, QuantizedWeights};
use kemf_fl::transport::build_payload;
use kemf_nn::model::Model;
use kemf_nn::models::{Arch, ModelSpec};
use kemf_nn::serialize::Weights;
use kemf_tensor::rng::{sample_normal, seeded_rng};
use kemf_tensor::simd::ScalarGuard;

/// The quantizer as it was written: per chunk the folds, the scale, then
/// each code.
fn reference(values: &[f32], chunk: usize) -> QuantizedWeights {
    let (mut codes, mut scales, mut offsets) = (Vec::new(), Vec::new(), Vec::new());
    for block in values.chunks(chunk) {
        let lo = block.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = block.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let range = (hi - lo).max(1e-12);
        let scale = range / 255.0;
        scales.push(scale);
        offsets.push(lo);
        for &v in block {
            let code = ((v - lo) / scale).round().clamp(0.0, 255.0) as i32 - 128;
            codes.push(code as i8);
        }
    }
    QuantizedWeights { codes, scales, offsets, chunk, lens: vec![values.len()] }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The quantizer's output against the reference's, on both tiers.
fn check(name: &str, values: &[f32], chunk: usize) {
    let want = reference(values, chunk);
    let w = Weights { values: values.to_vec(), lens: vec![values.len()] };
    for scalar in [false, true] {
        let _guard = scalar.then(ScalarGuard::new);
        let got = quantize(&w, chunk).expect("finite values, positive chunk");
        let tier = if scalar { "scalar" } else { "native" };
        assert!(got.codes == want.codes, "{name}, chunk {chunk}, {tier}: codes differ");
        assert!(bits(&got.scales) == bits(&want.scales), "{name}, chunk {chunk}, {tier}: scales differ");
        assert!(bits(&got.offsets) == bits(&want.offsets), "{name}, chunk {chunk}, {tier}: offsets differ");
        assert!(got.to_wire() == want.to_wire(), "{name}, chunk {chunk}, {tier}: wire bytes differ");
    }
}

#[test]
fn vector_quantize_gives_the_scalar_codes_scales_and_offsets() {
    let mlp = ModelSpec { width: 2048, ..ModelSpec::scaled(Arch::Mlp1, 1, 12, 10, 3) };
    let weights = Model::new(mlp).weights();
    assert_eq!(weights.values.len(), 317_450);
    check("MLP", &weights.values, 256);

    let mut rng = seeded_rng(47);
    for scale in [1e-6f32, 0.05, 1.0, 3e4] {
        let values: Vec<f32> = (0..1000).map(|_| sample_normal(&mut rng) * scale).collect();
        for chunk in [1, 7, 16, 33, 256] {
            check(&format!("random ×{scale}"), &values, chunk);
        }
    }

    // Zeros: alone in both orders, as the least value of positives and the
    // greatest of negatives, each sign first; constant chunks.
    let zeros: &[(&str, Vec<f32>)] = &[
        ("+0 only", vec![0.0; 40]),
        ("−0 only", vec![-0.0; 40]),
        ("+0 then −0", [vec![0.0; 20], vec![-0.0; 20]].concat()),
        ("−0 then +0", [vec![-0.0; 20], vec![0.0; 20]].concat()),
        ("±0 alternating", (0..40).map(|i| if i % 3 == 0 { -0.0 } else { 0.0 }).collect()),
        ("positives, −0 then +0", (0..40).map(|i| [0.5, -0.0, 1.5, 0.0][i % 4]).collect()),
        ("positives, +0 then −0", (0..40).map(|i| [2.0, 0.0, 0.25, -0.0][i % 4]).collect()),
        ("negatives, +0 then −0", (0..40).map(|i| [-0.5, 0.0, -1.5, -0.0][i % 4]).collect()),
        ("negatives, −0 then +0", (0..40).map(|i| [-2.0, -0.0, -0.25, 0.0][i % 4]).collect()),
        ("constant", vec![0.25; 40]),
        ("constant negative", vec![-3.5; 40]),
    ];
    for (name, values) in zeros {
        for chunk in [1, 5, 16, 17, 40] {
            check(name, values, chunk);
        }
    }

    // Exact halves: with lo = 0 and hi = 255·s, value (k + ½)·s sits half
    // a step above code k (s a power of two keeps every product exact).
    let s = 2f32.powi(-6);
    let mut halves = vec![0.0, 255.0 * s];
    halves.extend((0..255).map(|k| (k as f32 + 0.5) * s));
    check("exact halves", &halves, 257);
    check("exact halves, ragged", &halves, 100);
}

#[test]
fn the_socket_payload_around_a_quantized_model_is_unchanged() {
    let weights = Model::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 5)).weights();
    let want = QuantizedWeights { lens: weights.lens.clone(), ..reference(&weights.values, 256) }.to_wire();
    let got = quantize(&weights, 256).expect("finite weights").to_wire();
    let len = (want.len() + 64) as u64;
    assert!(build_payload(len, 9, Some(&got)) == build_payload(len, 9, Some(&want)), "payload bytes differ");
}
