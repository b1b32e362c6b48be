//! Seeded randomness helpers and weight-initialization fills.
//!
//! Every experiment in the workspace is reproducible: all stochasticity
//! flows from explicit `u64` seeds through [`seeded_rng`]. Gaussian
//! sampling uses Box–Muller so we stay within the base `rand` crate.

use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic RNG from a seed.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derive a child seed from a parent seed and a stream id, so parallel
/// clients get decorrelated but reproducible streams.
pub fn child_seed(parent: u64, stream: u64) -> u64 {
    // splitmix64 finalizer over the pair; cheap and well-mixed.
    let mut z = parent ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One standard-normal sample via Box–Muller.
pub fn sample_normal(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

impl Tensor {
    /// Tensor of i.i.d. `N(0, std²)` samples.
    pub fn randn(dims: &[usize], std: f32, rng: &mut StdRng) -> Tensor {
        let mut t = Tensor::zeros(dims);
        for v in t.data_mut() {
            *v = sample_normal(rng) * std;
        }
        t
    }

    /// Kaiming/He normal initialization for a weight tensor whose fan-in is
    /// `fan_in` (gain √2, the ReLU convention).
    pub fn kaiming(dims: &[usize], fan_in: usize, rng: &mut StdRng) -> Tensor {
        let std = (2.0 / fan_in.max(1) as f32).sqrt();
        Tensor::randn(dims, std, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_deterministic() {
        let a = Tensor::randn(&[100], 1.0, &mut seeded_rng(42));
        let b = Tensor::randn(&[100], 1.0, &mut seeded_rng(42));
        assert_eq!(a.data(), b.data());
        let c = Tensor::randn(&[100], 1.0, &mut seeded_rng(43));
        assert_ne!(a.data(), c.data());
    }

    #[test]
    fn child_seeds_differ_per_stream() {
        let s: Vec<u64> = (0..16).map(|i| child_seed(7, i)).collect();
        for i in 0..s.len() {
            for j in i + 1..s.len() {
                assert_ne!(s[i], s[j]);
            }
        }
        assert_eq!(child_seed(7, 3), child_seed(7, 3));
    }

    #[test]
    fn normal_moments_roughly_correct() {
        let mut rng = seeded_rng(1);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| sample_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn kaiming_std_scales_with_fan_in() {
        let mut rng = seeded_rng(2);
        let t = Tensor::kaiming(&[64, 64], 64, &mut rng);
        let std = (t.sq_norm() / t.numel() as f32).sqrt();
        let expect = (2.0f32 / 64.0).sqrt();
        assert!((std - expect).abs() < 0.02, "std {std} vs {expect}");
    }
}
