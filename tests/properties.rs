//! Property-based tests over the stack's core invariants, spanning
//! crates the way downstream users compose them.

use fedkemf::core::ensemble::{ensemble_logits, standardize_rows, EnsembleStrategy};
use fedkemf::data::dirichlet::{dirichlet_partition, sample_dirichlet};
use fedkemf::fl::compress::{dequantize, quantize, QuantizedWeights};
use fedkemf::nn::loss::{cross_entropy_ws, kl_to_target_ws, soften};
use fedkemf::nn::serialize::Weights;
use fedkemf::prelude::*;
use fedkemf::tensor::ops::{argmax_rows, log_softmax, softmax};
use fedkemf::tensor::rng::seeded_rng;
use fedkemf::tensor::workspace::Workspace;
use fedkemf::tensor::Tensor;
use proptest::prelude::*;

fn logits_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-8.0f32..8.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(v, &[rows, cols]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn softmax_rows_are_distributions(t in logits_strategy(4, 7)) {
        let s = softmax(&t);
        for r in 0..4 {
            let row = &s.data()[r * 7..(r + 1) * 7];
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn softmax_is_shift_invariant(t in logits_strategy(2, 5), shift in -10.0f32..10.0) {
        let a = softmax(&t);
        let b = softmax(&t.map(|v| v + shift));
        for (x, y) in a.data().iter().zip(b.data().iter()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn log_softmax_is_log_of_softmax(t in logits_strategy(3, 4)) {
        let ls = log_softmax(&t);
        let s = softmax(&t);
        for (l, p) in ls.data().iter().zip(s.data().iter()) {
            prop_assert!((l.exp() - p).abs() < 1e-4);
        }
    }

    #[test]
    fn kl_is_nonnegative_and_zero_on_self(t in logits_strategy(3, 6), u in logits_strategy(3, 6)) {
        let ws = &mut Workspace::new();
        let target = soften(&u, 1.0);
        let (loss, _) = kl_to_target_ws(&t, &target, 1.0, ws);
        prop_assert!(loss >= -1e-5, "KL must be non-negative, got {loss}");
        let (self_loss, grad) = kl_to_target_ws(&t, &soften(&t, 1.0), 1.0, ws);
        prop_assert!(self_loss.abs() < 1e-4);
        prop_assert!(grad.norm() < 1e-4);
    }

    #[test]
    fn cross_entropy_bounded_below_by_zero(t in logits_strategy(4, 5), labels in prop::collection::vec(0usize..5, 4)) {
        let (loss, grad) = cross_entropy_ws(&t, &labels, &mut Workspace::new());
        prop_assert!(loss >= 0.0);
        // Gradient rows sum to ~0 (softmax minus one-hot property).
        for r in 0..4 {
            let s: f32 = grad.data()[r * 5..(r + 1) * 5].iter().sum();
            prop_assert!(s.abs() < 1e-5);
        }
    }

    #[test]
    fn max_ensemble_dominates_standardized_members(
        a in logits_strategy(3, 5),
        b in logits_strategy(3, 5),
        c in logits_strategy(3, 5),
    ) {
        let members = vec![a, b, c];
        let e = ensemble_logits(&members, EnsembleStrategy::MaxLogits);
        for m in &members {
            let sm = standardize_rows(m);
            for (ev, mv) in e.data().iter().zip(sm.data().iter()) {
                prop_assert!(ev >= mv);
            }
        }
    }

    #[test]
    fn standardization_preserves_row_argmax(t in logits_strategy(4, 6)) {
        prop_assert_eq!(argmax_rows(&t), argmax_rows(&standardize_rows(&t)));
    }

    #[test]
    fn vote_ensemble_rows_are_distributions(
        a in logits_strategy(3, 4),
        b in logits_strategy(3, 4),
    ) {
        let e = ensemble_logits(&[a, b], EnsembleStrategy::MajorityVote);
        for r in 0..3 {
            let sum: f32 = e.data()[r * 4..(r + 1) * 4].iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn dirichlet_samples_are_simplex_points(alpha in 0.01f64..20.0, k in 2usize..12) {
        let mut rng = seeded_rng(7);
        let p = sample_dirichlet(alpha, k, &mut rng);
        prop_assert_eq!(p.len(), k);
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn partition_conserves_all_samples(
        n in 40usize..200,
        clients in 2usize..6,
        alpha in 0.05f64..5.0,
        seed in 0u64..1000,
    ) {
        let labels: Vec<usize> = (0..n).map(|i| i % 4).collect();
        let shards = dirichlet_partition(&labels, 4, clients, alpha, 1, seed);
        let mut all: Vec<usize> = shards.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn weights_average_is_convex(coeff in 0.01f32..0.99) {
        let a = Weights { values: vec![0.0, 10.0, -4.0], lens: vec![3] };
        let b = Weights { values: vec![2.0, 0.0, 4.0], lens: vec![3] };
        let avg = Weights::weighted_average(&[a.clone(), b.clone()], &[coeff, 1.0 - coeff]);
        for ((&x, &y), &m) in a.values.iter().zip(b.values.iter()).zip(avg.values.iter()) {
            let (lo, hi) = if x < y { (x, y) } else { (y, x) };
            prop_assert!(m >= lo - 1e-5 && m <= hi + 1e-5, "{m} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn soften_output_flatter_at_higher_temperature(t in logits_strategy(1, 6), tau in 1.5f32..8.0) {
        let sharp = soften(&t, 1.0);
        let soft = soften(&t, tau);
        prop_assert!(soft.max() <= sharp.max() + 1e-5);
    }

    #[test]
    fn dequantize_never_panics_on_arbitrary_payloads(
        codes in prop::collection::vec(-128i32..128, 160),
        n_codes in 0usize..160,
        headers in prop::collection::vec(-2.0f32..2.0, 16),
        n_scales in 0usize..16,
        n_offsets in 0usize..16,
        chunk in 0usize..48,
        lens in prop::collection::vec(0usize..200, 4),
        n_lens in 0usize..4,
    ) {
        // A `QuantizedWeights` assembled from arbitrary (possibly
        // mutually inconsistent) pieces — the shape a corrupted or
        // malicious upload would take. Decoding must classify it, never
        // index out of bounds: a returned error is fine, a panic is not.
        let q = QuantizedWeights {
            codes: codes[..n_codes].iter().map(|&c| c as i8).collect(),
            scales: headers[..n_scales].to_vec(),
            offsets: headers[..n_offsets.min(headers.len())].to_vec(),
            chunk,
            lens: lens[..n_lens].to_vec(),
        };
        if let Ok(w) = dequantize(&q) {
            // Anything that decodes must be self-consistent.
            prop_assert_eq!(w.values.len(), q.codes.len());
            prop_assert_eq!(w.lens.iter().sum::<usize>(), w.values.len());
            prop_assert!(w.values.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn quantize_roundtrip_always_decodes_for_finite_weights(
        values in prop::collection::vec(-50.0f32..50.0, 120),
        n in 1usize..120,
        chunk in 1usize..64,
    ) {
        let w = Weights { values: values[..n].to_vec(), lens: vec![n] };
        let q = quantize(&w, chunk).expect("finite weights quantize");
        prop_assert!(q.validate().is_ok());
        let r = dequantize(&q).expect("own output decodes");
        prop_assert_eq!(r.values.len(), n);
        prop_assert_eq!(&r.lens, &w.lens);
    }
}

#[test]
fn weights_roundtrip_through_any_model() {
    // Deterministic (non-proptest) cross-crate roundtrip for every arch.
    for arch in [Arch::ResNet20, Arch::ResNet32, Arch::ResNet44, Arch::Vgg11, Arch::Cnn2] {
        let (ch, hw) = if arch == Arch::Cnn2 { (1, 12) } else { (3, 16) };
        let spec = ModelSpec::scaled(arch, ch, hw, 10, 1);
        let m = Model::new(spec);
        let state = m.state();
        let mut m2 = Model::new(ModelSpec { seed: 2, ..spec });
        m2.set_state(&state);
        assert_eq!(m2.state(), state, "{} state roundtrip", arch.display());
    }
}
