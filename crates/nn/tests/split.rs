//! A layer pass called outside a share splits its products over the
//! compute width (`kemf_tensor::par::split`): a convolution by images and
//! input channels, batch norm by channels then images, element-wise
//! layers by ranges. Each output element is still computed by one thread,
//! by the code that computes it inline, so the split pass must be the
//! inline pass bit for bit — logits, every parameter gradient, the input
//! gradient, the weights after training steps, the batch-norm running
//! statistics — and must credit the FLOP counter exactly what the inline
//! pass credits. The inline pass is the same call inside a one-item
//! `par::fork_join`, where it runs on the calling thread. Checked for the
//! benchmark's ResNet-20 (the FedKEMF student, batches 32 and 16), VGG-11
//! at batch 16 and a 64-image evaluation, on the native kernel tier and
//! on the scalar one.
//!
//! A second leg pins the MLP's training step: `Sequential::backward_first`
//! passes the first-layer role over `Mlp1`'s leading `Flatten` to its
//! first `Linear`, which then leaves out its `g · W` — the same parameter
//! gradients as the full backward, `2·B·width·in` FLOPs fewer.
//!
//! This file holds exactly one test: the helpers and the FLOP counter are
//! process-wide, and a concurrent test would take the helpers (its passes
//! then run inline) or add to the counter.

use kemf_nn::loss::cross_entropy_ws;
use kemf_nn::model::Model;
use kemf_nn::models::{Arch, ModelSpec};
use kemf_nn::optim::{Sgd, SgdConfig};
use kemf_nn::serialize::Weights;
use kemf_tensor::rng::seeded_rng;
use kemf_tensor::simd::ScalarGuard;
use kemf_tensor::{flops, par, Tensor};

/// Everything one model computes on one batch, as bit patterns, and the
/// FLOPs it credited: the training forward's logits, the full backward's
/// parameter and input gradients, the weights and running statistics
/// after two SGD steps, then the inference logits.
fn passes(mut model: Model, x: &Tensor, labels: &[usize]) -> (Vec<u32>, u64) {
    let before = flops::total();
    let mut bits: Vec<u32> = Vec::new();
    let mut push = |v: &[f32]| bits.extend(v.iter().map(|v| v.to_bits()));
    model.zero_grad();
    let logits = model.forward(x, true);
    let (_, grad) = cross_entropy_ws(&logits, labels, model.ws_mut());
    let gx = model.backward(&grad);
    push(logits.data());
    push(gx.data());
    push(&Weights::grads_from_layer(model.net()).values);
    let mut opt = Sgd::new(SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 5e-4, nesterov: false });
    for _ in 0..2 {
        push(&[model.train_batch(x, labels, &mut opt)]);
    }
    let state = model.state();
    push(&state.params.values);
    push(&state.buffers.values);
    push(model.predict(x).data());
    (bits, flops::total() - before)
}

/// The passes split (called here, outside any share) and inline (the
/// same call as the one item of a `par::fork_join`) agree to the bit and
/// the FLOP.
fn split_is_inline(name: &str, spec: ModelSpec, batch: usize) {
    let mut rng = seeded_rng(batch as u64);
    let x = Tensor::randn(&[batch, spec.in_channels, spec.input_hw, spec.input_hw], 1.0, &mut rng);
    let labels: Vec<usize> = (0..batch).map(|i| (i * 7) % spec.classes).collect();
    let split = passes(Model::new(spec), &x, &labels);
    let inline = par::fork_join(vec![Model::new(spec)], |model| passes(model, &x, &labels)).remove(0);
    assert!(split.0 == inline.0, "{name} at batch {batch}: split and inline passes differ");
    assert_eq!(split.1, inline.1, "{name} at batch {batch}: split products credited other FLOPs");
}

/// `Mlp1`'s training step leaves out exactly its first `Linear`'s input
/// gradient and nothing else.
fn mlp_step_skips_only_the_first_linear_input_gradient() {
    let (batch, width, inputs) = (16, 2048, 12 * 12);
    let spec = ModelSpec { width, ..ModelSpec::scaled(Arch::Mlp1, 1, 12, 10, 4) };
    let x = Tensor::randn(&[batch, 1, 12, 12], 1.0, &mut seeded_rng(5));
    let labels: Vec<usize> = (0..batch).map(|i| i % 10).collect();
    let step = |full: bool| {
        let mut model = Model::new(spec);
        let before = flops::total();
        let logits = model.forward(&x, true);
        let (_, grad) = cross_entropy_ws(&logits, &labels, model.ws_mut());
        if full {
            drop(model.backward(&grad));
        } else {
            model.backward_params(&grad);
        }
        (Weights::grads_from_layer(model.net()), flops::total() - before)
    };
    let (full_grads, full_flops) = step(true);
    let (step_grads, step_flops) = step(false);
    assert_eq!(step_grads, full_grads, "the parameter gradients must not change");
    assert_eq!(full_flops - step_flops, 2 * (batch * width * inputs) as u64, "exactly g · W of the first Linear");
}

#[test]
fn split_passes_are_the_inline_passes_bit_for_bit() {
    let resnet = ModelSpec::scaled(Arch::ResNet20, 3, 16, 10, 11);
    let vgg = ModelSpec::scaled(Arch::Vgg11, 3, 16, 10, 12);
    let cases = [
        ("ResNet-20", resnet, 32),
        ("ResNet-20", resnet, 16),
        ("VGG-11", vgg, 16),
        ("ResNet-20, an evaluation batch", resnet, 64),
    ];
    for (name, spec, batch) in cases {
        split_is_inline(name, spec, batch);
    }
    {
        let _scalar = ScalarGuard::new();
        for (name, spec, batch) in cases {
            split_is_inline(&format!("{name}, scalar tier"), spec, batch);
        }
    }
    if par::width() > 1 {
        assert!(par::helpers_started() > 0, "at width {} the passes above must have split", par::width());
    }
    mlp_step_skips_only_the_first_linear_input_gradient();
}
