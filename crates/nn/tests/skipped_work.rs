//! Two passes leave work out and must change nothing else.
//!
//! The MLP's training step: `Sequential::backward_first` passes the
//! first-layer role over `Mlp1`'s leading `Flatten` to its first `Linear`,
//! which then leaves out its `g · W` — the same parameter gradients as the
//! full backward, `2·B·width·in` FLOPs fewer.
//!
//! `Mode::BatchStats`, the teacher pass of distillation and the client
//! logits of FedMD/FedGEMS: `predict_batch_stats` must give a training
//! forward's logits and leave its running statistics, to the bit, on both
//! tiers — for ResNet-20 and VGG-11 at the 48-image distillation pool and
//! at 16, `Cnn2` and `Mlp1` — while caching nothing, so a `backward` after
//! it panics as after an inference pass.
//!
//! This file holds exactly one test: the FLOP counter is process-wide, and
//! a concurrent test would add to it.

use kemf_nn::layer::Mode;
use kemf_nn::loss::cross_entropy_ws;
use kemf_nn::model::Model;
use kemf_nn::models::{Arch, ModelSpec};
use kemf_nn::optim::{Sgd, SgdConfig};
use kemf_nn::serialize::Weights;
use kemf_tensor::rng::seeded_rng;
use kemf_tensor::simd::ScalarGuard;
use kemf_tensor::{flops, Tensor};

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
        let logits = model.forward(&x, Mode::Train);
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

/// The logits and the running statistics after one pass of `model` —
/// `predict_batch_stats`, or a training forward — as bit patterns.
fn stats_pass(mut model: Model, x: &Tensor, batch_stats: bool) -> Vec<u32> {
    let logits = if batch_stats { model.predict_batch_stats(x) } else { model.forward(x, Mode::Train) };
    let buffers = model.state().buffers.values;
    logits.data().iter().chain(&buffers).map(|v| v.to_bits()).collect()
}

/// `predict_batch_stats` is a training forward without the cache: the
/// same bits as one, and no backward after it. The model is a teacher's:
/// two SGD steps past its initialization, so batch norm's `γ` and `β` are
/// no longer the 1 and 0 under which differently associated
/// normalizations agree.
fn batch_stats_is_train_without_the_cache(name: &str, spec: ModelSpec, batch: usize) {
    let mut rng = seeded_rng(batch as u64 + 100);
    let x = Tensor::randn(&[batch, spec.in_channels, spec.input_hw, spec.input_hw], 1.0, &mut rng);
    let labels: Vec<usize> = (0..batch).map(|i| (i * 3) % spec.classes).collect();
    let mut model = Model::new(spec);
    let mut opt = Sgd::new(SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 5e-4 });
    for _ in 0..2 {
        model.train_batch(&x, &labels, &mut opt);
    }
    let batch_stats = stats_pass(model.clone(), &x, true);
    let train = stats_pass(model.clone(), &x, false);
    assert!(batch_stats == train, "{name} at batch {batch}: predict_batch_stats is not a training forward");

    let logits = model.predict_batch_stats(&x);
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| model.backward(&logits)))
        .expect_err("a backward after predict_batch_stats must panic: nothing was cached");
    let msg = panic.downcast_ref::<String>().map(String::as_str).or(panic.downcast_ref::<&str>().copied());
    assert!(
        msg.is_some_and(|m| m.contains("without forward(train)")),
        "{name}: backward after predict_batch_stats panicked with {msg:?}"
    );
}

#[test]
fn skipped_work_changes_no_result() {
    mlp_step_skips_only_the_first_linear_input_gradient();

    let resnet = ModelSpec::scaled(Arch::ResNet20, 3, 16, 10, 11);
    let vgg = ModelSpec::scaled(Arch::Vgg11, 3, 16, 10, 12);
    let stats_cases = [
        ("ResNet-20", resnet, 48),
        ("ResNet-20", resnet, 16),
        ("VGG-11", vgg, 48),
        ("VGG-11", vgg, 16),
        ("Cnn2", ModelSpec::scaled(Arch::Cnn2, 3, 16, 10, 13), 16),
        ("Mlp1", ModelSpec::scaled(Arch::Mlp1, 3, 16, 10, 14), 16),
    ];
    for (name, spec, batch) in stats_cases {
        batch_stats_is_train_without_the_cache(name, spec, batch);
    }
    let _scalar = ScalarGuard::new();
    for (name, spec, batch) in stats_cases {
        batch_stats_is_train_without_the_cache(&format!("{name}, scalar tier"), spec, batch);
    }
}
