//! Shared local-training loop used by every weight-sharing baseline.
//!
//! The baselines differ only in (a) an optional per-batch gradient hook
//! (FedProx's proximal term, SCAFFOLD's control-variate correction) and
//! (b) how the server aggregates; the SGD loop itself is common, and each
//! of its steps is `Model::train_step` with the cross-entropy loss.

use kemf_data::dataset::Dataset;
use kemf_nn::layer::Layer;
use kemf_nn::loss::cross_entropy_ws;
use kemf_nn::model::Model;
use kemf_nn::optim::{Sgd, SgdConfig};
use kemf_tensor::rng::seeded_rng;

/// Per-batch gradient hook: runs after backward and before the optimizer
/// step (FedProx proximal term, SCAFFOLD control-variate correction).
pub type GradHook<'a> = &'a dyn Fn(&mut dyn Layer);

/// Per-round local-training parameters.
#[derive(Clone, Copy, Debug)]
pub struct LocalCfg {
    /// Local epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Optimizer settings (lr already scheduled for this round).
    pub sgd: SgdConfig,
}

/// Outcome of one client's local training.
#[derive(Clone, Copy, Debug)]
pub struct LocalOutcome {
    /// SGD steps actually taken (FedNova's τ).
    pub steps: usize,
    /// Mean training loss over all batches.
    pub mean_loss: f32,
}

/// Train `model` on `data` for `cfg.epochs` epochs. `grad_hook`, when
/// present, runs after each backward pass and before the optimizer step —
/// the extension point for proximal terms and control variates.
pub fn local_train(
    model: &mut Model,
    data: &Dataset,
    cfg: &LocalCfg,
    seed: u64,
    grad_hook: Option<GradHook<'_>>,
) -> LocalOutcome {
    let mut opt = Sgd::new(cfg.sgd);
    let mut rng = seeded_rng(seed);
    let mut steps = 0usize;
    let mut loss_sum = 0.0f64;
    for _epoch in 0..cfg.epochs {
        for (images, labels) in data.shuffled_batches(cfg.batch, &mut rng) {
            let loss = model.train_step(
                &images,
                &mut opt,
                |logits, ws| cross_entropy_ws(logits, &labels, ws),
                |net| {
                    if let Some(hook) = grad_hook {
                        hook(net);
                    }
                },
            );
            steps += 1;
            loss_sum += loss as f64;
        }
    }
    LocalOutcome {
        steps,
        mean_loss: if steps == 0 { 0.0 } else { (loss_sum / steps as f64) as f32 },
    }
}

/// Add `scale · flat` to the parameter gradients of `net` (flat vector in
/// visit order). SCAFFOLD's `c − c_i` correction.
pub fn add_flat_to_grads(net: &mut dyn Layer, flat: &[f32], scale: f32) {
    let mut offset = 0usize;
    net.visit_params_mut(&mut |p| {
        let n = p.numel();
        assert!(offset + n <= flat.len(), "flat vector shorter than parameters");
        for (g, &v) in p.grad.data_mut().iter_mut().zip(flat[offset..offset + n].iter()) {
            *g += scale * v;
        }
        offset += n;
    });
    assert_eq!(offset, flat.len(), "flat vector longer than parameters");
}

/// Add `mu · (w − w_ref)` to the parameter gradients: FedProx's proximal
/// term, with `w_ref` the round's global weights (flat, visit order).
pub fn add_prox_to_grads(net: &mut dyn Layer, global_flat: &[f32], mu: f32) {
    let mut offset = 0usize;
    net.visit_params_mut(&mut |p| {
        let n = p.numel();
        assert!(offset + n <= global_flat.len(), "flat vector shorter than parameters");
        let (vals, grads) = (p.value.data().to_vec(), p.grad.data_mut());
        for ((g, &w), &wr) in grads.iter_mut().zip(vals.iter()).zip(global_flat[offset..offset + n].iter())
        {
            *g += mu * (w - wr);
        }
        offset += n;
    });
    assert_eq!(offset, global_flat.len(), "flat vector longer than parameters");
}

#[cfg(test)]
mod tests {
    use super::*;
    use kemf_data::synth::{SynthConfig, SynthTask};
    use kemf_nn::models::{Arch, ModelSpec};
    use kemf_nn::serialize::Weights;

    fn toy_data() -> Dataset {
        SynthTask::new(SynthConfig::mnist_like(3)).generate(60, 0)
    }

    fn toy_model() -> Model {
        Model::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 1))
    }

    fn cfg() -> LocalCfg {
        LocalCfg {
            epochs: 2,
            batch: 16,
            sgd: SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 0.0, nesterov: false },
        }
    }

    #[test]
    fn counts_steps_and_reduces_loss() {
        let data = toy_data();
        let mut model = toy_model();
        let first = local_train(&mut model, &data, &cfg(), 7, None);
        // 60 samples / batch 16 = 4 batches × 2 epochs.
        assert_eq!(first.steps, 8);
        let later = local_train(&mut model, &data, &cfg(), 8, None);
        assert!(later.mean_loss < first.mean_loss, "{} -> {}", first.mean_loss, later.mean_loss);
    }

    #[test]
    fn grad_hook_runs_and_changes_trajectory() {
        let data = toy_data();
        let mut plain = toy_model();
        let mut hooked = toy_model();
        let zeros = vec![0.5f32; plain.param_count()];
        let _ = local_train(&mut plain, &data, &cfg(), 7, None);
        let hook = move |net: &mut dyn kemf_nn::layer::Layer| add_flat_to_grads(net, &zeros, 1.0);
        let _ = local_train(&mut hooked, &data, &cfg(), 7, Some(&hook));
        assert_ne!(plain.weights().values, hooked.weights().values);
    }

    #[test]
    fn prox_term_pulls_toward_reference() {
        // With zero data gradient (lr acts only on the prox term), weights
        // must move toward the reference.
        let mut model = toy_model();
        let reference = model.weights().zeros_like();
        let before = model.weights().norm();
        add_prox_to_grads(model.net_mut(), &reference.values, 1.0);
        // Manual SGD step of lr 0.1 on the prox gradient alone.
        let mut opt = Sgd::new(SgdConfig { lr: 0.1, momentum: 0.0, weight_decay: 0.0, nesterov: false });
        opt.step(model.net_mut());
        let after = model.weights().norm();
        assert!(after < before, "{before} -> {after}");
    }

    #[test]
    fn flat_gradient_addition_matches_weights_layout() {
        let mut model = toy_model();
        model.zero_grad();
        let ones = vec![1.0f32; model.param_count()];
        add_flat_to_grads(model.net_mut(), &ones, 2.0);
        let grads = Weights::grads_from_layer(model.net());
        assert!(grads.values.iter().all(|&g| (g - 2.0).abs() < 1e-6));
    }

    #[test]
    #[should_panic]
    fn flat_vector_size_mismatch_panics() {
        let mut model = toy_model();
        add_flat_to_grads(model.net_mut(), &[1.0, 2.0], 1.0);
    }
}
