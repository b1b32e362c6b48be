//! Deep mutual learning (Zhang et al. 2018) — FedKEMF's knowledge
//! extractor (Algorithm 1 of the paper).
//!
//! The client trains its local model θ and the downloaded knowledge
//! network θ_g *simultaneously* on each batch:
//!
//! * `L_θ   = CE(θ(x), y)   + D_KL(σ(θ_g(x)) ‖ σ(θ(x)))`   (Eq. 3)
//! * `L_θg  = CE(θ_g(x), y) + D_KL(σ(θ(x))  ‖ σ(θ_g(x)))`
//!
//! Each network treats the other's predictive distribution as a fixed
//! target for the batch (the standard DML formulation), so the two KL
//! gradients are the distillation gradients `σ(z) − target`.
//!
//! DML always runs in exact f32: each forward's logits serve both as the
//! *other* network's mutual target **and** as the same network's own
//! cross-entropy/backward input, so a quantized forward would either
//! corrupt the gradient path or force a second exact pass. The one int8
//! route is an inference pass,
//! [`crate::ensemble::ensemble_forward_with_precision`].

use kemf_data::dataset::Dataset;
use kemf_nn::layer::Mode;
use kemf_nn::loss::{cross_entropy_ws, kl_to_target_ws, soften_ws};
use kemf_nn::model::Model;
use kemf_nn::optim::{Sgd, SgdConfig};
use kemf_tensor::rng::seeded_rng;

/// Softening temperature of the mutual targets: 1, Eqs. 1–3 of the paper
/// have none.
const TEMPERATURE: f32 = 1.0;

/// Global gradient-norm clip applied to both networks each step
/// (DESIGN.md, deviation 1). Stabilizes the mutual-KL gradients, whose
/// early spikes would otherwise make weight-average fusion collapse.
const CLIP_NORM: f32 = 5.0;

/// Deep-mutual-learning hyper-parameters for one local update.
#[derive(Clone, Copy, Debug)]
pub struct DmlConfig {
    /// Local epochs `E`.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Optimizer settings shared by both networks.
    pub sgd: SgdConfig,
    /// Weight of the mutual KL term (1.0 in the paper).
    pub kl_weight: f32,
}

impl DmlConfig {
    /// Paper-faithful defaults around a given optimizer setting.
    pub fn new(epochs: usize, batch: usize, sgd: SgdConfig) -> Self {
        DmlConfig { epochs, batch, sgd, kl_weight: 1.0 }
    }
}

/// Losses of one deep-mutual-learning batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct DmlBatchLoss {
    /// Local model's supervised loss.
    pub ce_local: f32,
    /// Knowledge network's supervised loss.
    pub ce_knowledge: f32,
    /// Mutual KL (local ← knowledge direction).
    pub kl_local: f32,
    /// Mutual KL (knowledge ← local direction).
    pub kl_knowledge: f32,
}

/// One synchronized DML step on a batch; updates both models in place.
pub fn dml_step(
    local: &mut Model,
    knowledge: &mut Model,
    images: &kemf_tensor::Tensor,
    labels: &[usize],
    cfg: &DmlConfig,
    opt_local: &mut Sgd,
    opt_knowledge: &mut Sgd,
) -> DmlBatchLoss {
    // Forward both in train mode. Every temporary below is drawn from
    // (and returned to) the owning model's workspace, so steady-state DML
    // steps perform no heap allocation.
    local.zero_grad();
    knowledge.zero_grad();
    let z_local = local.forward(images, Mode::Train);
    let z_know = knowledge.forward(images, Mode::Train);
    // Mutual targets are the peer's softened predictions, detached.
    let t_from_know = soften_ws(&z_know, TEMPERATURE, local.ws_mut());
    let t_from_local = soften_ws(&z_local, TEMPERATURE, knowledge.ws_mut());
    // Local model: CE + KL(knowledge ‖ local).
    let (ce_l, mut g_local) = cross_entropy_ws(&z_local, labels, local.ws_mut());
    let (kl_l, g_kl_l) = kl_to_target_ws(&z_local, &t_from_know, TEMPERATURE, local.ws_mut());
    g_local.axpy(cfg.kl_weight, &g_kl_l);
    local.recycle(g_kl_l);
    local.recycle(t_from_know);
    // Knowledge network: CE + KL(local ‖ knowledge).
    let (ce_k, mut g_know) = cross_entropy_ws(&z_know, labels, knowledge.ws_mut());
    let (kl_k, g_kl_k) = kl_to_target_ws(&z_know, &t_from_local, TEMPERATURE, knowledge.ws_mut());
    g_know.axpy(cfg.kl_weight, &g_kl_k);
    knowledge.recycle(g_kl_k);
    knowledge.recycle(t_from_local);
    local.recycle(z_local);
    knowledge.recycle(z_know);
    // Backward + step, both networks.
    local.backward_params(&g_local);
    local.recycle(g_local);
    knowledge.backward_params(&g_know);
    knowledge.recycle(g_know);
    let _ = kemf_nn::optim::clip_grad_norm(local.net_mut(), CLIP_NORM);
    let _ = kemf_nn::optim::clip_grad_norm(knowledge.net_mut(), CLIP_NORM);
    opt_local.step(local.net_mut());
    opt_knowledge.step(knowledge.net_mut());
    DmlBatchLoss { ce_local: ce_l, ce_knowledge: ce_k, kl_local: kl_l, kl_knowledge: kl_k }
}

/// Outcome of a full client-side DML update (Algorithm 1).
#[derive(Clone, Copy, Debug, Default)]
pub struct DmlOutcome {
    /// SGD steps taken (one synchronized step updates both networks).
    pub steps: usize,
    /// Batches consumed; equals `steps` — DML takes exactly one
    /// synchronized step per batch.
    pub batches: usize,
    /// Mean total loss of the local model.
    pub mean_local_loss: f32,
    /// Mean total loss of the knowledge network.
    pub mean_knowledge_loss: f32,
}

/// Algorithm 1: mutually train `local` (stays deployed on the client) and
/// `knowledge` (uploaded to the server afterwards) over the client's data.
pub fn dml_local_update(
    local: &mut Model,
    knowledge: &mut Model,
    data: &Dataset,
    cfg: &DmlConfig,
    seed: u64,
) -> DmlOutcome {
    let mut opt_local = Sgd::new(cfg.sgd);
    let mut opt_know = Sgd::new(cfg.sgd);
    let mut rng = seeded_rng(seed);
    let mut out = DmlOutcome::default();
    let mut local_sum = 0.0f64;
    let mut know_sum = 0.0f64;
    for _epoch in 0..cfg.epochs {
        for (images, labels) in data.shuffled_batches(cfg.batch, &mut rng) {
            let l = dml_step(local, knowledge, &images, &labels, cfg, &mut opt_local, &mut opt_know);
            local_sum += (l.ce_local + cfg.kl_weight * l.kl_local) as f64;
            know_sum += (l.ce_knowledge + cfg.kl_weight * l.kl_knowledge) as f64;
            out.steps += 1;
            out.batches += 1;
        }
    }
    if out.steps > 0 {
        out.mean_local_loss = (local_sum / out.steps as f64) as f32;
        out.mean_knowledge_loss = (know_sum / out.steps as f64) as f32;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kemf_data::synth::{SynthConfig, SynthTask};
    use kemf_nn::loss::soften;
    use kemf_tensor::workspace::Workspace;
    use kemf_nn::models::{Arch, ModelSpec};

    fn data() -> Dataset {
        SynthTask::new(SynthConfig::mnist_like(5)).generate(80, 0)
    }

    fn cfg() -> DmlConfig {
        DmlConfig::new(2, 16, SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 0.0 })
    }

    #[test]
    fn both_models_learn() {
        let d = data();
        let mut local = Model::new(ModelSpec::scaled(Arch::ResNet20, 1, 12, 10, 1));
        let mut know = Model::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 2));
        let first = dml_local_update(&mut local, &mut know, &d, &cfg(), 7);
        let later = dml_local_update(&mut local, &mut know, &d, &cfg(), 8);
        assert!(later.mean_local_loss < first.mean_local_loss);
        assert!(later.mean_knowledge_loss < first.mean_knowledge_loss);
        assert_eq!(first.steps, 10, "80 samples / 16 batch × 2 epochs");
        assert_eq!(first.batches, first.steps, "one synchronized step per batch");
    }

    #[test]
    fn mutual_training_reduces_cross_model_kl() {
        // DML minimizes the KL divergence between the two networks'
        // predictive distributions; with the mutual term on, that
        // divergence must end up far smaller than with it off.
        let d = data();
        let cross_kl = |mutual: bool| {
            let mut local = Model::new(ModelSpec::scaled(Arch::ResNet20, 1, 12, 10, 1));
            let mut know = Model::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 2));
            let mut c = cfg();
            c.epochs = 6;
            if !mutual {
                c.kl_weight = 0.0;
            }
            let _ = dml_local_update(&mut local, &mut know, &d, &c, 7);
            let zl = local.predict(&d.images);
            let zk = know.predict(&d.images);
            kl_to_target_ws(&zk, &soften(&zl, 1.0), 1.0, &mut Workspace::new()).0
        };
        let with_kl = cross_kl(true);
        let without_kl = cross_kl(false);
        assert!(
            with_kl < without_kl * 0.8,
            "mutual learning should align the models: KL {with_kl} (on) vs {without_kl} (off)"
        );
    }

    #[test]
    fn kl_terms_are_nonnegative() {
        let d = data();
        let mut local = Model::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 3));
        let mut know = Model::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 4));
        let mut ol = Sgd::new(cfg().sgd);
        let mut ok = Sgd::new(cfg().sgd);
        let mut rng = seeded_rng(1);
        for (images, labels) in d.shuffled_batches(16, &mut rng) {
            let l = dml_step(&mut local, &mut know, &images, &labels, &cfg(), &mut ol, &mut ok);
            assert!(l.kl_local >= -1e-5 && l.kl_knowledge >= -1e-5);
            assert!(l.ce_local.is_finite() && l.ce_knowledge.is_finite());
        }
    }

    #[test]
    fn update_is_deterministic() {
        let d = data();
        let run = || {
            let mut local = Model::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 3));
            let mut know = Model::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 4));
            let _ = dml_local_update(&mut local, &mut know, &d, &cfg(), 42);
            know.weights().values
        };
        assert_eq!(run(), run());
    }
}
