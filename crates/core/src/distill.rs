//! Server-side ensemble distillation (Algorithm 2, Eq. 4): encode the
//! ensembled client knowledge `Θ` into the global knowledge network θ_g
//! by minimizing `D_KL(Θ ‖ θ_g)` on unlabeled/public data.

use crate::ensemble::{ensemble_logits, EnsembleStrategy};
use kemf_nn::codec::Writer;
use kemf_nn::loss::{kl_to_target_ws, soften};
use kemf_nn::model::Model;
use kemf_nn::optim::{clip_grad_norm, Sgd, SgdConfig};
use kemf_tensor::par::fork_join;
use kemf_tensor::rng::seeded_rng;
use kemf_tensor::Tensor;
use rand::seq::SliceRandom;

/// Mini-batch of every student loop ([`distill_to_targets`]).
const BATCH: usize = 32;

/// Gradient-norm clip of every student step (DESIGN.md, deviation 1:
/// the standard distillation guard against early KL spikes).
const CLIP_NORM: f32 = 5.0;

/// Server distillation hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct DistillConfig {
    /// Distillation epochs over the public pool.
    pub epochs: usize,
    /// Optimizer for the global knowledge network.
    pub sgd: SgdConfig,
    /// Softening temperature for ensemble targets.
    pub temperature: f32,
    /// Ensemble strategy producing the targets.
    pub strategy: EnsembleStrategy,
}

impl Default for DistillConfig {
    fn default() -> Self {
        DistillConfig {
            epochs: 2,
            sgd: SgdConfig { lr: 0.02, momentum: 0.9, weight_decay: 0.0 },
            temperature: 2.0,
            strategy: EnsembleStrategy::MaxLogits,
        }
    }
}

impl DistillConfig {
    /// Append every knob to a run identity
    /// ([`kemf_fl::engine::FedAlgorithm::identity`]).
    pub(crate) fn identity(&self, w: &mut Writer) {
        let DistillConfig { epochs, sgd, temperature, strategy } = *self;
        let SgdConfig { lr, momentum, weight_decay } = sgd;
        w.usize(epochs);
        [lr, momentum, weight_decay, temperature].into_iter().for_each(|v| w.f32(v));
        w.u8(strategy as u8);
    }
}

/// Outcome of one server-side ensemble distillation.
#[derive(Clone, Copy, Debug, Default)]
pub struct DistillOutcome {
    /// Student SGD steps taken (one per batch).
    pub steps: usize,
    /// Batches consumed across all epochs; equals `steps`.
    pub batches: usize,
    /// Mean KL loss of the final epoch.
    pub last_epoch_loss: f32,
}

/// Distill the ensemble of `teachers` into `student` using the unlabeled
/// `pool` (`[N, C, H, W]`).
pub fn distill_ensemble(
    student: &mut Model,
    teachers: &mut [Model],
    pool: &Tensor,
    cfg: &DistillConfig,
    seed: u64,
) -> DistillOutcome {
    assert!(!teachers.is_empty(), "distillation needs at least one teacher");
    assert!(pool.dims()[0] > 0, "empty distillation pool");
    // Pre-compute ensemble targets once: teachers are frozen during
    // server distillation. Teacher logits use batch statistics
    // (`Mode::BatchStats`: a training forward's logits and running-stat
    // update, nothing cached for the backward that never comes): after a
    // short local update the teachers' batch-norm running statistics lag
    // their weights badly, and eval-mode logits can explode into
    // confidently-wrong targets that poison the distilled student.
    // The teacher pass — the bulk of server-side inference FLOPs — runs in
    // exact f32, like the student. Members are independent, so they run
    // one per share of `par::fork_join` (each member's layers on its own
    // thread) and their logits come back in member order (the same bits
    // at any width). Each member's workspace pool and its thread's
    // lowering buffer are freed the moment its logits exist, so they do
    // not add to the peak of the next cohort's local updates, which reuse
    // the freed pages from the arena. The student's steps below run on
    // the calling thread.
    let member_logits: Vec<Tensor> =
        fork_join(teachers.iter_mut().collect(), |t: &mut Model| {
            let z = t.predict_batch_stats(pool);
            t.release_scratch();
            z
        });
    let ensembled = ensemble_logits(&member_logits, cfg.strategy);
    let targets = soften(&ensembled, cfg.temperature);
    distill_to_targets(student, pool, &targets, cfg, seed)
}

/// Step `student` toward the softened `targets` on `images` for
/// `cfg.epochs` epochs, each a seeded shuffle cut into [`BATCH`]-row
/// batches and one KL step per batch, the gradient clipped at
/// [`CLIP_NORM`]. The one student loop of the distilling algorithms:
/// FedKEMF's and FedDF's server step, FedMD's digestion, and FedGEMS's in
/// both directions. Making the targets (and so `cfg.strategy`) is the
/// caller's business.
pub(crate) fn distill_to_targets(
    student: &mut Model,
    images: &Tensor,
    targets: &Tensor,
    cfg: &DistillConfig,
    seed: u64,
) -> DistillOutcome {
    let n = images.dims()[0];
    let mut opt = Sgd::new(cfg.sgd);
    let mut rng = seeded_rng(seed);
    let mut out = DistillOutcome::default();
    for _epoch in 0..cfg.epochs {
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        let mut loss_sum = 0.0f64;
        let mut batches = 0usize;
        for chunk in order.chunks(BATCH) {
            let x = images.gather_rows(chunk);
            let target = targets.gather_rows(chunk);
            let loss = student.train_step(
                &x,
                &mut opt,
                |logits, ws| kl_to_target_ws(logits, &target, cfg.temperature, ws),
                |net| {
                    clip_grad_norm(net, CLIP_NORM);
                },
            );
            loss_sum += loss as f64;
            batches += 1;
        }
        out.steps += batches;
        out.batches += batches;
        out.last_epoch_loss = (loss_sum / batches.max(1) as f64) as f32;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kemf_data::synth::{SynthConfig, SynthTask};
    use kemf_nn::models::{Arch, ModelSpec};
    use kemf_nn::optim::SgdConfig;

    fn trained_teacher(seed: u64) -> (Model, kemf_data::dataset::Dataset) {
        let task = SynthTask::new(SynthConfig::mnist_like(2));
        let data = task.generate(120, seed);
        let mut m = Model::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, seed));
        let mut opt = Sgd::new(SgdConfig { lr: 0.08, momentum: 0.9, weight_decay: 0.0 });
        let mut rng = seeded_rng(seed);
        for _ in 0..4 {
            for (x, y) in data.shuffled_batches(16, &mut rng) {
                let _ = m.train_batch(&x, &y, &mut opt);
            }
        }
        (m, data)
    }

    #[test]
    fn distillation_transfers_teacher_knowledge() {
        let task = SynthTask::new(SynthConfig::mnist_like(2));
        let (t1, _) = trained_teacher(1);
        let (t2, _) = trained_teacher(2);
        let mut teachers = vec![t1, t2];
        let pool = task.generate_unlabeled(160, 9);
        let test = task.generate(100, 77);
        let mut student = Model::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 99));
        let before = student.evaluate(&test.images, &test.labels, 32);
        let cfg = DistillConfig { epochs: 4, ..Default::default() };
        let out = distill_ensemble(&mut student, &mut teachers, &pool, &cfg, 3);
        let after = student.evaluate(&test.images, &test.labels, 32);
        assert!(out.last_epoch_loss.is_finite());
        // 160-sample pool / 32 batch × 4 epochs.
        assert_eq!(out.steps, 20);
        assert_eq!(out.batches, out.steps);
        assert!(
            after > before + 0.1,
            "distillation should lift the untrained student well above its \
             initial accuracy: {before} → {after}"
        );
    }

    #[test]
    fn distillation_loss_decreases() {
        let task = SynthTask::new(SynthConfig::mnist_like(2));
        let (t1, _) = trained_teacher(4);
        let mut teachers = vec![t1];
        let pool = task.generate_unlabeled(120, 10);
        let mut student = Model::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 98));
        let one = distill_ensemble(
            &mut student,
            &mut teachers,
            &pool,
            &DistillConfig { epochs: 1, ..Default::default() },
            5,
        )
        .last_epoch_loss;
        let more = distill_ensemble(
            &mut student,
            &mut teachers,
            &pool,
            &DistillConfig { epochs: 3, ..Default::default() },
            6,
        )
        .last_epoch_loss;
        assert!(more < one, "KL should shrink with more distillation: {one} → {more}");
    }

    #[test]
    fn strategies_all_produce_finite_losses() {
        let task = SynthTask::new(SynthConfig::mnist_like(2));
        let (t1, _) = trained_teacher(5);
        let (t2, _) = trained_teacher(6);
        let pool = task.generate_unlabeled(64, 11);
        for strategy in [
            EnsembleStrategy::MaxLogits,
            EnsembleStrategy::AvgLogits,
            EnsembleStrategy::MajorityVote,
        ] {
            let mut teachers = vec![t1.clone(), t2.clone()];
            let mut student = Model::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 97));
            let cfg = DistillConfig { strategy, epochs: 1, ..Default::default() };
            let out = distill_ensemble(&mut student, &mut teachers, &pool, &cfg, 7);
            assert!(out.last_epoch_loss.is_finite(), "{strategy:?} produced non-finite loss");
        }
    }
}
