//! The student loop runs the pooled step (`Model::train_step`): once the
//! first step has warmed its workspace, further epochs over same-shaped
//! batches must not miss the pool again. `distill_ensemble` reaches the
//! loop here; FedMD's and FedGEMS's digestion run the same crate-private
//! function. (`local_train`'s twin of this test is in
//! `crates/fl/tests/step_pool.rs`.)

use kemf_core::distill::{distill_ensemble, DistillConfig};
use kemf_data::synth::{SynthConfig, SynthTask};
use kemf_nn::model::Model;
use kemf_nn::models::{Arch, ModelSpec};

fn pool_misses(m: &mut Model) -> usize {
    let ws = m.ws_mut();
    ws.fresh_allocations() + ws.fresh_usize_allocations() + ws.fresh_i8_allocations()
}

#[test]
fn distillation_stops_missing_the_pool_after_the_first_step() {
    // The pool is one batch, so every step sees the same shapes.
    let pool = SynthTask::new(SynthConfig::mnist_like(2)).generate_unlabeled(32, 9);
    let spec = |seed| ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, seed);
    let mut teachers = vec![Model::new(spec(1)), Model::new(spec(2))];
    let mut student = Model::new(spec(3));
    let cfg = |epochs| DistillConfig { epochs, ..Default::default() };
    assert_eq!(distill_ensemble(&mut student, &mut teachers, &pool, &cfg(1), 5).steps, 1);
    let warm = pool_misses(&mut student);
    assert!(warm > 0, "the first step draws its buffers fresh");
    assert_eq!(distill_ensemble(&mut student, &mut teachers, &pool, &cfg(4), 6).steps, 4);
    assert_eq!(pool_misses(&mut student), warm, "pool misses after the first step");
}
