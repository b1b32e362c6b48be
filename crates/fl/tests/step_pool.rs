//! `local_train` runs the pooled step (`Model::train_step`): once the
//! first step has warmed the model's workspace, further epochs over
//! same-shaped batches must not miss the pool again — logits, the loss
//! gradient and the first layer's input gradient all come back to it.

use kemf_data::synth::{SynthConfig, SynthTask};
use kemf_fl::local::{local_train, LocalCfg};
use kemf_nn::model::Model;
use kemf_nn::models::{Arch, ModelSpec};
use kemf_nn::optim::SgdConfig;

fn pool_misses(m: &mut Model) -> usize {
    let ws = m.ws_mut();
    ws.fresh_allocations() + ws.fresh_usize_allocations() + ws.fresh_i8_allocations()
}

#[test]
fn local_train_stops_missing_the_pool_after_the_first_step() {
    // One batch per epoch, so every step sees the same shapes.
    let data = SynthTask::new(SynthConfig::mnist_like(3)).generate(16, 0);
    let sgd = SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 0.0, nesterov: false };
    for arch in [Arch::Cnn2, Arch::ResNet20] {
        let mut model = Model::new(ModelSpec::scaled(arch, 1, 12, 10, 1));
        let one = local_train(&mut model, &data, &LocalCfg { epochs: 1, batch: 16, sgd }, 7, None);
        assert_eq!(one.steps, 1);
        let warm = pool_misses(&mut model);
        assert!(warm > 0, "the first step draws its buffers fresh");
        let more = local_train(&mut model, &data, &LocalCfg { epochs: 4, batch: 16, sgd }, 8, None);
        assert_eq!(more.steps, 4);
        assert_eq!(pool_misses(&mut model), warm, "{arch:?}: pool misses after the first step");
    }
}
