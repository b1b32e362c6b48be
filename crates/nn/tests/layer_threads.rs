//! A layer pass runs whole on the thread that calls it: the compute width
//! goes to `par::fork_join` over independent models — a cohort's clients,
//! the teachers — and never to one layer's outputs. A ResNet-20 training
//! step at batch 32 (the server's student step) and a 64-image `predict`
//! (an evaluation) must start no `par` helper; a two-item `fork_join`
//! after them must, wherever the width has room for one.
//!
//! This file holds exactly one test: the helpers are process-wide, and a
//! concurrent test could start them.

use kemf_nn::model::Model;
use kemf_nn::models::{Arch, ModelSpec};
use kemf_nn::optim::{Sgd, SgdConfig};
use kemf_tensor::rng::seeded_rng;
use kemf_tensor::{par, Tensor};

#[test]
fn layer_passes_start_no_helper_and_a_fork_join_does() {
    let mut rng = seeded_rng(38);
    let mut model = Model::new(ModelSpec::scaled(Arch::ResNet20, 3, 16, 10, 1));
    let x = Tensor::randn(&[32, 3, 16, 16], 1.0, &mut rng);
    let labels: Vec<usize> = (0..32).map(|i| i % 10).collect();
    let mut opt = Sgd::new(SgdConfig::default());
    assert!(model.train_batch(&x, &labels, &mut opt).is_finite());
    let eval = Tensor::randn(&[64, 3, 16, 16], 1.0, &mut rng);
    assert_eq!(model.predict(&eval).dims(), &[64, 10]);
    assert_eq!(par::helpers_started(), 0, "a layer pass handed work to a helper");

    if par::width() > 1 {
        assert_eq!(par::fork_join(vec![1, 2], |k: i32| k * 2), [2, 4]);
        assert!(par::helpers_started() > 0, "at width {} a two-item fork_join must start a helper", par::width());
    }
}
