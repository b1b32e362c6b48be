//! Client-side cost benchmarks: one plain local-SGD epoch (the baselines'
//! inner loop) vs one deep-mutual-learning epoch (FedKEMF's Algorithm 1),
//! plus a single forward/backward of each zoo architecture.

use criterion::{criterion_group, criterion_main, Criterion};
use kemf_core::dml::{dml_local_update, DmlConfig};
use kemf_data::synth::{SynthConfig, SynthTask};
use kemf_fl::local::{local_train, LocalCfg};
use kemf_nn::layer::Mode;
use kemf_nn::loss::cross_entropy_ws;
use kemf_nn::model::Model;
use kemf_nn::models::{Arch, ModelSpec};
use kemf_nn::optim::SgdConfig;
use kemf_tensor::rng::seeded_rng;
use kemf_tensor::Tensor;

fn sgd() -> SgdConfig {
    SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 1e-4 }
}

fn bench_local_epoch(c: &mut Criterion) {
    let task = SynthTask::new(SynthConfig::cifar_like(0));
    let data = task.generate(48, 0);
    let mut g = c.benchmark_group("local_update");
    g.bench_function("plain_sgd_epoch_resnet20", |bch| {
        let mut model = Model::new(ModelSpec::scaled(Arch::ResNet20, 3, 16, 10, 1));
        let cfg = LocalCfg { epochs: 1, batch: 16, sgd: sgd() };
        let mut seed = 0u64;
        bch.iter(|| {
            seed += 1;
            local_train(&mut model, &data, &cfg, seed, None)
        })
    });
    g.bench_function("dml_epoch_resnet20_pair", |bch| {
        let mut local = Model::new(ModelSpec::scaled(Arch::ResNet20, 3, 16, 10, 2));
        let mut knowledge = Model::new(ModelSpec::scaled(Arch::ResNet20, 3, 16, 10, 3));
        let cfg = DmlConfig::new(1, 16, sgd());
        let mut seed = 0u64;
        bch.iter(|| {
            seed += 1;
            dml_local_update(&mut local, &mut knowledge, &data, &cfg, seed)
        })
    });
    g.finish();
}

fn bench_forward_backward(c: &mut Criterion) {
    let mut rng = seeded_rng(9);
    let x = Tensor::randn(&[16, 3, 16, 16], 1.0, &mut rng);
    let labels: Vec<usize> = (0..16).map(|i| i % 10).collect();
    let mut g = c.benchmark_group("fwd_bwd_batch16");
    for arch in [Arch::ResNet20, Arch::ResNet32, Arch::Vgg11] {
        let mut model = Model::new(ModelSpec::scaled(arch, 3, 16, 10, 4));
        g.bench_function(arch.display(), |bch| {
            bch.iter(|| {
                model.zero_grad();
                let logits = model.forward(&x, Mode::Train);
                let (_, grad) = cross_entropy_ws(&logits, &labels, model.ws_mut());
                model.recycle(logits);
                let gx = model.backward(&grad);
                model.recycle(grad);
                model.recycle(gx);
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = local_update;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(5))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_local_epoch, bench_forward_backward
}
criterion_main!(local_update);
