//! Miniature end-to-end versions of every paper experiment, one criterion
//! group per table/figure id, so `cargo bench` exercises the exact code
//! paths the `experiments` driver takes (the driver produces the actual
//! rows; these bound their per-round cost).

use criterion::{criterion_group, criterion_main, Criterion};
use kemf_bench::{fedkemf_config, train, AlgoKind, Args, ExperimentSpec, Workload};
use kemf_fl::prelude::*;
use kemf_nn::models::Arch;

fn mini(workload: Workload, arch: Arch) -> ExperimentSpec {
    let mut s = ExperimentSpec::quick(workload, arch);
    s.clients = 4;
    s.sample_ratio = 0.5;
    s.rounds = 2;
    s.samples_per_client = 24;
    s
}

/// One (algorithm, experiment) pair end to end.
fn run_experiment(kind: AlgoKind, spec: &ExperimentSpec) -> History {
    let (ctx, task) = spec.build_ctx();
    train(kind.build(spec, &task).as_mut(), &ctx, &Args::default(), "bench")
}

/// Fig 4/5/6 path: one learning-curve run per algorithm (ResNet-20/CIFAR).
fn bench_fig456(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4_5_6_curves");
    for kind in [AlgoKind::FedAvg, AlgoKind::FedNova, AlgoKind::Scaffold, AlgoKind::FedKemf] {
        let spec = mini(Workload::CifarLike, Arch::ResNet20);
        g.bench_function(kind.display(), |bch| bch.iter(|| run_experiment(kind, &spec)));
    }
    g.finish();
}

/// Table 1/2 path: the cost-accounted VGG-11 configuration.
fn bench_table12(c: &mut Criterion) {
    let mut g = c.benchmark_group("table1_2_cost");
    for kind in [AlgoKind::FedAvg, AlgoKind::FedKemf] {
        let spec = mini(Workload::CifarLike, Arch::Vgg11);
        g.bench_function(kind.display(), |bch| bch.iter(|| run_experiment(kind, &spec)));
    }
    g.finish();
}

/// Table 3 path: a heterogeneous multi-model round.
fn bench_table3(c: &mut Criterion) {
    use kemf_core::prelude::*;
    let spec = mini(Workload::CifarLike, Arch::ResNet20);
    let (ctx, task) = spec.build_ctx();
    c.bench_function("table3_multimodel_run", |bch| {
        bch.iter(|| {
            let tiers = assign_tiers(spec.clients, 7);
            let cfg = fedkemf_config(&spec, &task, |c| {
                c.client_specs = heterogeneous_specs(&tiers, 3, 16, 10, 8);
            });
            train(&mut FedKemf::new(cfg), &ctx, &Args::default(), "bench")
        })
    });
}

/// Fig 7 path: one stability cell (high heterogeneity).
fn bench_fig7(c: &mut Criterion) {
    let mut spec = mini(Workload::CifarLike, Arch::ResNet20);
    spec.alpha = 0.05;
    c.bench_function("fig7_stability_cell", |bch| {
        bch.iter(|| run_experiment(AlgoKind::FedKemf, &spec))
    });
}

/// Ablation path: the three ensemble strategies through distillation.
fn bench_ablation(c: &mut Criterion) {
    use kemf_core::prelude::*;
    let spec = mini(Workload::MnistLike, Arch::Cnn2);
    let (ctx, task) = spec.build_ctx();
    let mut g = c.benchmark_group("ablation_ensemble");
    for (name, strategy) in [
        ("max", EnsembleStrategy::MaxLogits),
        ("avg", EnsembleStrategy::AvgLogits),
        ("vote", EnsembleStrategy::MajorityVote),
    ] {
        g.bench_function(name, |bch| {
            bch.iter(|| {
                let cfg = fedkemf_config(&spec, &task, |c| c.distill.strategy = strategy);
                train(&mut FedKemf::new(cfg), &ctx, &Args::default(), "bench")
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = experiments;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(8))
        .warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_fig456, bench_table12, bench_table3, bench_fig7, bench_ablation
}
criterion_main!(experiments);
