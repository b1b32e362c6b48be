//! End-to-end integration: every algorithm in the comparison trains on
//! the same tiny federated task, learns above chance, and is bit-for-bit
//! reproducible.

use fedkemf::core::fedkemf::{FedKemf, FedKemfConfig};
use fedkemf::fl::engine::{Engine, FedAlgorithm};
use fedkemf::prelude::*;

fn run(algo: &mut dyn FedAlgorithm, ctx: &FlContext) -> History {
    Engine::run(algo, ctx, RunOptions::new()).unwrap().history
}


fn world(seed: u64) -> (FlContext, SynthTask) {
    let task = SynthTask::new(SynthConfig::mnist_like(seed));
    let train = task.generate(300, 0);
    let test = task.generate(100, 1);
    let cfg = FlConfig {
        n_clients: 5,
        sample_ratio: 0.8,
        rounds: 8,
        local_epochs: 2,
        batch_size: 16,
        alpha: 0.5,
        min_per_client: 10,
        seed,
        ..Default::default()
    };
    (FlContext::new(cfg, &train, test), task)
}

fn algorithms(ctx: &FlContext, task: &SynthTask) -> Vec<Box<dyn FedAlgorithm>> {
    let spec = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 3);
    let knowledge = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 99);
    let clients = uniform_specs(Arch::Cnn2, ctx.cfg.n_clients, 1, 12, 10, 5);
    let pool = task.generate_unlabeled(100, 2);
    // Server-larger-than-client pair: a wide MLP carved into rolling
    // windows, and a big CNN server fed by selective logit fusion.
    let wide_mlp = ModelSpec { width: 32, ..ModelSpec::scaled(Arch::Mlp1, 1, 12, 10, 7) };
    let big_server = ModelSpec { width: 8, ..ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 900) };
    vec![
        Box::new(FedAvg::new(spec)),
        Box::new(FedProx::new(spec, 0.01)),
        Box::new(FedNova::new(spec)),
        Box::new(Scaffold::new(spec)),
        Box::new(FedKemf::new(FedKemfConfig::uniform(knowledge, clients.clone(), pool.clone()))),
        Box::new(FedRolex::new(FedRolexConfig { server_spec: wide_mlp, client_width: 8 })),
        Box::new(FedGems::new(clients, big_server, pool)),
    ]
}

#[test]
fn all_algorithms_learn_above_chance() {
    let (ctx, task) = world(7);
    for mut algo in algorithms(&ctx, &task) {
        let name = algo.name();
        let h = run(algo.as_mut(), &ctx);
        assert_eq!(h.rounds(), 8, "{name} must run all rounds");
        assert!(
            h.best_accuracy() > 0.25,
            "{name} should clearly beat 10% chance, got {:.3}",
            h.best_accuracy()
        );
        assert!(
            h.accuracies().iter().all(|a| a.is_finite()),
            "{name} produced a non-finite accuracy"
        );
    }
}

#[test]
fn every_algorithm_is_deterministic() {
    for idx in 0..7 {
        let run_once = || {
            let (ctx, task) = world(13);
            let mut algos = algorithms(&ctx, &task);
            run(algos[idx].as_mut(), &ctx).accuracies()
        };
        let name = {
            let (ctx, task) = world(13);
            algorithms(&ctx, &task)[idx].name()
        };
        assert_eq!(run_once(), run_once(), "{name} must be seed-deterministic");
    }
}

#[test]
fn histories_record_monotone_cumulative_bytes() {
    let (ctx, task) = world(21);
    for mut algo in algorithms(&ctx, &task) {
        let h = run(algo.as_mut(), &ctx);
        let bytes: Vec<u64> = h.records.iter().map(|r| r.cum_bytes).collect();
        assert!(bytes.windows(2).all(|w| w[0] < w[1]), "{}: bytes must strictly grow", h.algorithm);
    }
}

#[test]
fn fedkemf_ships_fewer_bytes_than_weight_baselines_with_large_locals() {
    // With ResNet-32 local models and a 2-layer-CNN knowledge network,
    // FedKEMF's wire traffic must be far below FedAvg's.
    let task = SynthTask::new(SynthConfig::mnist_like(31));
    let train = task.generate(250, 0);
    let test = task.generate(80, 1);
    let cfg = FlConfig {
        n_clients: 5,
        sample_ratio: 1.0,
        rounds: 3,
        alpha: 1.0,
        min_per_client: 10,
        seed: 31,
        ..Default::default()
    };
    let ctx = FlContext::new(cfg, &train, test);
    let local_spec = ModelSpec::scaled(Arch::ResNet32, 1, 12, 10, 3);
    let mut fedavg = FedAvg::new(local_spec);
    let ha = run(&mut fedavg, &ctx);
    let knowledge = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 99);
    let clients = uniform_specs(Arch::ResNet32, 5, 1, 12, 10, 5);
    let pool = task.generate_unlabeled(80, 2);
    let mut kemf = FedKemf::new(FedKemfConfig::uniform(knowledge, clients, pool));
    let hk = run(&mut kemf, &ctx);
    assert!(
        hk.total_bytes() * 3 < ha.total_bytes(),
        "FedKEMF bytes {} should be well under FedAvg bytes {}",
        hk.total_bytes(),
        ha.total_bytes()
    );
}

#[test]
fn server_larger_than_client_algorithms_never_ship_the_full_server() {
    // The acceptance bar for the per-client plan API: FedRolex bills each
    // client its window, FedGEMS bills logits — neither ever charges the
    // full server model, even though both deploy one ≥2× any client.
    let (ctx, task) = world(55);
    let cohort = ctx.cfg.sampled_per_round() as u64;
    let rounds = ctx.cfg.rounds as u64;

    let wide_mlp = ModelSpec { width: 32, ..ModelSpec::scaled(Arch::Mlp1, 1, 12, 10, 7) };
    let mut rolex = FedRolex::new(FedRolexConfig { server_spec: wide_mlp, client_width: 8 });
    let hr = run(&mut rolex, &ctx);
    assert!(rolex.server_params() >= 2 * rolex.largest_client_params());
    let full_server_traffic = rounds * cohort * 2 * 4 * rolex.server_params() as u64;
    assert!(
        hr.total_bytes() * 2 < full_server_traffic,
        "FedRolex bytes {} should be well under full-server traffic {full_server_traffic}",
        hr.total_bytes()
    );
    assert_eq!(hr.payload_kind, "window");

    let clients = uniform_specs(Arch::Cnn2, ctx.cfg.n_clients, 1, 12, 10, 5);
    let big_server = ModelSpec { width: 8, ..ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 900) };
    let pool = task.generate_unlabeled(100, 2);
    let mut gems = FedGems::new(clients, big_server, pool);
    let hg = run(&mut gems, &ctx);
    assert!(gems.server_params() >= 2 * gems.largest_client_params());
    assert_eq!(
        hg.total_bytes(),
        rounds * cohort * 2 * gems.payload_bytes(),
        "FedGEMS traffic is logits each way, independent of server size"
    );
    assert!(gems.payload_bytes() < 4 * gems.server_params() as u64);
    assert_eq!(hg.payload_kind, "logits");
}

#[test]
fn global_models_are_exposed_for_deployment() {
    let (ctx, task) = world(41);
    for mut algo in algorithms(&ctx, &task) {
        let _ = run(algo.as_mut(), &ctx);
        let (spec, state) = algo.global_model().expect("all comparison algorithms expose a model");
        let mut model = Model::new(spec);
        model.set_state(&state);
        let acc = model.evaluate(&ctx.test.images, &ctx.test.labels, 32);
        assert!(acc > 0.2, "{}: deployed global model accuracy {acc}", algo.name());
    }
}
