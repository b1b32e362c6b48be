//! Integration: the operational tooling around training — checkpointing,
//! payload compression, and the network time model — composed the way a
//! deployment would use them.

use fedkemf::fl::compress::{dequantize, max_abs_error, quantize, DEFAULT_CHUNK};
use fedkemf::fl::engine::{Engine, FedAlgorithm};
use fedkemf::fl::network::NetworkModel;
use fedkemf::nn::checkpoint::{load_state, save_state};
use fedkemf::prelude::*;

fn run(algo: &mut dyn FedAlgorithm, ctx: &FlContext) -> History {
    Engine::run(algo, ctx, RunOptions::new()).unwrap().history
}

fn trained_fedavg() -> (FedAvg, FlContext) {
    let task = SynthTask::new(SynthConfig::mnist_like(51));
    let train = task.generate(200, 0);
    let test = task.generate(80, 1);
    let cfg = FlConfig {
        n_clients: 4,
        sample_ratio: 1.0,
        rounds: 4,
        local_epochs: 2,
        alpha: 0.5,
        min_per_client: 10,
        seed: 51,
        ..Default::default()
    };
    let ctx = FlContext::new(cfg, &train, test);
    let mut algo = FedAvg::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 3));
    let _ = run(&mut algo, &ctx);
    (algo, ctx)
}

#[test]
fn checkpoint_resume_preserves_global_model() {
    let (algo, ctx) = trained_fedavg();
    let (spec, state) = algo.global_model().unwrap();
    let mut path = std::env::temp_dir();
    path.push(format!("kemf_integration_{}.ckpt", std::process::id()));
    save_state(&state, &path).unwrap();

    // "New process": rebuild the model from the checkpoint alone.
    let restored = load_state(&path).unwrap();
    let mut a = Model::new(spec);
    a.set_state(&state);
    let mut b = Model::new(spec);
    b.set_state(&restored);
    let acc_a = a.evaluate(&ctx.test.images, &ctx.test.labels, 32);
    let acc_b = b.evaluate(&ctx.test.images, &ctx.test.labels, 32);
    assert_eq!(acc_a, acc_b, "checkpoint must restore the exact model");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn quantized_global_model_keeps_most_accuracy() {
    let (algo, ctx) = trained_fedavg();
    let (spec, state) = algo.global_model().unwrap();
    let mut full = Model::new(spec);
    full.set_state(&state);
    let acc_full = full.evaluate(&ctx.test.images, &ctx.test.labels, 32);

    let q = quantize(&state.params, DEFAULT_CHUNK).expect("trained weights quantize");
    let restored = dequantize(&q).expect("fresh payload decodes");
    assert!(max_abs_error(&state.params, &restored) < 0.05);
    let mut compact = Model::new(spec);
    compact.set_state(&state);
    compact.set_weights(&restored);
    let acc_q = compact.evaluate(&ctx.test.images, &ctx.test.labels, 32);
    assert!(
        (acc_full - acc_q).abs() < 0.08,
        "int8 quantization should barely move accuracy: {acc_full} vs {acc_q}"
    );
    assert!(q.ratio() > 3.5, "compression ratio {}", q.ratio());
}

#[test]
fn network_model_orders_algorithms_by_payload() {
    // Same rounds, different payloads: simulated comm time must order
    // FedKEMF (knowledge net) well below FedAvg (ResNet-32).
    let task = SynthTask::new(SynthConfig::mnist_like(52));
    let train = task.generate(160, 0);
    let test = task.generate(60, 1);
    let cfg = FlConfig {
        n_clients: 4,
        sample_ratio: 1.0,
        rounds: 3,
        alpha: 1.0,
        min_per_client: 8,
        seed: 52,
        ..Default::default()
    };
    let ctx = FlContext::new(cfg, &train, test);

    let mut fedavg = FedAvg::new(ModelSpec::scaled(Arch::ResNet32, 1, 12, 10, 3));
    let ha = run(&mut fedavg, &ctx);
    let knowledge = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 99);
    let clients = uniform_specs(Arch::ResNet32, 4, 1, 12, 10, 5);
    let pool = task.generate_unlabeled(60, 2);
    let mut kemf = fedkemf::core::fedkemf::FedKemf::new(
        fedkemf::core::fedkemf::FedKemfConfig::uniform(knowledge, clients, pool),
    );
    let hk = run(&mut kemf, &ctx);

    let iot = NetworkModel { bandwidth_bps: 128.0 * 1024.0, latency_s: 0.2 };
    let broadband = NetworkModel { bandwidth_bps: 25.0 * 1024.0 * 1024.0, latency_s: 0.02 };
    for net in [iot, NetworkModel::cellular_4g(), broadband] {
        let ta = net.history_comm_time(&ha);
        let tk = net.history_comm_time(&hk);
        assert!(tk < ta, "FedKEMF should be faster on the wire: {tk} vs {ta}");
    }
}
