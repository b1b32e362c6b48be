//! FedRolex vs FedAvg at the same server size: what the rolling window
//! saves on the wire.
//!
//! Both algorithms deploy the *same* wide one-hidden-layer MLP. FedAvg
//! must ship it whole to every client each round; FedRolex ships each
//! client one rolling window of hidden units, so its per-client
//! downlink is ≈ `L/H` of the full model while the server still ends up
//! at least twice the size of anything a client ever hosts. This binary
//! measures that: per-round downlink per reached client, best accuracy,
//! and the server/client parameter ratio, written to
//! `bench_results/BENCH_rolex.json`.
//!
//! Usage:
//!   bench_rolex --smoke     # CI: window < full-model downlink, nonzero
//!                           # accuracy, one socket-transport FedRolex
//!                           # round, and a FedGEMS leg (logit-sized
//!                           # payloads under a ≥2× server)
//!   bench_rolex             # full sweep, writes BENCH_rolex.json

use kemf_bench::Args;
use kemf_core::fedgems::FedGems;
use kemf_core::resource::uniform_specs;
use kemf_data::synth::{SynthConfig, SynthTask};
use kemf_fl::config::FlConfig;
use kemf_fl::context::FlContext;
use kemf_fl::engine::{Engine, RunOptions};
use kemf_fl::fedavg::FedAvg;
use kemf_fl::fedrolex::{FedRolex, FedRolexConfig};
use kemf_fl::metrics::History;
use kemf_fl::transport::SocketConfig;
use kemf_nn::models::{Arch, ModelSpec};
use serde::{Deserialize, Serialize};

/// One algorithm's run against the shared wide server model.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct RolexRecord {
    algo: String,
    payload_kind: String,
    server_width: usize,
    client_width: usize,
    server_params: usize,
    /// Largest parameter count any client ever hosts.
    largest_client_params: usize,
    rounds: usize,
    best_accuracy: f32,
    /// Mean downlink bytes per reached client, per round.
    per_round_down_bytes_per_client: Vec<u64>,
    total_down_bytes: u64,
    total_up_bytes: u64,
}

fn world(seed: u64, rounds: usize) -> FlContext {
    let task = SynthTask::new(SynthConfig::mnist_like(seed));
    let train = task.generate(480, 0);
    let test = task.generate(120, 1);
    let cfg = FlConfig {
        n_clients: 8,
        sample_ratio: 0.5,
        rounds,
        local_epochs: 2,
        batch_size: 16,
        alpha: 0.5,
        min_per_client: 10,
        seed,
        ..Default::default()
    };
    FlContext::new(cfg, &train, test)
}

fn server_spec(width: usize) -> ModelSpec {
    ModelSpec { width, ..ModelSpec::scaled(Arch::Mlp1, 1, 12, 10, 7) }
}

fn per_client_downlink(h: &History) -> Vec<u64> {
    h.records
        .iter()
        .map(|r| if r.down_clients == 0 { 0 } else { r.down_bytes / r.down_clients as u64 })
        .collect()
}

fn record(algo_name: &str, h: &History, rolex: &FedRolex, client_width: usize) -> RolexRecord {
    RolexRecord {
        algo: algo_name.into(),
        payload_kind: h.payload_kind.clone(),
        server_width: rolex.server_params(),
        client_width,
        server_params: rolex.server_params(),
        largest_client_params: rolex.largest_client_params(),
        rounds: h.rounds(),
        best_accuracy: h.best_accuracy(),
        per_round_down_bytes_per_client: per_client_downlink(h),
        total_down_bytes: h.records.iter().map(|r| r.down_bytes).sum(),
        total_up_bytes: h.records.iter().map(|r| r.up_bytes).sum(),
    }
}

fn run_pair(width: usize, client_width: usize, rounds: usize, seed: u64) -> Vec<RolexRecord> {
    let ctx = world(seed, rounds);
    let spec = server_spec(width);
    let mut rolex = FedRolex::new(FedRolexConfig { server_spec: spec, client_width });
    let hr = Engine::run(&mut rolex, &ctx, RunOptions::new()).expect("fedrolex run").history;
    let mut fedavg = FedAvg::new(spec);
    let ha = Engine::run(&mut fedavg, &ctx, RunOptions::new()).expect("fedavg run").history;
    let mut rec_r = record("FedRolex", &hr, &rolex, client_width);
    rec_r.server_width = width;
    let mut rec_a = record("FedAvg", &ha, &rolex, width);
    rec_a.server_width = width;
    rec_a.largest_client_params = rolex.server_params(); // FedAvg clients host it all
    vec![rec_r, rec_a]
}

fn smoke() {
    let width = 32;
    let client_width = 8;
    let recs = run_pair(width, client_width, 4, 11);
    let (rolex, fedavg) = (&recs[0], &recs[1]);
    assert!(
        rolex.server_params >= 2 * rolex.largest_client_params,
        "server {} must be ≥2× the largest client window {}",
        rolex.server_params,
        rolex.largest_client_params
    );
    assert!(
        rolex.best_accuracy > 0.1,
        "FedRolex must clear nonzero accuracy, got {}",
        rolex.best_accuracy
    );
    assert_eq!(rolex.payload_kind, "window");
    for (r, a) in rolex
        .per_round_down_bytes_per_client
        .iter()
        .zip(&fedavg.per_round_down_bytes_per_client)
    {
        assert!(
            r * 2 < *a,
            "windowed downlink {r} must be well under the full model {a}"
        );
    }

    // One FedRolex federation over real localhost TCP: window-sized
    // frames on the wire, byte-identical accounting to the simulator.
    let ctx = world(12, 2);
    let mut a = FedRolex::new(FedRolexConfig { server_spec: server_spec(width), client_width });
    let sim = Engine::run(&mut a, &ctx, RunOptions::new()).expect("inproc");
    let mut b = FedRolex::new(FedRolexConfig { server_spec: server_spec(width), client_width });
    let wired = Engine::run(
        &mut b,
        &ctx,
        RunOptions::new().socket_transport(SocketConfig::threads(2)),
    )
    .expect("socket");
    assert_eq!(
        sim.history.to_json(),
        wired.history.to_json(),
        "socket FedRolex must be byte-identical to the in-process run"
    );
    let stats = wired.transport.expect("socket stats");
    let recorded: u64 = wired.history.records.iter().map(|r| r.down_bytes + r.up_bytes).sum();
    assert_eq!(stats.payload_total(), recorded, "wire bytes must equal recorded bytes");

    // FedGEMS, the other server-larger-than-client algorithm: a ≥2×
    // server fed by selective logit fusion must learn while every
    // client is billed logit-sized payloads, not the server model.
    let task = SynthTask::new(SynthConfig::mnist_like(14));
    let train = task.generate(240, 0);
    let test = task.generate(80, 1);
    let cfg = FlConfig {
        n_clients: 4,
        sample_ratio: 1.0,
        rounds: 4,
        local_epochs: 2,
        batch_size: 16,
        alpha: 0.5,
        min_per_client: 10,
        seed: 14,
        ..Default::default()
    };
    let ctx = FlContext::new(cfg, &train, test);
    let specs = uniform_specs(Arch::Cnn2, 4, 1, 12, 10, 2);
    let big_server = ModelSpec { width: 8, ..ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 900) };
    let public = task.generate_unlabeled(60, 3);
    let mut gems = FedGems::new(specs, big_server, public);
    assert!(gems.server_params() >= 2 * gems.largest_client_params());
    let hg = Engine::run(&mut gems, &ctx, RunOptions::new()).expect("fedgems run").history;
    assert!(hg.best_accuracy() > 0.1, "FedGEMS must learn, got {}", hg.best_accuracy());
    assert_eq!(hg.payload_kind, "logits");
    assert!(
        gems.payload_bytes() * 4 < 4 * gems.server_params() as u64,
        "logit payload must be well under the server model"
    );

    println!(
        "smoke ok: window downlink {} B/client vs full {} B/client; socket round byte-identical; \
         FedGEMS learned {:.1}% on logit-sized payloads",
        rolex.per_round_down_bytes_per_client[0],
        fedavg.per_round_down_bytes_per_client[0],
        hg.best_accuracy() * 100.0
    );
}

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let is_smoke = raw.iter().any(|a| a == "--smoke");
    raw.retain(|a| a != "--smoke");
    let args = Args::from_iter(raw);

    if is_smoke {
        smoke();
        return;
    }

    let rounds = args.get("rounds", 12usize);
    let seed = args.get("seed", 11u64);
    let mut records = Vec::new();
    for (width, client_width) in [(32usize, 8usize), (64, 16), (64, 8)] {
        for rec in run_pair(width, client_width, rounds, seed) {
            println!(
                "{:8} H={:<3} L={:<3} [{}]: best {:>5.1}%  {:>8} B/client/round down",
                rec.algo,
                rec.server_width,
                rec.client_width,
                rec.payload_kind,
                rec.best_accuracy * 100.0,
                rec.per_round_down_bytes_per_client.first().copied().unwrap_or(0),
            );
            records.push(rec);
        }
    }
    let json = serde_json::to_string_pretty(&records).expect("records serialize");
    let _ = std::fs::create_dir_all("bench_results");
    let path = "bench_results/BENCH_rolex.json";
    std::fs::write(path, json).expect("write benchmark json");
    println!("wrote {path}");
}
