//! Federated learning over a real socket transport.
//!
//! The simulator's byte accounting is closed-form arithmetic; this
//! example makes it honest. The same binary plays both roles: run it
//! plainly and it is the *server* — it spawns two copies of itself as
//! client worker processes, and every round's broadcast and upload
//! crosses localhost TCP as length-prefixed, checksummed frames carrying
//! the actual quantized global model. Spawned copies detect the
//! `KEMF_SOCKET_WORKER` environment and become workers instead.
//!
//! Faults are injected at the transport boundary: pre-download drops put
//! nothing on the wire, post-download drops arrive as genuinely
//! corrupted broadcasts the worker's checksum rejects,
//! stragglers really sleep past the deadline, and failed uploads burn
//! real retry frames. With the same seed, the recorded history is
//! byte-identical to the in-process simulation — the run ends by
//! checking exactly that.
//!
//! ```sh
//! cargo run --release --example socket_federation
//! ```

use fedkemf::fl::transport::worker_entry_if_requested;
use fedkemf::prelude::*;

fn main() {
    // Worker processes take this exit: serve frames until shutdown.
    worker_entry_if_requested();

    let task = SynthTask::new(SynthConfig::mnist_like(29));
    let train = task.generate(400, 0);
    let test = task.generate(120, 1);
    let cfg = FlConfig {
        n_clients: 8,
        sample_ratio: 0.5,
        rounds: 5,
        local_epochs: 1,
        batch_size: 16,
        alpha: 0.5,
        min_per_client: 10,
        seed: 29,
        ..Default::default()
    };
    let ctx = FlContext::new(cfg, &train, test);
    let faults = FaultConfig {
        drop_before_download: 0.1,
        drop_after_download: 0.15,
        straggler_prob: 0.2,
        straggler_delay_s: 40.0,
        round_deadline_s: Some(30.0),
        upload_failure_prob: 0.2,
        upload_retries: 2,
        ..Default::default()
    };
    let spec = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 3);

    // Reference: the in-process simulator under the same seed and storm.
    let mut sim = FedAvg::new(spec);
    let simulated = Engine::run(&mut sim, &ctx, RunOptions::new().faults(faults))
        .expect("in-process run failed");

    // The real thing: two worker processes, same plan enacted as frames.
    let exe = std::env::current_exe().expect("own executable path");
    let scfg = SocketConfig::process(2, exe);
    let mut live = FedAvg::new(spec);
    let wired = Engine::run(
        &mut live,
        &ctx,
        RunOptions::new().faults(faults).socket_transport(scfg),
    )
    .expect("socket run failed");

    println!("round  acc%   down      up     wasted  quorum");
    for r in &wired.history.records {
        println!(
            "{:>5}  {:>5.1}  {:>7}  {:>6}  {:>6}  {}",
            r.round,
            r.test_acc * 100.0,
            r.down_bytes,
            r.up_bytes,
            r.wasted_up_bytes,
            if r.quorum_met { "met" } else { "ABORT" },
        );
    }
    let stats = wired.transport.expect("socket run reports wire stats");
    println!(
        "\nwire: {} frames out, {} in, {} payload bytes + {} framing = {} total",
        stats.frames_sent,
        stats.frames_received,
        stats.payload_total(),
        stats.framing_overhead_bytes(),
        stats.wire_bytes,
    );

    // Every byte the simulator charges crosses the wire, a corrupted
    // broadcast's included, so the two histories are one.
    assert_eq!(
        simulated.history.to_json(),
        wired.history.to_json(),
        "the socket run diverged from the simulated federation"
    );
    println!("\nsocket run matches the simulated federation — accounting is honest.");
}
