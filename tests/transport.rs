//! Integration: the real-socket federation transport. The engine's
//! byte accounting is no longer hypothetical — over `socket_transport`
//! every round's plan is enacted as framed bytes over localhost TCP to a
//! worker pool, and the history's byte columns are what actually crossed
//! the wire. Covers the fault matrix over real frames (drop, straggler
//! delay, corruption, upload retries), quorum fallback, and a fault storm
//! over concurrent links pinned at every width. A socket run, a server
//! killed and resumed over sockets, and a pool of worker processes under
//! a fault storm yield the in-process history (`equivalence.rs`'s
//! property).

mod common;

use common::equivalence::{check, present, trained, Presentation, Scenario, Transport, PLAIN};
use common::{temp_dir, world, Probe};
use fedkemf::fl::metrics::History;
use fedkemf::fl::transport::TransportStats;
use fedkemf::nn::codec::{fnv1a64, FNV_OFFSET};
use fedkemf::prelude::*;
use fedkemf::tensor::simd::ScalarGuard;

/// A fault storm that exercises every enacted failure mode: pre-download
/// drops (silence), post-download drops (corrupted broadcasts),
/// stragglers cut by a deadline, and upload retries.
fn storm() -> FaultConfig {
    FaultConfig {
        drop_before_download: 0.15,
        drop_after_download: 0.2,
        straggler_prob: 0.3,
        straggler_delay_s: 40.0,
        round_deadline_s: Some(30.0),
        upload_failure_prob: 0.3,
        upload_retries: 2,
        ..Default::default()
    }
}

/// The transport's own counters must agree with what the engine
/// recorded: in socket mode the history *is* the wire measurement.
fn assert_stats_match_history(stats: &TransportStats, history: &History) {
    let down: u64 = history.records.iter().map(|r| r.down_bytes).sum();
    let up: u64 = history.records.iter().map(|r| r.up_bytes).sum();
    let wasted: u64 = history.records.iter().map(|r| r.wasted_up_bytes).sum();
    assert_eq!(stats.payload_down_bytes, down, "downlink: wire vs recorded");
    assert_eq!(stats.payload_up_bytes, up, "uplink: wire vs recorded");
    assert_eq!(stats.payload_wasted_bytes, wasted, "wasted uplink: wire vs recorded");
    assert_eq!(stats.rounds, history.rounds());
    assert!(
        stats.wire_bytes >= stats.payload_total(),
        "framing overhead cannot be negative"
    );
}

/// With faults off, real traffic perturbs no recorded byte: FedAvg's
/// full-view broadcasts embed its model quantized, so the wire codec runs
/// end to end, and the socket's payload counters are the history's byte
/// columns.
#[test]
fn faults_off_socket_run_is_byte_identical_to_in_process() {
    let s = Scenario { rounds: 4, ..trained(0, 0, 21) };
    let socket = Presentation { transport: Transport::Threads(2), ..PLAIN };
    let native = check("socket", &s, &[socket]).swap_remove(1);
    // The forced scalar tier reaches the socket workers too, where every
    // checksum then runs through the table instead of the carry-less
    // fold: the same run, the same bytes.
    let dir = temp_dir("socket_tiers");
    let scalar = {
        let _scalar = ScalarGuard::new();
        present(&s, &socket, &dir)
    };
    let _ = std::fs::remove_dir_all(&dir);
    assert!(scalar.json == native.json, "scalar tier changed the run");
    assert_eq!(scalar.stats, native.stats, "scalar tier changed the wire");
}

#[test]
fn fault_storm_over_sockets_keeps_the_accounting_honest() {
    let (ctx, _) = world(22, 6);
    let faults = storm();
    let mut a = Probe;
    let inproc = Engine::run(&mut a, &ctx, RunOptions::new().faults(faults)).unwrap();
    let mut b = Probe;
    let socket = Engine::run(
        &mut b,
        &ctx,
        RunOptions::new().faults(faults).socket_transport(SocketConfig::threads(2)),
    )
    .unwrap();

    // The lifecycle draw is transport-independent: identical plans,
    // identical reporters, identical quorum decisions.
    assert_eq!(inproc.plans.len(), socket.plans.len());
    for (p, q) in inproc.plans.iter().zip(&socket.plans) {
        assert_eq!(format!("{p:?}"), format!("{q:?}"), "plans must not depend on transport");
    }
    let mut saw_fault = false;
    for (r, s) in inproc.history.records.iter().zip(&socket.history.records) {
        // Every outcome surfaces identically: same clients reached, same
        // bytes down (a damaged broadcast still crosses whole), same
        // uploads accepted, same retries wasted, same quorum verdicts.
        assert_eq!(r.down_clients, s.down_clients);
        assert_eq!(r.down_bytes, s.down_bytes);
        assert_eq!(r.up_clients, s.up_clients);
        assert_eq!(r.up_bytes, s.up_bytes);
        assert_eq!(r.wasted_up_bytes, s.wasted_up_bytes);
        assert_eq!(r.quorum_met, s.quorum_met);
        saw_fault |= r.up_clients < r.down_clients || r.wasted_up_bytes > 0;
    }
    assert!(saw_fault, "storm config produced no faults — weak test");
    let stats = socket.transport.expect("socket run must report wire stats");
    assert_stats_match_history(&stats, &socket.history);
}

/// A server killed after round 4 (worker pool, sockets and all) and
/// restarted over a fresh pool replays the in-process federation exactly
/// (straight socket == in-process is `faults_off_socket_…`), its wire
/// stats covering rounds 4..8 only; the same checkpoint resumes
/// in-process to the same bytes. FedKEMF with its client models spilled
/// to disk, killed after round 2 and resumed over sockets over the same
/// spill directory, replays the eager in-process run.
#[test]
fn server_killed_mid_federation_resumes_byte_identically_over_sockets() {
    let s = Scenario { rounds: 8, ..trained(0, 0, 23) };
    let killed = Some((4, Transport::Threads(2)));
    let socket = Presentation { transport: Transport::Threads(2), resume: killed, ..PLAIN };
    let inproc = Presentation { transport: Transport::InProc, ..socket };
    check("server_killed", &s, &[socket, inproc]);

    let s = Scenario { rounds: 4, ..trained(6, 0, 26) };
    let spilled =
        Presentation { sharded: true, resume: Some((2, Transport::Threads(2))), ..socket };
    check("server_killed_kemf", &s, &[spilled]);
}

#[test]
fn quorum_fallback_survives_the_socket_transport() {
    let (ctx, _) = world(24, 6);
    let faults = FaultConfig { drop_before_download: 0.9, min_quorum: 3, ..Default::default() };
    let mut a = Probe;
    let inproc = Engine::run(&mut a, &ctx, RunOptions::new().faults(faults)).unwrap();
    let mut b = Probe;
    let socket = Engine::run(
        &mut b,
        &ctx,
        RunOptions::new().faults(faults).socket_transport(SocketConfig::threads(2)),
    )
    .unwrap();
    // Pre-download drops put nothing on the wire, so even this storm is
    // byte-identical; discarded rounds (NaN loss, carried-over global)
    // must survive the transport unchanged.
    assert_eq!(inproc.history.to_json(), socket.history.to_json());
    assert!(
        socket.history.records.iter().any(|r| !r.quorum_met),
        "a 90% pre-download drop against quorum 3 must discard some round"
    );
    let stats = socket.transport.expect("socket run must report wire stats");
    assert_stats_match_history(&stats, &socket.history);
}

/// Real OS processes (the `kemf_worker` binary connecting back over TCP)
/// serve a fault storm, a corrupted broadcast among it, as worker threads
/// do: both pools yield the in-process history, and the same frames
/// either side of exec.
#[test]
fn worker_processes_speak_the_same_protocol_as_threads() {
    let s = Scenario { algo: None, ..trained(0, 5, 28) };
    let pools = [Transport::Process, Transport::Threads(2)]
        .map(|transport| Presentation { transport, ..PLAIN });
    let runs = check("worker_processes", &s, &pools);
    assert_eq!(runs[1].stats, runs[2].stats, "same frames, same bytes, either side of exec");
}

/// Concurrent links enact the sequential conversation: a fault-storm run
/// over sockets is pinned to one hash of its history and every wire
/// counter, whatever the compute width (`scripts/ci.sh` runs this suite at
/// `KEMF_THREADS=1`, `=2` and `=3`). Six of eight clients are sampled per
/// round, so after the storm's drops the links carry uneven loads. Only
/// the pool size moves the counters: one hello and one shutdown frame per
/// worker.
#[test]
fn fault_storm_over_concurrent_links_is_pinned_at_every_width() {
    let task = SynthTask::new(SynthConfig::mnist_like(27));
    let train = task.generate(240, 0);
    let cfg = FlConfig {
        n_clients: 8,
        sample_ratio: 0.75,
        rounds: 6,
        batch_size: 16,
        min_per_client: 10,
        seed: 27,
        ..Default::default()
    };
    let ctx = FlContext::new(cfg, &train, task.generate(80, 1));
    let mut got = Vec::new();
    for workers in [2, 3] {
        let report = Engine::run(
            &mut Probe,
            &ctx,
            RunOptions::new().faults(storm()).socket_transport(SocketConfig::threads(workers)),
        )
        .unwrap();
        let stats = report.transport.expect("socket run must report wire stats");
        assert_stats_match_history(&stats, &report.history);
        let TransportStats {
            rounds,
            frames_sent,
            frames_received,
            payload_down_bytes,
            payload_up_bytes,
            payload_wasted_bytes,
            wire_bytes,
        } = stats;
        let counters = [
            rounds as u64,
            frames_sent,
            frames_received,
            payload_down_bytes,
            payload_up_bytes,
            payload_wasted_bytes,
            wire_bytes,
        ];
        let hash = counters.iter().fold(
            fnv1a64(FNV_OFFSET, report.history.to_json().as_bytes()),
            |h, c| fnv1a64(h, &c.to_le_bytes()),
        );
        got.push((workers, hash));
    }
    let want = [(2, 0x4080_f409_78af_c453), (3, 0xf6f7_ce92_028f_9adb)];
    assert_eq!(got, want, "actual: {got:#018x?}");
}
