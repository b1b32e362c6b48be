//! Integration: golden bytes. Every on-disk and on-wire format the
//! library writes — checkpoints, spill blobs, quantized wire payloads,
//! KMFT frames with every frame body, payload envelopes — is pinned to
//! the exact bytes it produced at commit 6c89ee6, before the six
//! hand-rolled little-endian encoders were rebuilt on `kemf_nn::codec`.
//! (The frame functions were private then: their constants were
//! generated by running the same two tests as unit tests inside
//! `transport.rs`.)
//!
//! Inputs are built by hand (no RNG, no kernels), so the constants do
//! not depend on the host. A format change is a compatibility break:
//! old checkpoints and spill directories stop loading, old workers stop
//! parsing. If one is ever *intended*, run `cargo test --test
//! golden_bytes`: the failures print the actual values in source form.

use fedkemf::fl::checkpoint::{save_run, RunCheckpoint};
use fedkemf::fl::scheduler::{PendingEvent, SchedulerState};
use fedkemf::fl::transport::{build_payload, read_frame, validate_payload, worker_loop, write_frame};
use fedkemf::nn::checkpoint::save_state;
use fedkemf::prelude::*;
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Duration;

/// FNV-1a-64 of each artifact's bytes.
const GOLDEN: [(&str, u64); 5] = [
    ("save_state", 0x0a05122005d0ccfb),
    ("save_run sync", 0x68651fc61a227bad),
    ("save_run async", 0x66c80d6094a0b914),
    ("to_wire", 0x3f5771d654948f1d),
    ("client blob", 0x49731e1e5dca2a6a),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// `lens`-partitioned values with every awkward bit pattern in them.
fn weights(lens: &[usize], salt: f32) -> Weights {
    let n: usize = lens.iter().sum();
    let mut values: Vec<f32> = (0..n).map(|i| salt + i as f32 * 0.37 - 1.5).collect();
    for (i, odd) in [f32::NAN, -0.0, f32::MIN_POSITIVE, f32::INFINITY].into_iter().enumerate() {
        if let Some(v) = values.get_mut(i * 3) {
            *v = odd;
        }
    }
    Weights { values, lens: lens.to_vec() }
}

fn model(salt: f32) -> ModelState {
    ModelState { params: weights(&[6, 0, 5, 2], salt), buffers: weights(&[3], salt + 9.0) }
}

fn sync_checkpoint() -> RunCheckpoint {
    let state = AlgorithmState::new("FedKEMF", 2)
        .with_model("knowledge", model(0.25))
        .with_model("local.0", model(-4.0))
        .with_tensor("c", vec![2, 3], vec![1.0, f32::NAN, -0.0, 0.5, -2.5, 1e-30])
        .with_tensor("empty", vec![0, 7], vec![])
        .with_scalar("mu", 0.01)
        .with_scalar("sharded_clients", 24.0);
    RunCheckpoint {
        fingerprint: 0xDEAD_BEEF_0BAD_F00D,
        next_round: 2,
        algorithm: "FedKEMF".into(),
        sampler_check: 17,
        fault_check: u64::MAX,
        records: vec![
            RoundRecord { round: 0, test_acc: 0.5, train_loss: f32::NAN, ..Default::default() },
            RoundRecord {
                round: 1,
                test_acc: 0.625,
                train_loss: 1.5,
                cum_bytes: 1 << 40,
                down_bytes: 4096,
                up_bytes: 1024,
                wasted_up_bytes: 512,
                down_clients: 4,
                up_clients: 3,
                quorum_met: true,
            },
        ],
        state,
        scheduler: None,
    }
}

/// One in-flight event per `UpdatePayload` variant; the second carries a
/// `commit` blob.
fn async_checkpoint() -> RunCheckpoint {
    let logits = TensorBlob { dims: vec![2, 3], values: vec![0.1, 0.2, 0.3, -0.4, 0.5, -0.0] };
    let blob = ClientBlob::new().with_model("model", model(2.0)).with_tensor("c", vec![2], vec![0.5, -1.5]);
    let payloads = [
        (UpdatePayload::Empty, None),
        (UpdatePayload::StateAux { state: model(1.0), aux: vec![1.0, -0.0, f32::NAN] }, Some(blob)),
        (UpdatePayload::State(model(3.0)), None),
        (UpdatePayload::Logits(logits), None),
        (UpdatePayload::Window { offset: 3, state: model(5.0) }, None),
    ];
    let events = payloads
        .into_iter()
        .enumerate()
        .map(|(i, (payload, commit))| PendingEvent {
            time_bits: (3.5 + i as f64 * 1.25).to_bits(),
            wave: i / 2,
            idx: i % 2,
            up_bytes: if i == 1 { u64::MAX } else { 4096 * i as u64 },
            update: PreparedUpdate {
                client: 7 - i,
                n_samples: 12 + i,
                steps: 30 * i,
                loss: if i == 0 { f32::NAN } else { 0.75 * i as f32 },
                payload,
                commit,
            },
        })
        .collect();
    RunCheckpoint {
        next_round: 3,
        scheduler: Some(SchedulerState { now_bits: 1.125f64.to_bits(), events }),
        ..sync_checkpoint()
    }
}

fn quantized() -> QuantizedWeights {
    QuantizedWeights {
        codes: (0..600).map(|i| (i * 7 % 256) as u8 as i8).collect(),
        scales: vec![0.5, 1e-12, 3.0],
        offsets: vec![-1.0, 0.0, -0.0],
        chunk: 256,
        lens: vec![100, 0, 500],
    }
}

fn artifacts(dir: &Path) -> Vec<(&'static str, Vec<u8>)> {
    let read = |p: &Path| std::fs::read(p).unwrap();
    let state_file = dir.join("state.ckpt");
    save_state(&model(0.5), &state_file).unwrap();
    let sync_file = save_run(&sync_checkpoint(), &dir.join("sync")).unwrap();
    let async_file = save_run(&async_checkpoint(), &dir.join("async")).unwrap();
    let spill = dir.join("spill");
    let mut store = ClientStateStore::sharded(3, SpillConfig::new(&spill)).unwrap();
    store.begin_round(2);
    let blob = ClientBlob::new().with_model("model", model(7.0)).with_tensor("c", vec![3], vec![1.0, f32::NAN, -0.0]);
    store.commit(1, blob).unwrap();
    vec![
        ("save_state", read(&state_file)),
        ("save_run sync", read(&sync_file)),
        ("save_run async", read(&async_file)),
        ("to_wire", quantized().to_wire()),
        ("client blob", read(&spill.join("shard_0000/c000000001_r000002.ckpt"))),
    ]
}

#[test]
fn every_written_format_is_byte_stable() {
    let dir = std::env::temp_dir().join(format!("kemf_golden_bytes_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let got: Vec<(&str, u64)> =
        artifacts(&dir).iter().map(|(name, bytes)| (*name, fnv1a64(bytes))).collect();
    let _ = std::fs::remove_dir_all(&dir);
    let table: String = got.iter().map(|(n, h)| format!("    (\"{n}\", {h:#018x}),\n")).collect();
    assert!(got == GOLDEN, "written bytes changed; actual table:\n{table}");
}

/// The golden files are not write-only: each checkpoint loads and
/// re-saves to the same bytes (so NaN payloads and `-0.0` survive), and
/// the wire snapshot decodes to what was encoded.
#[test]
fn golden_inputs_load_back_bit_exactly() {
    let dir = std::env::temp_dir().join(format!("kemf_golden_load_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for ckpt in [sync_checkpoint(), async_checkpoint()] {
        let first = save_run(&ckpt, &dir.join("a")).unwrap();
        let loaded = fedkemf::fl::checkpoint::load_run(&first).unwrap();
        let second = save_run(&loaded, &dir.join("b")).unwrap();
        assert_eq!(std::fs::read(first).unwrap(), std::fs::read(second).unwrap());
    }
    let q = quantized();
    assert_eq!(QuantizedWeights::from_wire(&q.to_wire()).unwrap(), q);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- KMFT frames, frame bodies, payload envelopes ---------------------------
//
// The expected layouts are written out with `to_le_bytes` here, by hand,
// so they stay independent of the encoder under test.

/// Frame kinds, `K_UP_ERR` code and `K_ACK` statuses of the protocol.
const K_HELLO: u8 = 1;
const K_DOWN: u8 = 2;
const K_UP: u8 = 3;
const K_UP_ERR: u8 = 4;
const K_ACK: u8 = 5;
const K_SHUTDOWN: u8 = 6;
const ERR_DECODE: u8 = 1;
const ACK_ACCEPTED: u8 = 0;
const ACK_RETRY: u8 = 1;

fn le(words: &[u64]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// Reference `K_DOWN` body (30 s deadline).
fn down_body(round: u64, client: u64, delay_s: f64, up_len: u64, declared: u64, payload: &[u8]) -> Vec<u8> {
    let head = le(&[round, client, delay_s.to_bits(), 30.0f64.to_bits(), up_len, declared]);
    [head, payload.to_vec()].concat()
}

#[test]
fn frames_and_payload_envelopes_are_byte_stable() {
    let msg = "payload checksum mismatch";
    // The filler seeds of (round 3, client 7) up and down.
    let up = build_payload(40, 0x5e06_61cc_8f5e_22dc, None);
    let down = build_payload(96, 0x7d01_28d5_9a4d_6cfd, None);
    let bodies: [(u8, Vec<u8>); 6] = [
        (K_HELLO, le(&[1])),
        (K_DOWN, down_body(3, 7, 1.5, 40, 96, &down)),
        (K_UP, [le(&[3, 7, 2, 40]), up].concat()),
        (K_UP_ERR, [le(&[3, 7]), vec![ERR_DECODE], le(&[msg.len() as u64]), msg.into()].concat()),
        (K_ACK, [le(&[3, 7]), vec![ACK_RETRY]].concat()),
        (K_SHUTDOWN, vec![]),
    ];
    let mut wire = Vec::new();
    for (kind, body) in &bodies {
        write_frame(&mut wire, *kind, &[body]).unwrap();
    }
    let mut rest = wire.as_slice();
    for (kind, body) in &bodies {
        let (k, b, _) = read_frame(&mut rest).unwrap();
        assert_eq!((k, &b), (*kind, body));
    }
    let enc = QuantizedWeights {
        codes: (0..300).map(|i| (i * 11 % 256) as u8 as i8).collect(),
        scales: vec![0.25, 2.0],
        offsets: vec![-3.0, 0.5],
        chunk: 256,
        lens: vec![120, 180],
    }
    .to_wire();
    let with_model = build_payload((1 + 8 + enc.len() + 4 + 32) as u64, 9, Some(&enc));
    validate_payload(&with_model, with_model.len() as u64).unwrap();
    let got = [
        fnv1a64(&wire),
        fnv1a64(&with_model),
        fnv1a64(&build_payload(64, 9, None)),
        fnv1a64(&build_payload(3, 9, None)),
        // A model-sized filler, long enough to be generated in runs.
        fnv1a64(&build_payload(1_269_800, 9, None)),
    ];
    let want: [u64; 5] = [
        0x2b0a67d7c7ca0ace,
        0x16e783fab41469f6,
        0x641e4bc3f5cf800a,
        0xda93fa198f69195e,
        0xf05ece8a9ffd2c98,
    ];
    assert!(got == want, "frame/envelope bytes changed; actual: {got:#018x?}");
}

/// Every byte a worker sends during a scripted conversation whose
/// server side is hand-encoded: pins the worker's parse of `K_DOWN` and
/// `K_ACK` and its `K_HELLO` / `K_UP` / `K_UP_ERR` output. The server's
/// own frames are the same layouts, or the socket tests against this
/// worker would not pass.
#[test]
fn worker_conversation_is_byte_stable() {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let worker = std::thread::spawn(move || {
        worker_loop(TcpStream::connect(addr).unwrap(), 5, Duration::from_secs(10))
    });
    let (mut server, _) = listener.accept().unwrap();
    server.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut heard = Vec::new();
    let mut hear = |server: &mut TcpStream| {
        let mut header = [0u8; 9];
        server.read_exact(&mut header).unwrap();
        let body_len = u32::from_le_bytes(header[5..9].try_into().unwrap()) as usize;
        let mut rest = vec![0u8; body_len + 4];
        server.read_exact(&mut rest).unwrap();
        heard.extend_from_slice(&header);
        heard.extend_from_slice(&rest);
        header[4]
    };
    let ack = |status: u8| [le(&[3, 7]), vec![status]].concat();
    let good = build_payload(96, 1, None);

    assert_eq!(hear(&mut server), K_HELLO);
    // Clean broadcast; first upload bounced, second accepted.
    write_frame(&mut server, K_DOWN, &[&down_body(3, 7, 0.0, 40, 96, &good)]).unwrap();
    assert_eq!(hear(&mut server), K_UP);
    write_frame(&mut server, K_ACK, &[&ack(ACK_RETRY)]).unwrap();
    assert_eq!(hear(&mut server), K_UP);
    write_frame(&mut server, K_ACK, &[&ack(ACK_ACCEPTED)]).unwrap();
    // Broadcast cut in transit: decode failure report.
    write_frame(&mut server, K_DOWN, &[&down_body(4, 2, 0.0, 40, 96, &good[..48])]).unwrap();
    assert_eq!(hear(&mut server), K_UP_ERR);
    // Straggler past the 30 s deadline: timeout report.
    write_frame(&mut server, K_DOWN, &[&down_body(5, 1, 99.0, 40, 96, &good)]).unwrap();
    assert_eq!(hear(&mut server), K_UP_ERR);
    write_frame(&mut server, K_SHUTDOWN, &[]).unwrap();
    worker.join().unwrap().unwrap();
    let got = fnv1a64(&heard);
    assert!(got == 0xbcdcf7b219d82cd0, "worker wire bytes changed; actual: {got:#018x}");
}
