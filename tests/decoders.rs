//! Integration: the one decoder harness. Every decoder in the stack —
//! `load_state`, `load_bundle`, `load_run`, the client-store blob load,
//! `QuantizedWeights::from_wire`, and `read_frame` + `validate_payload` —
//! is fed (a) arbitrary bytes, alone and spliced after a valid prefix,
//! (b) every truncation of a valid encoding and (c) every single-bit
//! flip of one, and must neither panic nor make any single allocation
//! larger than a small multiple of its input. All six sit on
//! `kemf_nn::codec::Reader`, whose length policy is what this pins: a
//! declared length is held against the bytes still unread before
//! anything is allocated for it.
//!
//! `RunTrace::from_jsonl`, the one text decoder, gets the same three
//! attacks under its own contract (a prefix cut at a line end *is* a
//! shorter trace): a typed error or a trace that re-encodes stably, never
//! a panic, under the same allocation bound.
//!
//! Allocation sizes are tracked per thread, so the tests in this file
//! may run in parallel.

use fedkemf::fl::checkpoint::{load_run, save_run, RunCheckpoint};
use fedkemf::fl::scheduler::{PendingEvent, SchedulerState};
use fedkemf::fl::trace::{Counters, Phase, RunTrace, Span};
use fedkemf::fl::transport::{build_payload, read_frame, validate_payload, write_frame};
use fedkemf::nn::checkpoint::{load_bundle, load_state, save_state};
use fedkemf::prelude::*;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

// ---- largest single allocation, per thread --------------------------------

struct PeakAlloc;

thread_local! {
    /// `Some(largest request so far)` while a decode is being measured.
    /// Const-initialised and drop-free, so the allocator may touch it.
    static PEAK: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note(size: usize) {
    let _ = PEAK.try_with(|p| {
        if let Some(peak) = p.get() {
            p.set(Some(peak.max(size)));
        }
    });
}

// SAFETY: defers every operation to `System` unchanged; `note` only
// reads and writes a const-initialised thread-local `Cell` and never
// allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// Run `f`; returns its result and the largest single allocation it made.
fn peak_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
    PEAK.with(|p| p.set(Some(0)));
    let out = f();
    (out, PEAK.with(|p| p.take()).unwrap_or(0))
}

// ---- the six decoders -------------------------------------------------------

/// A decoder under test: its name, one valid encoding, and how to run it
/// on bytes (`true` = decoded). File decoders get a scratch directory.
struct Decoder {
    name: &'static str,
    valid: Vec<u8>,
    decode: fn(&[u8], &Path) -> bool,
}

fn weights(lens: &[usize]) -> Weights {
    let n: usize = lens.iter().sum();
    Weights { values: (0..n).map(|i| i as f32 * 0.5 - 1.0).collect(), lens: lens.to_vec() }
}

fn model() -> ModelState {
    ModelState { params: weights(&[3, 0, 2]), buffers: weights(&[2]) }
}

fn blob() -> ClientBlob {
    ClientBlob::new().with_model("model", model()).with_tensor("c", vec![2], vec![0.5, -1.5])
}

/// An async checkpoint with one in-flight event per payload variant.
fn checkpoint() -> RunCheckpoint {
    let logits = TensorBlob { dims: vec![1, 2], values: vec![0.1, -0.2] };
    let payloads = [
        (UpdatePayload::Empty, None),
        (UpdatePayload::StateAux { state: model(), aux: vec![1.0, -0.0] }, Some(blob())),
        (UpdatePayload::State(model()), None),
        (UpdatePayload::Logits(logits), None),
        (UpdatePayload::Window { offset: 3, state: model() }, None),
    ];
    let events = payloads
        .into_iter()
        .enumerate()
        .map(|(i, (payload, commit))| PendingEvent {
            time_bits: (1.5 * i as f64).to_bits(),
            wave: i,
            idx: 0,
            up_bytes: 64,
            update: PreparedUpdate { client: i, n_samples: 8, steps: 2, loss: 0.5, payload, commit },
        })
        .collect();
    RunCheckpoint {
        fingerprint: 7,
        next_round: 2,
        algorithm: "FedAvg".into(),
        sampler_check: 1,
        fault_check: 2,
        records: vec![RoundRecord { round: 0, ..Default::default() }, RoundRecord { round: 1, ..Default::default() }],
        state: AlgorithmState::new("FedAvg", 1)
            .with_model("global", model())
            .with_tensor("c", vec![3], vec![1.0, 2.0, 3.0])
            .with_scalar("mu", 0.01),
        scheduler: Some(SchedulerState { now_bits: 2.5f64.to_bits(), events }),
    }
}

fn quantized_wire() -> Vec<u8> {
    QuantizedWeights {
        codes: (0..40).map(|i| i as i8 - 20).collect(),
        scales: vec![0.5, 2.0],
        offsets: vec![-1.0, 0.25],
        chunk: 32,
        lens: vec![30, 10],
    }
    .to_wire()
}

/// Where the sharded store looks for client 0's round-0 blob.
fn spill_path(dir: &Path) -> PathBuf {
    dir.join("shard_0000/c000000000_r000000.ckpt")
}

fn load_file(bytes: &[u8], dir: &Path, load: impl FnOnce(&Path) -> bool) -> bool {
    let path = dir.join("round_00002.ckpt");
    std::fs::write(&path, bytes).unwrap();
    load(&path)
}

fn decoders(dir: &Path) -> Vec<Decoder> {
    let read = |p: PathBuf| std::fs::read(p).unwrap();
    save_state(&model(), dir.join("state")).unwrap();
    let run_file = save_run(&checkpoint(), dir).unwrap();
    let mut store = ClientStateStore::sharded(1, SpillConfig::new(dir)).unwrap();
    store.commit(0, blob()).unwrap();
    // A frame whose body is a payload envelope with an embedded model,
    // so `validate_payload` reaches the quantized-weights decoder.
    let wire = quantized_wire();
    let payload = build_payload((wire.len() + 32) as u64, 9, Some(&wire));
    let mut frame = Vec::new();
    write_frame(&mut frame, 2, &[&payload]).unwrap();
    vec![
        Decoder {
            name: "load_state",
            valid: read(dir.join("state")),
            decode: |b, d| load_file(b, d, |p| load_state(p).is_ok()),
        },
        Decoder {
            name: "load_bundle",
            valid: read(run_file.clone()),
            decode: |b, d| load_file(b, d, |p| load_bundle(p).is_ok()),
        },
        Decoder {
            name: "load_run",
            valid: read(run_file),
            decode: |b, d| load_file(b, d, |p| load_run(p).is_ok()),
        },
        Decoder {
            name: "client blob",
            valid: read(spill_path(dir)),
            decode: |b, d| {
                std::fs::write(spill_path(d), b).unwrap();
                let mut store = ClientStateStore::sharded(1, SpillConfig::new(d)).unwrap();
                store.begin_round(1);
                store.fetch(0, |_| ClientBlob::new()).is_ok()
            },
        },
        Decoder {
            name: "from_wire",
            valid: wire,
            decode: |b, _| QuantizedWeights::from_wire(b).is_ok_and(|q| q.validate().is_ok()),
        },
        Decoder {
            name: "read_frame + validate_payload",
            valid: frame,
            decode: |mut b, _| {
                read_frame(&mut b).is_ok_and(|(_, body, _)| validate_payload(&body, body.len() as u64).is_ok())
            },
        },
    ]
}

/// No single allocation may exceed this for an input of `len` bytes: a
/// decoded value is a few times its encoding at most (a 62-byte event is
/// a ~250-byte struct), plus slack for error strings, path buffers and a
/// buffered reader's block.
fn alloc_bound(len: usize) -> usize {
    8 * len + 16 * 1024
}

/// Decode `bytes` under the allocation watch. Panics in the decoder fail
/// the test by themselves; an oversized allocation is reported here.
fn check(d: &Decoder, bytes: &[u8], dir: &Path, case: &str) -> bool {
    let (ok, peak) = peak_alloc(|| (d.decode)(bytes, dir));
    assert!(
        peak <= alloc_bound(bytes.len()),
        "{}: {case}: one allocation of {peak} bytes for a {}-byte input",
        d.name,
        bytes.len()
    );
    ok
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kemf_decoders_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("shard_0000")).unwrap();
    dir
}

// ---- the text decoder -------------------------------------------------------

/// Two rounds with every phase and every optional field: a labelled
/// payload, the async staleness counters, minor faults, a failed quorum.
fn trace() -> RunTrace {
    let spans = (0..2)
        .flat_map(|round| {
            Phase::ALL.into_iter().enumerate().map(move |(i, phase)| Span {
                round,
                phase,
                wall_s: 0.125 * (i + 1) as f64,
                counters: Counters {
                    clients: 4,
                    steps: 12 * i as u64,
                    batches: 12 * i as u64,
                    flops: 1 << (20 + i),
                    down_bytes: 4096,
                    up_bytes: 2048,
                    wasted_up_bytes: 17,
                    stale_updates: round as u64,
                    evicted_updates: i as u64 % 2,
                    quorum_met: round == 0,
                    payload_label: [None, Some("weights"), Some("logits")][i % 3],
                    minor_faults: [None, Some(1700 * i as u64)][i % 2],
                },
            })
        })
        .collect();
    RunTrace { spans }
}

/// Parse `bytes` (lossily as UTF-8: the reader takes `&str`) under the
/// allocation watch. A trace that parses must survive its own re-encoding
/// unchanged — compared as text, since a `null` duration reads as NaN.
fn check_trace(bytes: &[u8], case: &str) -> Option<RunTrace> {
    let text = String::from_utf8_lossy(bytes);
    let (parsed, peak) = peak_alloc(|| RunTrace::from_jsonl(&text));
    assert!(
        peak <= alloc_bound(bytes.len()),
        "from_jsonl: {case}: one allocation of {peak} bytes for a {}-byte input",
        bytes.len()
    );
    let trace = parsed.ok()?;
    let again = trace.to_jsonl();
    let reread = RunTrace::from_jsonl(&again).map(|t| t.to_jsonl());
    assert_eq!(reread.ok().as_ref(), Some(&again), "from_jsonl: {case}: re-encoding is not stable");
    Some(trace)
}

#[test]
fn trace_reader_survives_prefixes_and_bit_flips() {
    let want = trace();
    let valid = want.to_jsonl().into_bytes();
    assert_eq!(check_trace(&valid, "valid"), Some(want.clone()));
    // A prefix either fails or is the spans of the lines it still holds
    // whole; only the cuts at (or one short of) a line end can succeed.
    let mut decoded = 0;
    for cut in 0..valid.len() {
        if let Some(t) = check_trace(&valid[..cut], &format!("prefix {cut}")) {
            assert!(want.spans.starts_with(&t.spans), "prefix {cut} decoded spans never written");
            decoded += 1;
        }
    }
    assert!(decoded <= 2 * want.spans.len(), "{decoded} prefixes decoded");
    let mut bytes = valid.clone();
    let mut accepted = 0usize;
    for bit in 0..bytes.len() * 8 {
        bytes[bit / 8] ^= 1 << (bit % 8);
        accepted += check_trace(&bytes, &format!("bit {bit}")).is_some() as usize;
        bytes[bit / 8] ^= 1 << (bit % 8);
    }
    // Flips inside digits still parse; flips inside keys, phase names,
    // punctuation or the payload label must not.
    assert!(accepted < bytes.len() * 8, "every flip decoded");
}

#[test]
fn valid_encodings_decode_and_every_truncation_or_extension_is_refused() {
    let dir = scratch("trunc");
    for d in decoders(&dir) {
        assert!(check(&d, &d.valid, &dir, "valid"), "{}: the valid encoding must decode", d.name);
        for cut in 0..d.valid.len() {
            let ok = check(&d, &d.valid[..cut], &dir, &format!("prefix {cut}"));
            assert!(!ok, "{}: a {cut}/{}-byte prefix decoded", d.name, d.valid.len());
        }
        // Trailing garbage is corruption too (a frame reader stops at the
        // end of its frame, so the stream decoder is exempt).
        let long = [d.valid.as_slice(), &[0]].concat();
        let ok = check(&d, &long, &dir, "one trailing byte");
        assert!(!ok || d.name.starts_with("read_frame"), "{}: trailing garbage decoded", d.name);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_single_bit_flip_is_survived() {
    let dir = scratch("flip");
    for d in decoders(&dir) {
        let mut bytes = d.valid.clone();
        let mut accepted = 0usize;
        for bit in 0..bytes.len() * 8 {
            bytes[bit / 8] ^= 1 << (bit % 8);
            accepted += check(&d, &bytes, &dir, &format!("bit {bit}")) as usize;
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        // Flips inside values (a float, a counter) still decode; flips
        // inside any length, count, tag or checksum must not.
        assert!(accepted < bytes.len() * 8, "{}: every flip decoded", d.name);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary bytes, alone and after a valid prefix (so the noise
    /// lands in section lengths deep inside the format, not just in the
    /// magic).
    #[test]
    fn arbitrary_bytes_are_survived(
        noise in prop::collection::vec(0u8..=255, 192),
        len in 0usize..=192,
        keep in 0usize..4096,
    ) {
        // Built once: every case after the first reuses the valid
        // encodings and the scratch directory.
        static SETUP: OnceLock<(PathBuf, Vec<Decoder>)> = OnceLock::new();
        let (dir, decoders) = SETUP.get_or_init(|| {
            let dir = scratch("noise");
            let decoders = decoders(&dir);
            (dir, decoders)
        });
        for d in decoders {
            check(d, &noise[..len], dir, "noise");
            let keep = keep % d.valid.len();
            let spliced = [&d.valid[..keep], &noise[..len]].concat();
            check(d, &spliced, dir, &format!("noise after {keep} valid bytes"));
        }
        // The text decoder: the same noise, and the noise folded onto
        // JSON's own alphabet so it nests, quotes and escapes.
        static TRACE: OnceLock<Vec<u8>> = OnceLock::new();
        let valid = TRACE.get_or_init(|| trace().to_jsonl().into_bytes());
        const JSON: &[u8] = b"{}[]\":,-+.eE0123456789 \n\\utrfalsn";
        let jsonish: Vec<u8> = noise[..len].iter().map(|&b| JSON[b as usize % JSON.len()]).collect();
        let keep = keep % valid.len();
        for tail in [&noise[..len], &jsonish[..]] {
            check_trace(tail, "noise");
            check_trace(&[&valid[..keep], tail].concat(), &format!("noise after {keep} valid bytes"));
        }
    }
}
