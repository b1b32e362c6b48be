//! Hostile run-checkpoint `meta`: every length, count and tag in it is
//! held against the bytes that follow, so a corrupt one fails `load_run`
//! — which then falls back to the previous checkpoint — instead of
//! over-allocating in the decoder or restoring a model whose `lens` lie.
//! The bundle-level counterpart is `crates/nn/tests/hostile_checkpoint.rs`.
//!
//! Each case is a v3 `meta` cut off right after one hostile field (plus
//! padding, so nothing before it runs short), inside an otherwise valid
//! bundle file. `1 << 20` sits inside every magic cap the pre-codec
//! decoder had; the other two values are the classic overflows.

use kemf_fl::checkpoint::{load_run, ASYNC_CHECKPOINT_VERSION};
use kemf_nn::checkpoint::encode_bundle;
use kemf_nn::codec::Writer;
use kemf_nn::serialize::{ModelState, Weights};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// In-flight event payload tags of the v3 format.
const PAYLOAD_EMPTY: u8 = 0;
const PAYLOAD_STATE: u8 = 1;
const PAYLOAD_STATE_AUX: u8 = 2;

/// Up to (excluding) the algorithm-name length.
fn start() -> Writer {
    let mut w = Writer::new();
    w.u32(ASYNC_CHECKPOINT_VERSION);
    w.u64(0xF00D);
    w.usize(2);
    w
}

/// Up to (excluding) the record count.
fn head() -> Writer {
    let mut w = start();
    w.string("FedAvg");
    w.u64(17);
    w.u64(23);
    w.string("FedAvg");
    w.u32(1);
    w
}

/// No records, the clock, one event up to and including its payload tag.
fn event(tag: u8) -> Writer {
    let mut w = head();
    w.usize(0);
    w.u64(0);
    w.usize(1);
    for _ in 0..7 {
        w.u64(0);
    }
    w.f32(0.5);
    w.u8(tag);
    w
}

fn empty_model() -> ModelState {
    let none = || Weights { values: vec![], lens: vec![] };
    ModelState { params: none(), buffers: none() }
}

/// `load_run` on a bundle file whose meta section is `meta`.
fn load(meta: &Writer) -> Result<usize, String> {
    static FILES: AtomicUsize = AtomicUsize::new(0); // the tests run in parallel
    let file = format!("kemf_hostile_meta_{}_{}.ckpt", std::process::id(), FILES.fetch_add(1, Relaxed));
    let path = std::env::temp_dir().join(file);
    std::fs::write(&path, encode_bundle(meta.as_bytes(), &[], &[], &[])).unwrap();
    let loaded = load_run(&path);
    let _ = std::fs::remove_file(&path);
    loaded.map(|ckpt| ckpt.scheduler.map_or(0, |s| s.events.len())).map_err(|e| e.to_string())
}

#[test]
fn hostile_meta_fields_fail_load_run_before_allocation() {
    let counts: Vec<(&str, Writer)> = vec![
        ("string", start()),
        ("record count", head()),
        ("event count", {
            let mut w = head();
            w.usize(0);
            w.u64(0);
            w
        }),
        ("usize vec", event(PAYLOAD_STATE)),
        ("f32 vec", {
            let mut w = event(PAYLOAD_STATE_AUX);
            w.model(&empty_model());
            w
        }),
        ("blob model count", {
            let mut w = event(PAYLOAD_EMPTY);
            w.u8(1);
            w
        }),
        ("blob tensor count", {
            let mut w = event(PAYLOAD_EMPTY);
            w.u8(1);
            w.usize(0);
            w
        }),
    ];
    for (field, prefix) in &counts {
        for huge in [1u64 << 20, 1 << 32, u64::MAX] {
            let mut w = prefix.clone();
            w.u64(huge);
            w.raw(&[0; 64]);
            let err = load(&w).expect_err(field);
            assert!(err.contains("implausible"), "{field} = {huge}: {err}");
        }
    }
}

#[test]
fn unknown_tags_and_lying_lens_fail_load_run() {
    let refused = |mut w: Writer, why: &str| {
        w.raw(&[0; 8]);
        let err = load(&w).expect_err(why);
        assert!(err.contains(why), "{why}: {err}");
    };
    refused(event(9), "unknown update payload tag 9");
    let mut flag = event(PAYLOAD_EMPTY);
    flag.u8(7);
    refused(flag, "unknown commit flag 7");
    // Lens that lie about the values: caught here, not in `set_state`.
    let mut lying = event(PAYLOAD_STATE);
    lying.u64s(&[2]);
    lying.f32s(&[1.0]);
    refused(lying, "do not match the declared shape");
    // The honest version of the same event loads.
    let mut honest = event(PAYLOAD_STATE);
    honest.model(&empty_model());
    honest.u8(0);
    assert_eq!(load(&honest), Ok(1));
}
