//! Crash-consistent run checkpoints: everything the engine needs to
//! continue a federated run from round *k* such that the finished
//! [`History`] is **bit-identical** to an uninterrupted run.
//!
//! A [`RunCheckpoint`] rides inside a kemf-nn v2 bundle
//! ([`kemf_nn::checkpoint::CheckpointBundle`]): the algorithm's
//! [`AlgorithmState`] maps onto the bundle's model/array/scalar
//! sections, and the engine's own metadata — config fingerprint, next
//! round index, RNG verification probes, and the history so far — is
//! encoded with [`kemf_nn::codec`] into the bundle's opaque `meta`
//! section (binary, not JSON, so every `f32` bit pattern survives and
//! the resumed history re-serializes byte-for-byte).
//!
//! **Resume semantics.** The engine does not serialize raw RNG
//! internals (the vendored `StdRng` keeps its state private, matching
//! the real `rand` API). Instead it *replays* the sampler and fault
//! streams — re-drawing every completed round's client sample and
//! lifecycle plan, which also reconstructs the plans for the final
//! report — and then compares one probe draw per stream against the
//! values stored at save time. Any divergence (code drift, a foreign
//! checkpoint) refuses to resume rather than silently forking the run.
//!
//! **Identity.** [`run_fingerprint`] is FNV-1a over [`run_identity`],
//! one codec encoding of what decides a run's trajectory: the
//! [`FlConfig`] without `rounds` (the seed included), the effective
//! [`FaultConfig`], and the algorithm's [`FedAlgorithm::identity`] — its
//! name and every knob it holds (FedKEMF's distillation temperature,
//! ensemble rule, DML weight and warm-up; FedProx's μ; each model spec).
//! Floats go in as raw bits, so distinct values never share a
//! fingerprint. Another identity refuses to resume with
//! [`crate::engine::ResumeError::FingerprintMismatch`]. Left out on
//! purpose: `rounds`, so a checkpointed 5-round run may be extended to 10
//! (the kill-and-resume tests and the CI smoke do); the transport and the
//! spill directory, which never change a history; and data (shards, test
//! set, public pools), a seeded function of the task the engine never
//! sees. Async runs mix their knobs in afterwards
//! ([`crate::scheduler::AsyncConfig`]).

use crate::client_store::ClientBlob;
use crate::config::FlConfig;
use crate::engine::FedAlgorithm;
use crate::lifecycle::FaultConfig;
use crate::metrics::RoundRecord;
use crate::scheduler::{PendingEvent, PreparedUpdate, SchedulerState, UpdatePayload};
use crate::state::AlgorithmState;
use kemf_nn::checkpoint::{atomic_write, encode_bundle, load_bundle, CheckpointBundle};
use kemf_nn::codec::{self, fnv1a64, CodecError, Reader, Writer, FNV_OFFSET};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Format version of the engine metadata inside the bundle's `meta`
/// section. Synchronous runs still write exactly this version (and
/// byte-identical files to every earlier build); buffered-asynchronous
/// runs write [`ASYNC_CHECKPOINT_VERSION`], which appends the
/// scheduler's virtual clock and in-flight event queue after the v1
/// fields. Both versions load.
pub const RUN_CHECKPOINT_VERSION: u32 = 1;

/// Meta version written when the checkpoint carries async scheduler
/// state. v3 adds the frozen per-event uplink byte count (and the
/// windowed sub-model payload variant) to each in-flight event; the
/// short-lived v2 format, which lacked per-event billing, is refused on
/// load rather than silently resumed with zeroed uplink bytes.
pub const ASYNC_CHECKPOINT_VERSION: u32 = 3;

/// File-name prefix/suffix of round checkpoints inside a checkpoint
/// directory: `round_00004.ckpt` holds the state *after* 4 completed
/// rounds (next round index 4).
const FILE_PREFIX: &str = "round_";
const FILE_SUFFIX: &str = ".ckpt";

/// A resumable snapshot of one run after `next_round` completed rounds.
#[derive(Clone, Debug, PartialEq)]
pub struct RunCheckpoint {
    /// [`run_fingerprint`] of the run that wrote this checkpoint.
    pub fingerprint: u64,
    /// Index of the first round still to execute.
    pub next_round: usize,
    /// Algorithm display name (engine-level duplicate of the state's
    /// header, so mismatches are reported before restore runs).
    pub algorithm: String,
    /// One probe draw of the sampler RNG at save time (the stream is
    /// replayed on resume and must land here).
    pub sampler_check: u64,
    /// One probe draw of the fault RNG at save time.
    pub fault_check: u64,
    /// History records of the completed rounds, bit-exact.
    pub records: Vec<RoundRecord>,
    /// The algorithm's full state after round `next_round - 1`.
    pub state: AlgorithmState,
    /// Async scheduler snapshot (virtual clock + in-flight updates);
    /// `None` for synchronous runs. The fusion buffer is transient
    /// within a cycle, so the queue is the only event state to persist.
    pub scheduler: Option<SchedulerState>,
}

/// Checkpoint files the engine keeps, pruning the oldest: with two, one
/// good checkpoint always survives a crash mid-write of the next.
const KEEP_CHECKPOINTS: usize = 2;

/// When and where the engine writes checkpoints.
#[derive(Clone, Debug)]
pub struct CheckpointPolicy {
    /// Directory the `round_*.ckpt` files land in (created on demand).
    pub dir: PathBuf,
    /// Checkpoint after every `every` completed rounds (and always after
    /// the final round). Clamped to at least 1.
    pub every: usize,
}

impl CheckpointPolicy {
    /// Checkpoint into `dir` every `every` rounds, keeping the last two
    /// files.
    pub fn new(dir: impl Into<PathBuf>, every: usize) -> Self {
        CheckpointPolicy { dir: dir.into(), every: every.max(1) }
    }
}

/// Append the run's identity to `w` (see the module docs). Both configs
/// are destructured whole, so a new field fails to compile here until it
/// is placed in or out.
pub fn run_identity(w: &mut Writer, cfg: &FlConfig, faults: &FaultConfig, algo: &dyn FedAlgorithm) {
    let FlConfig { n_clients, sample_ratio, rounds: _, local_epochs, batch_size, lr, momentum,
        weight_decay, alpha, min_per_client, eval_batch, cohort_batch, seed } = *cfg;
    // `Some(0)` is refused by validation, so 0 stands for `None`.
    let counts = [n_clients, local_epochs, batch_size, min_per_client, eval_batch];
    counts.into_iter().chain([cohort_batch.unwrap_or(0)]).for_each(|v| w.usize(v));
    [sample_ratio, lr, momentum, weight_decay].into_iter().for_each(|v| w.f32(v));
    w.f64(alpha);
    w.u64(seed);
    let FaultConfig { drop_before_download, drop_after_download, straggler_prob, straggler_delay_s,
        round_deadline_s, upload_failure_prob, upload_retries, min_quorum } = *faults;
    let drops = [drop_before_download, drop_after_download, straggler_prob, upload_failure_prob];
    drops.into_iter().for_each(|p| w.f32(p));
    w.f64(straggler_delay_s);
    w.u8(round_deadline_s.is_some() as u8);
    w.f64(round_deadline_s.unwrap_or(0.0));
    w.u32(upload_retries);
    w.usize(min_quorum);
    algo.identity(w);
}

/// 64-bit FNV-1a over [`run_identity`]: what a checkpoint stores and a
/// resume compares.
pub fn run_fingerprint(cfg: &FlConfig, faults: &FaultConfig, algo: &dyn FedAlgorithm) -> u64 {
    let mut w = Writer::new();
    run_identity(&mut w, cfg, faults, algo);
    fnv1a64(FNV_OFFSET, w.as_bytes())
}

// ---- meta encoding -----------------------------------------------------
//
// Written and read with `kemf_nn::codec`, whose `Reader` bounds every
// declared length by the bytes that follow it and checks every
// lens/dims against its value count: a bit-flipped `meta` fails
// `load_run` (which then falls back to the previous checkpoint) instead
// of over-allocating here or panicking later in `set_state`.
//
// In-flight updates carry raw f32 values: little-endian bit patterns, so
// NaNs, -0.0, and every rounding artifact survive the round trip — the
// async kill-and-resume test compares the finished histories
// byte-for-byte.

const PAYLOAD_EMPTY: u8 = 0;
const PAYLOAD_STATE: u8 = 1;
const PAYLOAD_STATE_AUX: u8 = 2;
const PAYLOAD_LOGITS: u8 = 3;
const PAYLOAD_WINDOW: u8 = 4;

/// Smallest encodings, bounding the two `meta` lists: a record is seven
/// u64s, two f32s and the quorum byte; an event seven u64s, the loss,
/// the payload tag and the commit flag.
const MIN_RECORD_BYTES: usize = 7 * 8 + 2 * 4 + 1;
const MIN_EVENT_BYTES: usize = 7 * 8 + 4 + 1 + 1;

fn encode_event(w: &mut Writer, ev: &PendingEvent) {
    w.u64(ev.time_bits);
    w.usize(ev.wave);
    w.usize(ev.idx);
    w.u64(ev.up_bytes);
    w.usize(ev.update.client);
    w.usize(ev.update.n_samples);
    w.usize(ev.update.steps);
    w.f32(ev.update.loss);
    match &ev.update.payload {
        UpdatePayload::Empty => w.u8(PAYLOAD_EMPTY),
        UpdatePayload::State(state) => {
            w.u8(PAYLOAD_STATE);
            w.model(state);
        }
        UpdatePayload::StateAux { state, aux } => {
            w.u8(PAYLOAD_STATE_AUX);
            w.model(state);
            w.f32s(aux);
        }
        UpdatePayload::Logits(t) => {
            w.u8(PAYLOAD_LOGITS);
            w.tensor(t);
        }
        UpdatePayload::Window { offset, state } => {
            w.u8(PAYLOAD_WINDOW);
            w.usize(*offset);
            w.model(state);
        }
    }
    match &ev.update.commit {
        None => w.u8(0),
        Some(blob) => {
            w.u8(1);
            w.named(&blob.models, Writer::model);
            w.named(&blob.tensors, Writer::tensor);
        }
    }
}

fn decode_event(r: &mut Reader) -> Result<PendingEvent, CodecError> {
    let (time_bits, wave, idx, up_bytes) = (r.u64()?, r.usize()?, r.usize()?, r.u64()?);
    let (client, n_samples, steps, loss) = (r.usize()?, r.usize()?, r.usize()?, r.f32()?);
    let payload = match r.u8()? {
        PAYLOAD_EMPTY => UpdatePayload::Empty,
        PAYLOAD_STATE => UpdatePayload::State(r.model()?),
        PAYLOAD_STATE_AUX => {
            let state = r.model()?;
            UpdatePayload::StateAux { state, aux: r.f32s("aux values")? }
        }
        PAYLOAD_LOGITS => UpdatePayload::Logits(r.tensor()?),
        PAYLOAD_WINDOW => {
            let offset = r.usize()?;
            UpdatePayload::Window { offset, state: r.model()? }
        }
        other => return Err(CodecError::Malformed(format!("unknown update payload tag {other}"))),
    };
    let commit = match r.u8()? {
        0 => None,
        1 => {
            let models = r.models("blob models")?;
            Some(ClientBlob { models, tensors: r.tensors("blob tensors")? })
        }
        other => return Err(CodecError::Malformed(format!("unknown commit flag {other}"))),
    };
    Ok(PendingEvent {
        time_bits,
        wave,
        idx,
        up_bytes,
        update: PreparedUpdate { client, n_samples, steps, loss, payload, commit },
    })
}

fn decode_record(r: &mut Reader) -> Result<RoundRecord, CodecError> {
    let (round, test_acc, train_loss) = (r.usize()?, r.f32()?, r.f32()?);
    let (cum_bytes, down_bytes, up_bytes) = (r.u64()?, r.u64()?, r.u64()?);
    let (wasted_up_bytes, down_clients, up_clients) = (r.u64()?, r.usize()?, r.usize()?);
    let quorum_met = r.u8()? != 0;
    Ok(RoundRecord {
        round,
        test_acc,
        train_loss,
        cum_bytes,
        down_bytes,
        up_bytes,
        wasted_up_bytes,
        down_clients,
        up_clients,
        quorum_met,
    })
}

fn encode_meta(ckpt: &RunCheckpoint) -> Vec<u8> {
    let version = if ckpt.scheduler.is_some() {
        ASYNC_CHECKPOINT_VERSION
    } else {
        RUN_CHECKPOINT_VERSION
    };
    let mut w = Writer::new();
    w.u32(version);
    w.u64(ckpt.fingerprint);
    w.usize(ckpt.next_round);
    w.string(&ckpt.algorithm);
    w.u64(ckpt.sampler_check);
    w.u64(ckpt.fault_check);
    w.string(&ckpt.state.algorithm);
    w.u32(ckpt.state.version);
    w.usize(ckpt.records.len());
    for r in &ckpt.records {
        w.usize(r.round);
        w.f32(r.test_acc);
        w.f32(r.train_loss);
        w.u64(r.cum_bytes);
        w.u64(r.down_bytes);
        w.u64(r.up_bytes);
        w.u64(r.wasted_up_bytes);
        w.usize(r.down_clients);
        w.usize(r.up_clients);
        w.u8(r.quorum_met as u8);
    }
    if let Some(sched) = &ckpt.scheduler {
        w.u64(sched.now_bits);
        w.usize(sched.events.len());
        for ev in &sched.events {
            encode_event(&mut w, ev);
        }
    }
    w.into_bytes()
}

/// Decode a `meta` section into a checkpoint whose state carries only
/// its header; [`from_bundle`] moves the bundle's sections in.
fn decode_meta(meta: &[u8]) -> Result<RunCheckpoint, CodecError> {
    codec::decode(meta, |r| {
        let version = r.u32()?;
        if version == 2 {
            return Err(CodecError::Malformed(
                "run-checkpoint version 2 predates per-event uplink accounting; \
                 re-run from scratch (or from a synchronous v1 checkpoint)"
                    .into(),
            ));
        }
        if version != RUN_CHECKPOINT_VERSION && version != ASYNC_CHECKPOINT_VERSION {
            return Err(CodecError::Malformed(format!(
                "run-checkpoint version mismatch: expected {RUN_CHECKPOINT_VERSION} or \
                 {ASYNC_CHECKPOINT_VERSION}, found {version}"
            )));
        }
        // One `let` per field, in file order: the wire layout is this
        // sequence of reads, not the order of any struct literal below.
        let fingerprint = r.u64()?;
        let next_round = r.usize()?;
        let algorithm = r.string("algorithm name")?;
        let sampler_check = r.u64()?;
        let fault_check = r.u64()?;
        let state_algorithm = r.string("state algorithm name")?;
        let state_version = r.u32()?;
        let records = r.list(MIN_RECORD_BYTES, "records", decode_record)?;
        let scheduler = if version >= ASYNC_CHECKPOINT_VERSION {
            let now_bits = r.u64()?;
            let events = r.list(MIN_EVENT_BYTES, "events", decode_event)?;
            Some(SchedulerState { now_bits, events })
        } else {
            None
        };
        let state = AlgorithmState::new(state_algorithm, state_version);
        Ok(RunCheckpoint {
            fingerprint,
            next_round,
            algorithm,
            sampler_check,
            fault_check,
            records,
            state,
            scheduler,
        })
    })
}

// ---- save / load -------------------------------------------------------

fn from_bundle(bundle: CheckpointBundle) -> io::Result<RunCheckpoint> {
    let mut ckpt = decode_meta(&bundle.meta)?;
    ckpt.state.models = bundle.models;
    ckpt.state.tensors = bundle.arrays;
    ckpt.state.scalars = bundle.scalars;
    Ok(ckpt)
}

/// File name of the checkpoint taken after `next_round` completed
/// rounds.
pub fn checkpoint_file(dir: &Path, next_round: usize) -> PathBuf {
    dir.join(format!("{FILE_PREFIX}{next_round:05}{FILE_SUFFIX}"))
}

/// Atomically write `ckpt` into `dir` (created on demand) and return the
/// file path.
pub fn save_run(ckpt: &RunCheckpoint, dir: &Path) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = checkpoint_file(dir, ckpt.next_round);
    let state = &ckpt.state;
    let bytes = encode_bundle(&encode_meta(ckpt), &state.models, &state.tensors, &state.scalars);
    atomic_write(&path, &bytes)?;
    Ok(path)
}

/// Why [`load_run`] could not produce a checkpoint. The directory cases
/// are distinguished so a resume caller can tell "nothing was ever
/// checkpointed here" from "checkpoints exist but every one is
/// unreadable" — the former is typically a wrong path, the latter real
/// corruption.
#[derive(Debug)]
pub enum LoadError {
    /// Reading the path (or a single checkpoint file) failed.
    Io(io::Error),
    /// The directory exists but holds no `round_*.ckpt` files at all.
    NoCheckpoints {
        /// The directory scanned.
        dir: PathBuf,
    },
    /// Every `round_*.ckpt` candidate in the directory failed to load.
    AllCorrupt {
        /// The directory scanned.
        dir: PathBuf,
        /// Number of candidates tried (newest first).
        tried: usize,
        /// The error from the last (oldest) candidate.
        last: io::Error,
    },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "{e}"),
            LoadError::NoCheckpoints { dir } => {
                write!(f, "no round_*.ckpt checkpoints in {}", dir.display())
            }
            LoadError::AllCorrupt { dir, tried, last } => write!(
                f,
                "all {tried} checkpoint(s) in {} failed to load; last error: {last}",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for LoadError {}

/// Load a run checkpoint. `path` may be a checkpoint file or a
/// checkpoint directory; a directory resolves to its newest loadable
/// `round_*.ckpt` (stray `.tmp` leftovers from an interrupted save and
/// corrupt files are skipped, so a crash mid-write never blocks resume
/// from the previous good checkpoint). An empty directory and a
/// directory of only unreadable files are distinct typed errors, not
/// panics.
pub fn load_run(path: &Path) -> Result<RunCheckpoint, LoadError> {
    if path.is_dir() {
        let mut rounds = checkpoint_rounds(path).map_err(LoadError::Io)?;
        if rounds.is_empty() {
            return Err(LoadError::NoCheckpoints { dir: path.to_path_buf() });
        }
        // Newest first; fall back past corrupt files to the last good one.
        rounds.reverse();
        let tried = rounds.len();
        let mut last_err = None;
        for r in rounds {
            match load_bundle(checkpoint_file(path, r)).and_then(from_bundle) {
                Ok(ckpt) => return Ok(ckpt),
                Err(e) => last_err = Some(e),
            }
        }
        Err(LoadError::AllCorrupt {
            dir: path.to_path_buf(),
            tried,
            // `rounds` was non-empty, so the loop ran at least once and
            // recorded an error before falling through to here.
            last: last_err.unwrap_or_else(|| io::Error::other("no load attempted")),
        })
    } else {
        from_bundle(load_bundle(path).map_err(LoadError::Io)?).map_err(LoadError::Io)
    }
}

/// Completed-round indices of the `round_*.ckpt` files in `dir`,
/// ascending. Non-checkpoint files (including `.tmp` leftovers) are
/// ignored.
pub fn checkpoint_rounds(dir: &Path) -> io::Result<Vec<usize>> {
    let mut rounds = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(stem) = name.strip_prefix(FILE_PREFIX).and_then(|s| s.strip_suffix(FILE_SUFFIX))
        {
            if let Ok(r) = stem.parse::<usize>() {
                rounds.push(r);
            }
        }
    }
    rounds.sort_unstable();
    Ok(rounds)
}

/// Path of the newest checkpoint in `dir`, if any (no load attempted).
pub fn latest_checkpoint(dir: &Path) -> io::Result<Option<PathBuf>> {
    if !dir.is_dir() {
        return Ok(None);
    }
    Ok(checkpoint_rounds(dir)?.last().map(|&r| checkpoint_file(dir, r)))
}

/// Delete all but the newest two checkpoints in `dir`.
pub fn prune_checkpoints(dir: &Path) -> io::Result<()> {
    let rounds = checkpoint_rounds(dir)?;
    for &r in rounds.iter().rev().skip(KEEP_CHECKPOINTS) {
        std::fs::remove_file(checkpoint_file(dir, r))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kemf_nn::model::Model;
    use kemf_nn::models::{Arch, ModelSpec};

    fn tmpdir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("kemf_runckpt_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn sample_ckpt(next_round: usize) -> RunCheckpoint {
        let state = AlgorithmState::new("FedAvg", 1)
            .with_model("global", Model::new(ModelSpec::scaled(Arch::Cnn2, 1, 8, 10, 3)).state())
            .with_tensor("c", vec![3], vec![1.0, f32::NAN, -0.0])
            .with_scalar("mu", 0.01);
        RunCheckpoint {
            fingerprint: 0xDEAD_BEEF,
            next_round,
            algorithm: "FedAvg".into(),
            sampler_check: 17,
            fault_check: 23,
            records: vec![
                RoundRecord { round: 0, test_acc: 0.5, train_loss: f32::NAN, ..Default::default() },
                RoundRecord { round: 1, test_acc: 0.625, train_loss: 1.5, ..Default::default() },
            ],
            state,
            scheduler: None,
        }
    }

    #[test]
    fn run_checkpoint_roundtrips_bit_exactly() {
        let dir = tmpdir("rt");
        let ckpt = sample_ckpt(2);
        let path = save_run(&ckpt, &dir).unwrap();
        let loaded = load_run(&path).unwrap();
        assert_eq!(loaded.fingerprint, ckpt.fingerprint);
        assert_eq!(loaded.next_round, 2);
        assert_eq!(loaded.algorithm, "FedAvg");
        assert_eq!((loaded.sampler_check, loaded.fault_check), (17, 23));
        assert_eq!(loaded.state.models, ckpt.state.models);
        assert_eq!(loaded.state.scalars, ckpt.state.scalars);
        // NaNs round-trip by bit pattern.
        assert_eq!(
            loaded.state.tensors[0].1.values[1].to_bits(),
            ckpt.state.tensors[0].1.values[1].to_bits()
        );
        assert_eq!(loaded.records[0].train_loss.to_bits(), f32::NAN.to_bits());
        assert_eq!(loaded.records[1].test_acc.to_bits(), 0.625f32.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn async_checkpoint_with_in_flight_events_roundtrips_bit_exactly() {
        use crate::client_store::ClientBlob;
        use crate::scheduler::{PendingEvent, PreparedUpdate, SchedulerState, UpdatePayload};
        use crate::state::TensorBlob;
        let dir = tmpdir("async_rt");
        let model = Model::new(ModelSpec::scaled(Arch::Cnn2, 1, 8, 10, 3)).state();
        // One event per payload variant, with awkward bit patterns.
        let events = vec![
            PendingEvent {
                time_bits: 3.5f64.to_bits(),
                wave: 0,
                idx: 1,
                up_bytes: 4096,
                update: PreparedUpdate {
                    client: 7,
                    n_samples: 12,
                    steps: 30,
                    loss: f32::NAN,
                    payload: UpdatePayload::Empty,
                    commit: None,
                },
            },
            PendingEvent {
                time_bits: 4.25f64.to_bits(),
                wave: 1,
                idx: 0,
                up_bytes: u64::MAX,
                update: PreparedUpdate {
                    client: 2,
                    n_samples: 9,
                    steps: 18,
                    loss: 0.75,
                    payload: UpdatePayload::StateAux {
                        state: model.clone(),
                        aux: vec![1.0, -0.0, f32::NAN],
                    },
                    commit: Some(
                        ClientBlob::new()
                            .with_model("model", model.clone())
                            .with_tensor("c", vec![2], vec![0.5, -1.5]),
                    ),
                },
            },
            PendingEvent {
                time_bits: 9.0f64.to_bits(),
                wave: 1,
                idx: 2,
                up_bytes: 0,
                update: PreparedUpdate {
                    client: 4,
                    n_samples: 3,
                    steps: 6,
                    loss: 2.0,
                    payload: UpdatePayload::Logits(TensorBlob {
                        dims: vec![2, 3],
                        values: vec![0.1, 0.2, 0.3, -0.4, 0.5, -0.0],
                    }),
                    commit: None,
                },
            },
            PendingEvent {
                time_bits: 10.75f64.to_bits(),
                wave: 2,
                idx: 0,
                up_bytes: 1313,
                update: PreparedUpdate {
                    client: 5,
                    n_samples: 4,
                    steps: 8,
                    loss: 0.25,
                    payload: UpdatePayload::Window { offset: 3, state: model.clone() },
                    commit: None,
                },
            },
        ];
        let mut ckpt = sample_ckpt(2);
        ckpt.scheduler = Some(SchedulerState { now_bits: 1.125f64.to_bits(), events });
        let path = save_run(&ckpt, &dir).unwrap();
        let loaded = load_run(&path).unwrap();
        let sched = loaded.scheduler.expect("async checkpoint carries the scheduler");
        let want = ckpt.scheduler.as_ref().unwrap();
        assert_eq!(sched.now_bits, want.now_bits);
        assert_eq!(sched.events.len(), want.events.len());
        for (got, want) in sched.events.iter().zip(&want.events) {
            assert_eq!((got.time_bits, got.wave, got.idx), (want.time_bits, want.wave, want.idx));
            assert_eq!(got.up_bytes, want.up_bytes, "frozen uplink bytes survive the round trip");
            assert_eq!(
                (got.update.client, got.update.n_samples, got.update.steps),
                (want.update.client, want.update.n_samples, want.update.steps)
            );
            // NaN losses round-trip by bit pattern (PartialEq would
            // reject NaN == NaN, so compare bits).
            assert_eq!(got.update.loss.to_bits(), want.update.loss.to_bits());
            assert_eq!(got.update.commit, want.update.commit, "blob equality is bit-exact");
        }
        match &sched.events[1].update.payload {
            UpdatePayload::StateAux { state, aux } => {
                assert_eq!(state, &model);
                assert_eq!(aux[0].to_bits(), 1.0f32.to_bits());
                assert_eq!(aux[1].to_bits(), (-0.0f32).to_bits());
                assert_eq!(aux[2].to_bits(), f32::NAN.to_bits());
            }
            other => panic!("wrong payload variant: {other:?}"),
        }
        match &sched.events[2].update.payload {
            UpdatePayload::Logits(t) => assert_eq!(t.dims, vec![2, 3]),
            other => panic!("wrong payload variant: {other:?}"),
        }
        match &sched.events[3].update.payload {
            UpdatePayload::Window { offset, state } => {
                assert_eq!(*offset, 3);
                assert_eq!(state, &model);
            }
            other => panic!("wrong payload variant: {other:?}"),
        }
        assert!(matches!(sched.events[0].update.payload, UpdatePayload::Empty));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_checkpoints_still_write_version_one() {
        // Growing the format must not disturb synchronous checkpoints:
        // the meta section still leads with version 1 byte-for-byte.
        let dir = tmpdir("v1_stable");
        let path = save_run(&sample_ckpt(2), &dir).unwrap();
        let loaded = load_run(&path).unwrap();
        assert!(loaded.scheduler.is_none());
        assert_eq!(loaded.next_round, 2);
        assert_eq!(loaded.records.len(), 2);
        let mut sync = sample_ckpt(2);
        let sync_meta = super::encode_meta(&sync);
        assert_eq!(sync_meta[0..4], RUN_CHECKPOINT_VERSION.to_le_bytes());
        sync.scheduler = Some(crate::scheduler::SchedulerState { now_bits: 0, events: vec![] });
        let async_meta = super::encode_meta(&sync);
        assert_eq!(async_meta[0..4], ASYNC_CHECKPOINT_VERSION.to_le_bytes());
        assert_eq!(
            async_meta[4..sync_meta.len()],
            sync_meta[4..],
            "the async format appends after the v1 fields, it does not reshuffle them"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_two_checkpoints_are_refused_with_a_clear_message() {
        // v2 async checkpoints carried no per-event uplink bytes; loading
        // one would silently zero the billing of every in-flight event.
        let err = match super::decode_meta(&2u32.to_le_bytes()) {
            Ok(_) => panic!("a v2 checkpoint must be refused"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("version 2"), "bad message: {err}");
        assert!(err.to_string().contains("uplink"), "bad message: {err}");
    }

    #[test]
    fn directory_resume_picks_newest_and_skips_tmp_and_corrupt() {
        let dir = tmpdir("latest");
        save_run(&sample_ckpt(2), &dir).unwrap();
        save_run(&sample_ckpt(4), &dir).unwrap();
        // A crash mid-write of round 6 leaves a truncated tmp file...
        std::fs::write(dir.join("round_00006.ckpt.tmp"), b"KEMFCK").unwrap();
        // ...and even a corrupt *named* checkpoint must fall back.
        std::fs::write(checkpoint_file(&dir, 8), b"KEMFCKPT garbage").unwrap();
        assert_eq!(latest_checkpoint(&dir).unwrap(), Some(checkpoint_file(&dir, 8)));
        let loaded = load_run(&dir).unwrap();
        assert_eq!(loaded.next_round, 4, "corrupt newest falls back to last good");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_keeps_newest() {
        let dir = tmpdir("prune");
        for r in [1, 2, 3, 4] {
            save_run(&sample_ckpt(r), &dir).unwrap();
        }
        prune_checkpoints(&dir).unwrap();
        assert_eq!(checkpoint_rounds(&dir).unwrap(), vec![3, 4]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_ignores_rounds_but_sees_everything_else() {
        use crate::fedavg::FedAvg;
        use crate::fedprox::FedProx;
        let spec = ModelSpec::scaled(Arch::Cnn2, 1, 8, 10, 3);
        let (avg, prox) = (FedAvg::new(spec), FedProx::new(spec, 0.01));
        let cfg = FlConfig::default();
        let faults = FaultConfig::reliable();
        let base = run_fingerprint(&cfg, &faults, &avg);
        let longer = FlConfig { rounds: 100, ..cfg };
        assert_eq!(run_fingerprint(&longer, &faults, &avg), base, "horizon is not identity");
        let other_seed = FlConfig { seed: 8, ..cfg };
        assert_ne!(run_fingerprint(&other_seed, &faults, &avg), base);
        assert_ne!(run_fingerprint(&cfg, &faults, &prox), base);
        let other_cfg = FlConfig { n_clients: 11, ..cfg };
        assert_ne!(run_fingerprint(&other_cfg, &faults, &avg), base);
        let other_faults = FaultConfig { drop_after_download: 0.1, ..faults };
        assert_ne!(run_fingerprint(&cfg, &other_faults, &avg), base);
        let deadline = FaultConfig { round_deadline_s: Some(0.0), ..faults };
        assert_ne!(run_fingerprint(&cfg, &deadline, &avg), base, "a zero deadline is not `None`");
        // Raw bits: two NaNs with different payloads are two identities.
        let nan = |bits| FlConfig { lr: f32::from_bits(bits), ..cfg };
        assert_ne!(
            run_fingerprint(&nan(0x7FC0_0000), &faults, &avg),
            run_fingerprint(&nan(0x7FC0_0001), &faults, &avg)
        );
    }

    #[test]
    fn non_finite_identity_fields_are_refused_by_validation() {
        // Every float of the identity must be finite before round 0; the
        // engine runs both checks and surfaces them as a config error.
        let cfgs = [
            FlConfig { momentum: f32::NAN, ..FlConfig::default() },
            FlConfig { lr: f32::INFINITY, ..FlConfig::default() },
            FlConfig { alpha: f64::INFINITY, ..FlConfig::default() },
        ];
        for (cfg, field) in cfgs.iter().zip(["momentum", "lr", "alpha"]) {
            let err = cfg.validate().unwrap_err();
            assert!(
                matches!(err, crate::config::ConfigError::OutOfRange { field: f, .. } if f == field),
                "got: {err}"
            );
        }
        let faults = [
            FaultConfig { straggler_delay_s: f64::NAN, ..FaultConfig::reliable() },
            FaultConfig { straggler_delay_s: f64::INFINITY, ..FaultConfig::reliable() },
            FaultConfig { round_deadline_s: Some(f64::INFINITY), ..FaultConfig::reliable() },
        ];
        let fields = ["straggler_delay_s", "straggler_delay_s", "round_deadline_s"];
        for (faults, field) in faults.iter().zip(fields) {
            let err = faults.validate().unwrap_err();
            assert!(
                matches!(err, crate::config::ConfigError::OutOfRange { field: f, .. } if f == field),
                "got: {err}"
            );
        }
    }

    #[test]
    fn empty_dir_is_clean_error() {
        let dir = tmpdir("empty");
        std::fs::create_dir_all(&dir).unwrap();
        let err = load_run(&dir).unwrap_err();
        assert!(matches!(err, LoadError::NoCheckpoints { .. }), "got: {err}");
        assert!(err.to_string().contains("no round_*.ckpt"), "bad message: {err}");
        assert!(latest_checkpoint(&dir).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_only_dir_is_a_typed_error_not_a_panic() {
        let dir = tmpdir("corrupt_only");
        std::fs::create_dir_all(&dir).unwrap();
        // Two named checkpoints, both garbage: the fallback scan used to
        // end in `last_err.expect(..)`; now it reports what it tried.
        std::fs::write(checkpoint_file(&dir, 2), b"KEMFCKPT nope").unwrap();
        std::fs::write(checkpoint_file(&dir, 4), b"still nope").unwrap();
        let err = load_run(&dir).unwrap_err();
        match err {
            LoadError::AllCorrupt { dir: ref d, tried, .. } => {
                assert_eq!(tried, 2);
                assert_eq!(d, &dir);
            }
            other => panic!("expected AllCorrupt, got: {other}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
