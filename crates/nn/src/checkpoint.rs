//! Binary checkpointing: a tiny self-describing format (magic, version,
//! length-prefixed little-endian sections) so long federated runs can
//! persist and resume without a serialization framework. The bytes are
//! laid out and read back by [`crate::codec`]; the guard against corrupt
//! section lengths is that module's one policy, not a local one.
//!
//! Two formats share the `KEMFCKPT` magic:
//!
//! * **v1** ([`save_state`]/[`load_state`]) — a single [`ModelState`],
//!   the original global-model checkpoint;
//! * **v2** ([`encode_bundle`]/[`load_bundle`]) — a [`CheckpointBundle`]:
//!   opaque metadata bytes plus named models, named dimension-tagged f32
//!   arrays, and named f64 scalars. This is the container the federated
//!   engine's resumable-run checkpoints are built on: one file holds a
//!   whole algorithm's state (knowledge network, per-client local
//!   models, control variates, consensus logits) next to the engine's
//!   own round/RNG/history metadata.
//!
//! All writes are **crash-consistent**: the bytes land in a `*.tmp`
//! sibling first, are fsynced, and are renamed over the destination only
//! then ([`atomic_write`]), so an interrupted save can never corrupt the
//! previous good checkpoint — at worst it leaves a stray `.tmp` file
//! that loaders ignore.
//!
//! Load errors always name the offending file and, for version
//! mismatches, the expected-vs-found version.

use crate::codec::{self, CodecError, Reader, Writer};
use crate::serialize::{ModelState, TensorBlob};
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"KEMFCKPT";
/// Format version of a single-model checkpoint ([`save_state`]).
pub const STATE_VERSION: u32 = 1;
/// Format version of a multi-model bundle ([`encode_bundle`]).
pub const BUNDLE_VERSION: u32 = 2;

/// A multi-model checkpoint: opaque caller metadata plus named sections.
/// Section order is preserved exactly, so serialization round-trips
/// bit-for-bit.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CheckpointBundle {
    /// Opaque caller-owned metadata (the federated engine stores its
    /// round index, RNG probes, and history here).
    pub meta: Vec<u8>,
    /// Named model states, e.g. `"global"`, `"local.3"`.
    pub models: Vec<(String, ModelState)>,
    /// Named dimension-tagged f32 arrays, e.g. control variates.
    pub arrays: Vec<(String, TensorBlob)>,
    /// Named f64 scalars.
    pub scalars: Vec<(String, f64)>,
}

/// Attach the offending path to an I/O error so callers always see which
/// file failed, not just the bare reason.
fn with_path(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("checkpoint {}: {e}", path.display()))
}

/// The path a partially-written checkpoint occupies until the atomic
/// rename: the destination file name with `.tmp` appended. Loaders that
/// scan directories must skip these.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Crash-consistent write: the bytes go to a `.tmp` sibling, are flushed
/// and fsynced, and only then renamed over `path`. A crash at any point
/// leaves either the old file intact or the complete new one — never a
/// truncated checkpoint under the real name.
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    let path = path.as_ref();
    let tmp = tmp_path(path);
    let mut out = File::create(&tmp).map_err(|e| with_path(&tmp, e))?;
    out.write_all(bytes).map_err(|e| with_path(&tmp, e))?;
    out.sync_all().map_err(|e| with_path(&tmp, e))?;
    drop(out);
    std::fs::rename(&tmp, path).map_err(|e| with_path(path, e))?;
    // Persist the rename itself (directory entry) where the platform
    // allows opening directories; best-effort elsewhere.
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// A writer holding the magic and `version`, ready for the sections.
fn header(version: u32) -> Writer {
    let mut w = Writer::new();
    w.raw(MAGIC);
    w.u32(version);
    w
}

/// Read `path` whole, check magic and `version`, run `sections` over the
/// rest and require it to consume every byte (so [`load_state`], like
/// [`load_bundle`], refuses trailing bytes). All length guarding is
/// [`Reader`]'s: a corrupt count fails as `InvalidData` — and the caller
/// can fall back to an older checkpoint — instead of aborting the
/// process inside the allocator. Errors name the file.
///
/// Memory: the file's bytes stay resident until the decoded sections are
/// built, so the transient peak is about twice the file size (bytes plus
/// decoded `f32`s), where a streaming reader would hold it once. That is
/// what lets every declared length be held against the bytes actually
/// present. bench_e2e's checkpoints are too small to show it in peak
/// RSS; a run checkpoint embedding a large in-memory client population
/// pays it in full.
fn load<T>(
    path: &Path,
    version: u32,
    sections: impl FnOnce(&mut Reader) -> Result<T, CodecError>,
) -> io::Result<T> {
    let sections = |r: &mut Reader| {
        if r.take(MAGIC.len(), "magic")? != MAGIC {
            return Err(CodecError::Malformed("not a kemf checkpoint (bad magic)".into()));
        }
        let found = r.u32()?;
        if found != version {
            let detail = format!("version mismatch: expected {version}, found {found}");
            return Err(CodecError::Malformed(detail));
        }
        sections(r)
    };
    std::fs::read(path)
        .and_then(|bytes| Ok(codec::decode(&bytes, sections)?))
        .map_err(|e| with_path(path, e))
}

// ---- v1: single model state -------------------------------------------

/// Write a model state to `path` crash-consistently (tmp + fsync +
/// rename).
pub fn save_state(state: &ModelState, path: impl AsRef<Path>) -> io::Result<()> {
    let mut w = header(STATE_VERSION);
    w.model(state);
    atomic_write(path, &w.into_bytes())
}

/// Read a model state from `path`; validates magic, version, and
/// self-consistency of the section lengths. Errors name the file and,
/// on a version mismatch, the expected and found versions.
pub fn load_state(path: impl AsRef<Path>) -> io::Result<ModelState> {
    load(path.as_ref(), STATE_VERSION, |r| r.model())
}

// ---- v2: multi-model bundle -------------------------------------------

/// Serialize a bundle's sections to their on-disk byte layout; callers
/// hand the bytes to [`atomic_write`]. Borrowed, so a caller that owns
/// the sections in another shape (an algorithm state, a client blob)
/// encodes them in place.
pub fn encode_bundle(
    meta: &[u8],
    models: &[(String, ModelState)],
    arrays: &[(String, TensorBlob)],
    scalars: &[(String, f64)],
) -> Vec<u8> {
    let mut w = header(BUNDLE_VERSION);
    w.bytes(meta);
    w.named(models, Writer::model);
    w.named(arrays, Writer::tensor);
    w.named(scalars, |w, v| w.f64(*v));
    w.into_bytes()
}

/// Read a multi-model bundle from `path`. Errors name the file and, on a
/// version mismatch, the expected and found versions; trailing garbage
/// after the last section is rejected.
pub fn load_bundle(path: impl AsRef<Path>) -> io::Result<CheckpointBundle> {
    load(path.as_ref(), BUNDLE_VERSION, |r| {
        Ok(CheckpointBundle {
            meta: r.bytes("meta")?.to_vec(),
            models: r.models("models")?,
            arrays: r.tensors("arrays")?,
            scalars: r.named(8, "scalars", Reader::f64)?,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;
    use crate::models::{Arch, ModelSpec};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("kemf_ckpt_test_{name}_{}", std::process::id()));
        p
    }

    fn save_bundle(b: &CheckpointBundle, path: &Path) -> io::Result<()> {
        atomic_write(path, &encode_bundle(&b.meta, &b.models, &b.arrays, &b.scalars))
    }

    #[test]
    fn roundtrip_is_exact() {
        let spec = ModelSpec::scaled(Arch::ResNet20, 3, 16, 10, 7);
        let m = Model::new(spec);
        let state = m.state();
        let path = tmp("roundtrip");
        save_state(&state, &path).unwrap();
        let loaded = load_state(&path).unwrap();
        assert_eq!(loaded, state);
        let mut m2 = Model::new(ModelSpec { seed: 99, ..spec });
        m2.set_state(&loaded);
        assert_eq!(m2.state(), state);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_garbage_file() {
        let path = tmp("garbage");
        std::fs::write(&path, b"definitely not a checkpoint").unwrap();
        assert!(load_state(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejects_truncated_file() {
        let spec = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 1);
        let state = Model::new(spec).state();
        let path = tmp("trunc");
        save_state(&state, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(load_state(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_clean_error() {
        assert!(load_state("/nonexistent/kemf.ckpt").is_err());
    }

    #[test]
    fn load_errors_name_the_file() {
        let path = tmp("named_err");
        std::fs::write(&path, b"garbage garbage garbage").unwrap();
        let err = load_state(&path).unwrap_err().to_string();
        assert!(err.contains(path.to_str().unwrap()), "error lacks path: {err}");
        let err = load_state("/nonexistent/kemf.ckpt").unwrap_err().to_string();
        assert!(err.contains("/nonexistent/kemf.ckpt"), "error lacks path: {err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn version_mismatch_reports_expected_and_found() {
        // A v2 bundle read through the v1 loader (and vice versa) names
        // both versions, so operators can tell stale tooling from
        // corruption.
        let path = tmp("vers");
        save_bundle(&CheckpointBundle::default(), &path).unwrap();
        let err = load_state(&path).unwrap_err().to_string();
        assert!(err.contains("expected 1") && err.contains("found 2"), "bad message: {err}");
        let spec = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 1);
        save_state(&Model::new(spec).state(), &path).unwrap();
        let err = load_bundle(&path).unwrap_err().to_string();
        assert!(err.contains("expected 2") && err.contains("found 1"), "bad message: {err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bundle_roundtrip_is_exact() {
        let spec_a = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 1);
        let spec_b = ModelSpec::scaled(Arch::Cnn2, 1, 8, 10, 2);
        let bundle = CheckpointBundle {
            meta: vec![1, 2, 3, 255, 0, 42],
            models: vec![
                ("global".into(), Model::new(spec_a).state()),
                ("local.0".into(), Model::new(spec_b).state()),
            ],
            arrays: vec![
                ("c".into(), TensorBlob { dims: vec![4], values: vec![0.5, -0.25, f32::MIN_POSITIVE, 3.0] }),
                ("empty".into(), TensorBlob { dims: vec![0, 7], values: vec![] }),
            ],
            scalars: vec![("round".into(), 17.0), ("nan".into(), f64::NAN)],
        };
        let path = tmp("bundle_rt");
        save_bundle(&bundle, &path).unwrap();
        let loaded = load_bundle(&path).unwrap();
        assert_eq!(loaded.meta, bundle.meta);
        assert_eq!(loaded.models, bundle.models);
        assert_eq!(loaded.arrays, bundle.arrays);
        assert_eq!(loaded.scalars.len(), 2);
        assert_eq!(loaded.scalars[0], bundle.scalars[0]);
        // NaN round-trips by bit pattern, not equality.
        assert_eq!(loaded.scalars[1].1.to_bits(), bundle.scalars[1].1.to_bits());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bundle_rejects_truncation_and_trailing_garbage() {
        let bundle = CheckpointBundle {
            meta: b"meta".to_vec(),
            models: vec![("m".into(), Model::new(ModelSpec::scaled(Arch::Cnn2, 1, 8, 10, 3)).state())],
            arrays: vec![("a".into(), TensorBlob { dims: vec![2, 2], values: vec![1.0, 2.0, 3.0, 4.0] })],
            scalars: vec![("s".into(), 1.5)],
        };
        let path = tmp("bundle_bad");
        save_bundle(&bundle, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(load_bundle(&path).is_err(), "truncated bundle must not parse");
        let mut extended = bytes.clone();
        extended.extend_from_slice(b"xx");
        std::fs::write(&path, &extended).unwrap();
        assert!(load_bundle(&path).is_err(), "trailing garbage must not parse");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interrupted_write_leaves_previous_checkpoint_intact() {
        // Crash-consistency: a half-written tmp file (simulating a crash
        // mid-save) must never affect the good checkpoint under the real
        // name.
        let bundle = CheckpointBundle { meta: b"good".to_vec(), ..Default::default() };
        let path = tmp("atomic");
        save_bundle(&bundle, &path).unwrap();
        std::fs::write(tmp_path(&path), b"KEMFCKPT\x02\x00\x00").unwrap();
        let loaded = load_bundle(&path).unwrap();
        assert_eq!(loaded.meta, b"good");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(tmp_path(&path));
    }
}
