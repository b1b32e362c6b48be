//! Binary checkpointing: a tiny self-describing format (magic, version,
//! section lengths, little-endian payload) so long federated runs can
//! persist and resume without a serialization framework.
//!
//! Two formats share the `KEMFCKPT` magic:
//!
//! * **v1** ([`save_state`]/[`load_state`]) — a single [`ModelState`],
//!   the original global-model checkpoint;
//! * **v2** ([`save_bundle`]/[`load_bundle`]) — a [`CheckpointBundle`]:
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

use crate::serialize::{ModelState, Weights};
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"KEMFCKPT";
/// Format version of a single-model checkpoint ([`save_state`]).
pub const STATE_VERSION: u32 = 1;
/// Format version of a multi-model bundle ([`save_bundle`]).
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
    pub arrays: Vec<(String, Vec<usize>, Vec<f32>)>,
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

// ---- primitive encode/decode ------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_weights(out: &mut Vec<u8>, w: &Weights) {
    put_u64(out, w.lens.len() as u64);
    for &l in &w.lens {
        put_u64(out, l as u64);
    }
    put_u64(out, w.values.len() as u64);
    for &v in &w.values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// A checkpoint file being decoded, together with the bytes not yet
/// consumed (file size from its metadata). Every length and count the
/// file declares is checked against that remainder *before* anything is
/// allocated for it, so a corrupt header fails as `InvalidData` — and the
/// caller can fall back to an older checkpoint — instead of aborting the
/// process inside the allocator.
struct Source {
    inp: io::BufReader<File>,
    left: u64,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl Source {
    fn open(path: &Path) -> io::Result<Self> {
        let file = File::open(path)?;
        let left = file.metadata()?.len();
        Ok(Source { inp: io::BufReader::new(file), left })
    }

    /// Account for `n` bytes about to be read.
    fn consume(&mut self, n: u64) -> io::Result<()> {
        self.left = self.left.checked_sub(n).ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "section runs past the end of the file")
        })?;
        Ok(())
    }

    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        self.consume(N as u64)?;
        let mut b = [0u8; N];
        self.inp.read_exact(&mut b)?;
        Ok(b)
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A declared count of items that each occupy at least `min_bytes`
    /// of the file: refused unless that many can still follow.
    fn count(&mut self, min_bytes: u64, what: &str) -> io::Result<usize> {
        let n = self.u64()?;
        match n.checked_mul(min_bytes) {
            Some(need) if need <= self.left => Ok(n as usize),
            _ => Err(invalid(format!(
                "implausible {what} count {n}: only {} bytes remain",
                self.left
            ))),
        }
    }

    fn bytes(&mut self, what: &str) -> io::Result<Vec<u8>> {
        let n = self.count(1, what)?;
        self.consume(n as u64)?;
        let mut buf = vec![0u8; n];
        self.inp.read_exact(&mut buf)?;
        Ok(buf)
    }

    fn string(&mut self) -> io::Result<String> {
        String::from_utf8(self.bytes("string")?)
            .map_err(|_| invalid("non-UTF-8 section name".into()))
    }

    fn u64s(&mut self, what: &str) -> io::Result<Vec<usize>> {
        let n = self.count(8, what)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u64()? as usize);
        }
        Ok(out)
    }

    /// A value section whose declared count must equal `expected` (the
    /// checked sum or product of the preceding lens/dims; `None` if that
    /// overflowed).
    fn f32s(&mut self, what: &str, expected: Option<usize>) -> io::Result<Vec<f32>> {
        let n = self.count(4, what)?;
        if expected != Some(n) {
            return Err(invalid(format!("{what}: {n} values do not match the declared shape")));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f32::from_le_bytes(self.array()?));
        }
        Ok(out)
    }

    fn weights(&mut self) -> io::Result<Weights> {
        let lens = self.u64s("lens")?;
        let expected = lens.iter().try_fold(0usize, |acc, &l| acc.checked_add(l));
        let values = self.f32s("values", expected)?;
        Ok(Weights { values, lens })
    }

    fn model(&mut self) -> io::Result<ModelState> {
        Ok(ModelState { params: self.weights()?, buffers: self.weights()? })
    }

    fn header(&mut self, expected_version: u32) -> io::Result<()> {
        if &self.array::<8>()? != MAGIC {
            return Err(invalid("not a kemf checkpoint (bad magic)".into()));
        }
        let version = u32::from_le_bytes(self.array()?);
        if version != expected_version {
            return Err(invalid(format!(
                "version mismatch: expected {expected_version}, found {version}"
            )));
        }
        Ok(())
    }
}

// ---- v1: single model state -------------------------------------------

/// Write a model state to `path` crash-consistently (tmp + fsync +
/// rename).
pub fn save_state(state: &ModelState, path: impl AsRef<Path>) -> io::Result<()> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&STATE_VERSION.to_le_bytes());
    put_weights(&mut out, &state.params);
    put_weights(&mut out, &state.buffers);
    atomic_write(path, &out)
}

/// Read a model state from `path`; validates magic, version, and
/// self-consistency of the section lengths. Errors name the file and,
/// on a version mismatch, the expected and found versions.
pub fn load_state(path: impl AsRef<Path>) -> io::Result<ModelState> {
    let path = path.as_ref();
    let decode = || {
        let mut src = Source::open(path)?;
        src.header(STATE_VERSION)?;
        src.model()
    };
    decode().map_err(|e| with_path(path, e))
}

// ---- v2: multi-model bundle -------------------------------------------

/// Serialize a bundle to its on-disk byte layout (without writing).
pub fn encode_bundle(bundle: &CheckpointBundle) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&BUNDLE_VERSION.to_le_bytes());
    put_u64(&mut out, bundle.meta.len() as u64);
    out.extend_from_slice(&bundle.meta);
    put_u64(&mut out, bundle.models.len() as u64);
    for (name, state) in &bundle.models {
        put_str(&mut out, name);
        put_weights(&mut out, &state.params);
        put_weights(&mut out, &state.buffers);
    }
    put_u64(&mut out, bundle.arrays.len() as u64);
    for (name, dims, values) in &bundle.arrays {
        put_str(&mut out, name);
        put_u64(&mut out, dims.len() as u64);
        for &d in dims {
            put_u64(&mut out, d as u64);
        }
        put_u64(&mut out, values.len() as u64);
        for &v in values {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    put_u64(&mut out, bundle.scalars.len() as u64);
    for (name, v) in &bundle.scalars {
        put_str(&mut out, name);
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Write a multi-model bundle to `path` crash-consistently.
pub fn save_bundle(bundle: &CheckpointBundle, path: impl AsRef<Path>) -> io::Result<()> {
    atomic_write(path, &encode_bundle(bundle))
}

/// Read a multi-model bundle from `path`. Errors name the file and, on a
/// version mismatch, the expected and found versions; trailing garbage
/// after the last section is rejected.
pub fn load_bundle(path: impl AsRef<Path>) -> io::Result<CheckpointBundle> {
    let path = path.as_ref();
    // Minimum encoded sizes: a model is a name length plus two weights
    // (lens count + values count each), an array a name length plus dims
    // and values counts, a scalar a name length plus its f64.
    let decode = || {
        let mut src = Source::open(path)?;
        src.header(BUNDLE_VERSION)?;
        let meta = src.bytes("meta")?;

        let n_models = src.count(40, "models")?;
        let mut models = Vec::with_capacity(n_models);
        for _ in 0..n_models {
            models.push((src.string()?, src.model()?));
        }

        let n_arrays = src.count(24, "arrays")?;
        let mut arrays = Vec::with_capacity(n_arrays);
        for _ in 0..n_arrays {
            let name = src.string()?;
            let dims = src.u64s("dims")?;
            let expected = dims.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d));
            let values = src.f32s(&format!("array `{name}`"), expected)?;
            arrays.push((name, dims, values));
        }

        let n_scalars = src.count(16, "scalars")?;
        let mut scalars = Vec::with_capacity(n_scalars);
        for _ in 0..n_scalars {
            scalars.push((src.string()?, f64::from_le_bytes(src.array()?)));
        }

        if src.left != 0 {
            return Err(invalid("trailing bytes after last section".into()));
        }
        Ok(CheckpointBundle { meta, models, arrays, scalars })
    };
    decode().map_err(|e| with_path(path, e))
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
                ("c".into(), vec![4], vec![0.5, -0.25, f32::MIN_POSITIVE, 3.0]),
                ("empty".into(), vec![0, 7], vec![]),
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
            arrays: vec![("a".into(), vec![2, 2], vec![1.0, 2.0, 3.0, 4.0])],
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
