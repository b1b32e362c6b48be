//! [`AlgorithmState`]: the serializable state bundle every
//! [`crate::engine::FedAlgorithm`] can export and re-absorb.
//!
//! The bundle is deliberately dumb — named models, named
//! dimension-tagged f32 arrays, named f64 scalars, plus an algorithm
//! name and a state-format version — so that:
//!
//! * the engine can checkpoint *any* algorithm without knowing its
//!   internals (FedKEMF's per-client model zoo serializes next to
//!   SCAFFOLD's control variates with the same code path);
//! * the on-disk mapping is one-to-one with the kemf-nn v2 checkpoint
//!   bundle (`models` ↔ models, `tensors` ↔ arrays, `scalars` ↔
//!   scalars), with no re-encoding losses;
//! * `restore(state())` round-trips exactly: restore pre-checks every
//!   layout against the live algorithm and fails with a typed
//!   [`RestoreError`] instead of panicking deep inside `apply_to`.

use kemf_nn::serialize::ModelState;
pub use kemf_nn::serialize::TensorBlob;
use std::fmt;

/// Everything one algorithm owns, as data. Entry order is preserved, so
/// serialization is deterministic.
#[derive(Clone, Debug, PartialEq)]
pub struct AlgorithmState {
    /// The owning algorithm's display name ([`crate::engine::FedAlgorithm::name`]);
    /// restore refuses a bundle from a different algorithm.
    pub algorithm: String,
    /// Algorithm-specific state-format version; bumped when an
    /// algorithm's entry set changes incompatibly.
    pub version: u32,
    /// Named model states (`"global"`, `"knowledge"`, `"local.3"`, ...).
    pub models: Vec<(String, ModelState)>,
    /// Named flat tensors.
    pub tensors: Vec<(String, TensorBlob)>,
    /// Named scalars.
    pub scalars: Vec<(String, f64)>,
    /// The round a resumed run restores into, set by the engine from its
    /// checkpoint's completed rounds; never written (an export leaves 0).
    pub round: usize,
}

/// Why a state bundle cannot be restored into a live algorithm.
#[derive(Clone, Debug, PartialEq)]
pub enum RestoreError {
    /// The bundle belongs to a different algorithm.
    AlgorithmMismatch {
        /// The live algorithm's name.
        expected: String,
        /// The bundle's algorithm name.
        found: String,
    },
    /// The bundle's state-format version is not the one this build
    /// understands.
    UnsupportedVersion {
        /// The algorithm concerned.
        algorithm: String,
        /// Version this build writes and reads.
        expected: u32,
        /// Version found in the bundle.
        found: u32,
    },
    /// A required entry is absent.
    MissingEntry {
        /// Name of the missing model/tensor/scalar.
        name: String,
    },
    /// An entry exists but its shape does not match the live algorithm
    /// (e.g. a model checkpointed under a different architecture).
    ShapeMismatch {
        /// Offending entry.
        name: String,
        /// What differed.
        detail: String,
    },
    /// Writing restored per-client state back through the client-state
    /// store failed (e.g. a spill-directory I/O error mid-restore).
    Store {
        /// The underlying store failure.
        detail: String,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::AlgorithmMismatch { expected, found } => {
                write!(f, "state belongs to {found}, not {expected}")
            }
            RestoreError::UnsupportedVersion { algorithm, expected, found } => write!(
                f,
                "{algorithm} state version mismatch: expected {expected}, found {found}"
            ),
            RestoreError::MissingEntry { name } => write!(f, "state entry `{name}` is missing"),
            RestoreError::ShapeMismatch { name, detail } => {
                write!(f, "state entry `{name}` has a mismatched shape: {detail}")
            }
            RestoreError::Store { detail } => {
                write!(f, "restoring client state through the store failed: {detail}")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

impl AlgorithmState {
    /// Empty bundle for `algorithm` at state-format `version`.
    pub fn new(algorithm: impl Into<String>, version: u32) -> Self {
        AlgorithmState {
            algorithm: algorithm.into(),
            version,
            models: Vec::new(),
            tensors: Vec::new(),
            scalars: Vec::new(),
            round: 0,
        }
    }

    /// Append a named model (builder style).
    pub fn with_model(mut self, name: impl Into<String>, state: ModelState) -> Self {
        self.push_model(name, state);
        self
    }

    /// Append a named tensor (builder style).
    pub fn with_tensor(mut self, name: impl Into<String>, dims: Vec<usize>, values: Vec<f32>) -> Self {
        self.push_tensor(name, dims, values);
        self
    }

    /// Append a named scalar (builder style).
    pub fn with_scalar(mut self, name: impl Into<String>, value: f64) -> Self {
        self.scalars.push((name.into(), value));
        self
    }

    /// Append a named model.
    pub fn push_model(&mut self, name: impl Into<String>, state: ModelState) {
        self.models.push((name.into(), state));
    }

    /// Append a named tensor; `values.len()` must equal the dims product.
    pub fn push_tensor(&mut self, name: impl Into<String>, dims: Vec<usize>, values: Vec<f32>) {
        debug_assert_eq!(
            dims.iter().product::<usize>(),
            values.len(),
            "tensor values must fill dims"
        );
        self.tensors.push((name.into(), TensorBlob { dims, values }));
    }

    /// Refuse bundles from another algorithm or state-format version.
    pub fn expect_header(&self, algorithm: &str, version: u32) -> Result<(), RestoreError> {
        if self.algorithm != algorithm {
            return Err(RestoreError::AlgorithmMismatch {
                expected: algorithm.to_string(),
                found: self.algorithm.clone(),
            });
        }
        if self.version != version {
            return Err(RestoreError::UnsupportedVersion {
                algorithm: algorithm.to_string(),
                expected: version,
                found: self.version,
            });
        }
        Ok(())
    }

    /// Required model entry by name.
    pub fn model(&self, name: &str) -> Result<&ModelState, RestoreError> {
        self.models
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
            .ok_or_else(|| RestoreError::MissingEntry { name: name.to_string() })
    }

    /// Required tensor entry by name.
    pub fn tensor(&self, name: &str) -> Result<&TensorBlob, RestoreError> {
        self.opt_tensor(name)
            .ok_or_else(|| RestoreError::MissingEntry { name: name.to_string() })
    }

    /// Optional tensor entry by name (presence can encode an `Option`
    /// field, e.g. FedMD's not-yet-built consensus).
    pub fn opt_tensor(&self, name: &str) -> Option<&TensorBlob> {
        self.tensors.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    /// Required scalar entry by name.
    pub fn scalar(&self, name: &str) -> Result<f64, RestoreError> {
        self.scalars
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| RestoreError::MissingEntry { name: name.to_string() })
    }
}

/// Pre-check that a checkpointed model matches the live one's layer
/// layout, so restore fails with a typed error instead of a panic deep
/// inside `ModelState::apply_to`.
pub fn check_model_layout(
    name: &str,
    incoming: &ModelState,
    live: &ModelState,
) -> Result<(), RestoreError> {
    if incoming.params.lens != live.params.lens {
        return Err(RestoreError::ShapeMismatch {
            name: name.to_string(),
            detail: format!(
                "param layout {:?} != live {:?}",
                incoming.params.lens, live.params.lens
            ),
        });
    }
    if incoming.buffers.lens != live.buffers.lens {
        return Err(RestoreError::ShapeMismatch {
            name: name.to_string(),
            detail: format!(
                "buffer layout {:?} != live {:?}",
                incoming.buffers.lens, live.buffers.lens
            ),
        });
    }
    Ok(())
}

/// Pre-check a tensor entry against the dimensions the live algorithm
/// requires.
pub fn check_tensor_dims(name: &str, blob: &TensorBlob, dims: &[usize]) -> Result<(), RestoreError> {
    if blob.dims != dims {
        return Err(RestoreError::ShapeMismatch {
            name: name.to_string(),
            detail: format!("dims {:?} != live {:?}", blob.dims, dims),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kemf_nn::model::Model;
    use kemf_nn::models::{Arch, ModelSpec};

    #[test]
    fn accessors_find_entries_and_name_missing_ones() {
        let m = Model::new(ModelSpec::scaled(Arch::Cnn2, 1, 8, 10, 3)).state();
        let s = AlgorithmState::new("X", 1)
            .with_model("global", m.clone())
            .with_tensor("c", vec![2, 2], vec![1.0, 2.0, 3.0, 4.0])
            .with_scalar("t", 2.5);
        assert_eq!(s.model("global").unwrap(), &m);
        assert_eq!(s.tensor("c").unwrap().dims, vec![2, 2]);
        assert_eq!(s.scalar("t").unwrap(), 2.5);
        assert!(s.opt_tensor("absent").is_none());
        assert_eq!(
            s.model("nope").unwrap_err(),
            RestoreError::MissingEntry { name: "nope".into() }
        );
    }

    #[test]
    fn header_check_rejects_wrong_algorithm_and_version() {
        let s = AlgorithmState::new("FedAvg", 1);
        s.expect_header("FedAvg", 1).unwrap();
        assert!(matches!(
            s.expect_header("FedProx", 1),
            Err(RestoreError::AlgorithmMismatch { .. })
        ));
        assert!(matches!(
            s.expect_header("FedAvg", 2),
            Err(RestoreError::UnsupportedVersion { expected: 2, found: 1, .. })
        ));
    }

    #[test]
    fn layout_check_catches_architecture_drift() {
        let a = Model::new(ModelSpec::scaled(Arch::Cnn2, 1, 8, 10, 3)).state();
        let b = Model::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 3)).state();
        check_model_layout("global", &a, &a).unwrap();
        assert!(matches!(
            check_model_layout("global", &a, &b),
            Err(RestoreError::ShapeMismatch { .. })
        ));
        let blob = TensorBlob { dims: vec![3], values: vec![0.0; 3] };
        check_tensor_dims("c", &blob, &[3]).unwrap();
        assert!(check_tensor_dims("c", &blob, &[4]).is_err());
    }
}
