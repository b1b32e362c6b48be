//! [`ClientStateStore`]: per-client algorithm state at population scale.
//!
//! The eager design — every algorithm owning a `Vec` sized by
//! `n_clients` (FedKEMF's `Vec<Option<Model>>`, SCAFFOLD's
//! `Vec<Vec<f32>>`) — caps simulated federations at the memory of the
//! full population. The paper's premise is the opposite regime:
//! millions of edge clients of which only a sampled cohort (1% or less)
//! participates per round. This store keeps exactly the cohort
//! resident.
//!
//! Two backends share one API:
//!
//! * **Memory** — the classic layout, a slot per client, seeded eagerly
//!   at `init`. `fetch` *clones* the slot instead of taking it, so a
//!   slot is never left vacant mid-round: the `take().expect("model
//!   present")` panic class is gone structurally, not by adding checks.
//! * **Sharded** — nothing resident. `commit` writes the client's blob
//!   straight through to disk as an atomic kemf-nn checkpoint bundle
//!   (`shard_XXXX/cNNNNNNNNN_rRRRRRR.ckpt`), `fetch` reads it back when
//!   the client is next sampled. Peak memory is O(cohort batch), not
//!   O(population).
//!
//! **Crash consistency without a journal.** Spill files are stamped
//! with the round that wrote them and are never pruned or rewritten in
//! place (writes go through [`kemf_nn::checkpoint::atomic_write`]'s
//! tmp+rename). Combined with the engine's deterministic sampling
//! stream, two stamp rules make resume bit-exact with no cleanup pass:
//!
//! * [`ClientStateStore::fetch`] (start of a client's local update in
//!   round *r*) uses the newest stamp **strictly before** *r*. A stale
//!   stamp-*r* file left by a crashed attempt of round *r* is
//!   post-training state; using it would apply round *r* twice. The
//!   replayed round re-commits and atomically overwrites it instead.
//! * [`ClientStateStore::read`] (evaluation, state export) uses the
//!   newest stamp **at or before** the current round: after round *r*'s
//!   commits land, the genuine stamp-*r* files have already replaced
//!   any stale ones (the replayed cohort equals the crashed cohort, by
//!   sampling determinism).
//!
//! The spill directory is tied to one run identity (config + seed),
//! exactly like a checkpoint directory; point different runs at
//! different directories.

use crate::state::{AlgorithmState, RestoreError, TensorBlob};
use kemf_nn::checkpoint::{atomic_write, encode_bundle, load_bundle};
use kemf_nn::codec::{self, Writer};
use kemf_nn::serialize::ModelState;
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Everything one algorithm keeps per client: named model states and
/// named flat tensors. The per-client analogue of
/// [`crate::state::AlgorithmState`], minus the header.
#[derive(Clone, Debug, Default)]
pub struct ClientBlob {
    /// Named model states (e.g. `"model"` for a local network).
    pub models: Vec<(String, ModelState)>,
    /// Named flat tensors (e.g. `"c"` for a SCAFFOLD control variate).
    pub tensors: Vec<(String, TensorBlob)>,
}

/// Bit-exact equality — the store's round-trip contract. A NaN payload
/// compares equal to itself by bit pattern (IEEE `==` would reject it),
/// and `-0.0` differs from `+0.0`.
impl PartialEq for ClientBlob {
    fn eq(&self, other: &Self) -> bool {
        fn bits_eq(a: &[f32], b: &[f32]) -> bool {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        }
        self.models.len() == other.models.len()
            && self.tensors.len() == other.tensors.len()
            && self.models.iter().zip(&other.models).all(|((an, am), (bn, bm))| {
                an == bn
                    && am.params.lens == bm.params.lens
                    && am.buffers.lens == bm.buffers.lens
                    && bits_eq(&am.params.values, &bm.params.values)
                    && bits_eq(&am.buffers.values, &bm.buffers.values)
            })
            && self.tensors.iter().zip(&other.tensors).all(|((an, at), (bn, bt))| {
                an == bn && at.dims == bt.dims && bits_eq(&at.values, &bt.values)
            })
    }
}

impl ClientBlob {
    /// Empty blob.
    pub fn new() -> Self {
        ClientBlob::default()
    }

    /// Append a named model (builder style).
    pub fn with_model(mut self, name: impl Into<String>, state: ModelState) -> Self {
        self.models.push((name.into(), state));
        self
    }

    /// Append a named tensor (builder style).
    pub fn with_tensor(mut self, name: impl Into<String>, dims: Vec<usize>, values: Vec<f32>) -> Self {
        self.tensors.push((name.into(), TensorBlob { dims, values }));
        self
    }

    /// Tensor entry by name.
    pub fn tensor(&self, name: &str) -> Option<&TensorBlob> {
        self.tensors.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }
}

/// Why a store operation failed. Surfaced through
/// [`crate::engine::EngineError::State`] so a bad client slot fails the
/// run with a diagnosis instead of aborting the process.
#[derive(Debug)]
pub enum StoreError {
    /// A client index at or beyond the population size.
    UnknownClient {
        /// The offending index.
        client: usize,
        /// Population size the store was built for.
        n_clients: usize,
    },
    /// A memory-backend slot was read before the store was seeded.
    Missing {
        /// The empty slot.
        client: usize,
    },
    /// A spill file exists but its contents do not belong to this
    /// client/round (foreign file, truncation the bundle format cannot
    /// see, or a blob missing a required entry).
    Corrupt {
        /// The client concerned.
        client: usize,
        /// What was wrong.
        detail: String,
    },
    /// Reading or writing a spill file failed.
    Io {
        /// The file concerned.
        path: PathBuf,
        /// The underlying error.
        error: io::Error,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownClient { client, n_clients } => {
                write!(f, "client {client} is outside the population of {n_clients}")
            }
            StoreError::Missing { client } => {
                write!(f, "client {client} has no resident state (store was never seeded)")
            }
            StoreError::Corrupt { client, detail } => {
                write!(f, "client {client} spill state is corrupt: {detail}")
            }
            StoreError::Io { path, error } => {
                write!(f, "client-store I/O at {}: {error}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Where a sharded store spills cold client state.
#[derive(Clone, Debug)]
pub struct SpillConfig {
    /// Spill directory (created on demand; tied to one run identity).
    pub dir: PathBuf,
}

impl SpillConfig {
    /// Spill into `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        SpillConfig { dir: dir.into() }
    }
}

/// Clients per `shard_XXXX` subdirectory, so a million-client spill
/// tree never puts more than a few thousand files per directory entry
/// scan.
const CLIENTS_PER_SHARD_DIR: usize = 4096;

/// `AlgorithmState` scalar naming a sharded store's population size.
const POPULATION_MARKER: &str = "sharded_clients";

/// Format version tag inside a spill bundle's meta section.
const BLOB_META_VERSION: u32 = 1;

enum Backend {
    /// One slot per client, all resident.
    Memory(Vec<Option<ClientBlob>>),
    /// Write-through disk spill; `stamps[k]` holds the rounds with a
    /// spill file for client `k`, ascending.
    Sharded { dir: PathBuf, stamps: HashMap<usize, Vec<usize>> },
}

/// Per-client state for one algorithm instance, memory- or disk-backed.
pub struct ClientStateStore {
    n_clients: usize,
    round: usize,
    backend: Backend,
}

impl ClientStateStore {
    /// Fully resident store with one (initially empty) slot per client.
    /// Seed it with [`ClientStateStore::seed_all`] before fetching.
    pub fn in_memory(n_clients: usize) -> Self {
        ClientStateStore {
            n_clients,
            round: 0,
            backend: Backend::Memory(vec![None; n_clients]),
        }
    }

    /// Disk-backed store spilling into `spill.dir`. Existing spill files
    /// (a resumed run) are indexed by a directory scan; nothing is
    /// loaded until a client is fetched.
    pub fn sharded(n_clients: usize, spill: SpillConfig) -> Result<Self, StoreError> {
        let dir = spill.dir;
        std::fs::create_dir_all(&dir)
            .map_err(|error| StoreError::Io { path: dir.clone(), error })?;
        let stamps = scan_spill_dir(&dir)?;
        Ok(ClientStateStore { n_clients, round: 0, backend: Backend::Sharded { dir, stamps } })
    }

    /// Population size this store was built for.
    pub fn n_clients(&self) -> usize {
        self.n_clients
    }

    /// Whether this store spills to disk.
    pub fn is_sharded(&self) -> bool {
        matches!(self.backend, Backend::Sharded { .. })
    }

    /// Enter round `round`: subsequent [`fetch`](Self::fetch) calls take
    /// the newest state committed strictly before it.
    pub fn begin_round(&mut self, round: usize) {
        self.round = round;
    }

    /// Seed every memory slot from `init` (no-op for a sharded store,
    /// which materializes lazily through `fetch`'s `init`).
    pub fn seed_all(&mut self, mut init: impl FnMut(usize) -> ClientBlob) {
        if let Backend::Memory(slots) = &mut self.backend {
            for (k, slot) in slots.iter_mut().enumerate() {
                *slot = Some(init(k));
            }
        }
    }

    /// The state client `k` starts the current round from: the memory
    /// slot (cloned — the slot stays resident), or the newest spill file
    /// stamped strictly before the current round. A client never
    /// committed before materializes through `init`.
    pub fn fetch(
        &mut self,
        k: usize,
        init: impl FnOnce(usize) -> ClientBlob,
    ) -> Result<ClientBlob, StoreError> {
        self.check_client(k)?;
        match &self.backend {
            Backend::Memory(slots) => {
                slots[k].clone().ok_or(StoreError::Missing { client: k })
            }
            Backend::Sharded { dir, stamps } => {
                let newest = newest_stamp(stamps, k, |r| r < self.round);
                match newest {
                    Some(r) => load_blob(dir, k, r),
                    None => Ok(init(k)),
                }
            }
        }
    }

    /// Client `k`'s state as of the current round (evaluation, state
    /// export): the memory slot, or the newest spill file stamped at or
    /// before the current round; `init` covers clients never committed.
    pub fn read(
        &self,
        k: usize,
        init: impl FnOnce(usize) -> ClientBlob,
    ) -> Result<ClientBlob, StoreError> {
        self.check_client(k)?;
        match &self.backend {
            Backend::Memory(slots) => {
                slots[k].clone().ok_or(StoreError::Missing { client: k })
            }
            Backend::Sharded { dir, stamps } => {
                let newest = newest_stamp(stamps, k, |r| r <= self.round);
                match newest {
                    Some(r) => load_blob(dir, k, r),
                    None => Ok(init(k)),
                }
            }
        }
    }

    /// Commit client `k`'s post-round state: overwrite the memory slot,
    /// or write the blob through to disk atomically under the current
    /// round's stamp. Nothing stays resident in the sharded backend.
    pub fn commit(&mut self, k: usize, blob: ClientBlob) -> Result<(), StoreError> {
        self.check_client(k)?;
        match &mut self.backend {
            Backend::Memory(slots) => {
                slots[k] = Some(blob);
                Ok(())
            }
            Backend::Sharded { dir, stamps } => {
                let round = self.round;
                save_blob(dir, k, round, &blob)?;
                let entry = stamps.entry(k).or_default();
                if entry.last() != Some(&round) {
                    match entry.binary_search(&round) {
                        Ok(_) => {}
                        Err(pos) => entry.insert(pos, round),
                    }
                }
                Ok(())
            }
        }
    }

    /// What a checkpoint carries for a sharded store: per-client state
    /// already lives in the spill directory (write-through commits), so
    /// only the population size rides along, for
    /// [`check_population_marker`](Self::check_population_marker) to
    /// validate on resume. A memory store writes nothing here — its owner
    /// embeds the per-client state itself.
    pub fn push_population_marker(&self, state: &mut AlgorithmState) {
        if self.is_sharded() {
            state.scalars.push((POPULATION_MARKER.into(), self.n_clients as f64));
        }
    }

    /// Refuse a checkpoint whose sharded population differs from this
    /// store's (a spill directory from another world). No-op for a
    /// memory store.
    pub fn check_population_marker(&self, state: &AlgorithmState) -> Result<(), RestoreError> {
        if !self.is_sharded() {
            return Ok(());
        }
        let recorded = state.scalar(POPULATION_MARKER)?;
        if recorded != self.n_clients as f64 {
            return Err(RestoreError::ShapeMismatch {
                name: POPULATION_MARKER.into(),
                detail: format!(
                    "checkpoint covers {recorded} clients, store has {}",
                    self.n_clients
                ),
            });
        }
        Ok(())
    }

    fn check_client(&self, k: usize) -> Result<(), StoreError> {
        if k >= self.n_clients {
            return Err(StoreError::UnknownClient { client: k, n_clients: self.n_clients });
        }
        Ok(())
    }
}

/// Newest committed round for client `k` passing `admit`.
fn newest_stamp(
    stamps: &HashMap<usize, Vec<usize>>,
    k: usize,
    admit: impl Fn(usize) -> bool,
) -> Option<usize> {
    stamps.get(&k)?.iter().rev().copied().find(|&r| admit(r))
}

fn shard_dir(dir: &Path, k: usize) -> PathBuf {
    dir.join(format!("shard_{:04}", k / CLIENTS_PER_SHARD_DIR))
}

fn spill_file(dir: &Path, k: usize, round: usize) -> PathBuf {
    shard_dir(dir, k).join(format!("c{k:09}_r{round:06}.ckpt"))
}

/// Parse `cNNNNNNNNN_rRRRRRR.ckpt` back into `(client, round)`.
fn parse_spill_name(name: &str) -> Option<(usize, usize)> {
    let stem = name.strip_suffix(".ckpt")?;
    let rest = stem.strip_prefix('c')?;
    let (client, round) = rest.split_once("_r")?;
    Some((client.parse().ok()?, round.parse().ok()?))
}

/// Index every `shard_*/c*_r*.ckpt` under `dir` (stray `.tmp` leftovers
/// and foreign files are ignored, like the checkpoint directory scan).
fn scan_spill_dir(dir: &Path) -> Result<HashMap<usize, Vec<usize>>, StoreError> {
    let mut stamps: HashMap<usize, Vec<usize>> = HashMap::new();
    let entries = std::fs::read_dir(dir)
        .map_err(|error| StoreError::Io { path: dir.to_path_buf(), error })?;
    for entry in entries {
        let entry = entry.map_err(|error| StoreError::Io { path: dir.to_path_buf(), error })?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        if !path.is_dir() || !name.starts_with("shard_") {
            continue;
        }
        let files = std::fs::read_dir(&path)
            .map_err(|error| StoreError::Io { path: path.clone(), error })?;
        for file in files {
            let file = file.map_err(|error| StoreError::Io { path: path.clone(), error })?;
            let fname = file.file_name();
            let Some(fname) = fname.to_str() else { continue };
            if let Some((client, round)) = parse_spill_name(fname) {
                stamps.entry(client).or_default().push(round);
            }
        }
    }
    for rounds in stamps.values_mut() {
        rounds.sort_unstable();
        rounds.dedup();
    }
    Ok(stamps)
}

fn save_blob(dir: &Path, k: usize, round: usize, blob: &ClientBlob) -> Result<(), StoreError> {
    let shard = shard_dir(dir, k);
    std::fs::create_dir_all(&shard)
        .map_err(|error| StoreError::Io { path: shard.clone(), error })?;
    let mut meta = Writer::with_capacity(20);
    meta.u32(BLOB_META_VERSION);
    meta.usize(k);
    meta.usize(round);
    let path = spill_file(dir, k, round);
    atomic_write(&path, &encode_bundle(&meta.into_bytes(), &blob.models, &blob.tensors, &[]))
        .map_err(|error| StoreError::Io { path, error })
}

fn load_blob(dir: &Path, k: usize, round: usize) -> Result<ClientBlob, StoreError> {
    let path = spill_file(dir, k, round);
    let bundle = load_bundle(&path).map_err(|error| StoreError::Io { path: path.clone(), error })?;
    let corrupt = |detail: String| StoreError::Corrupt {
        client: k,
        detail: format!("{}: {detail}", path.display()),
    };
    let (version, client, stamp) =
        codec::decode(&bundle.meta, |r| Ok((r.u32()?, r.usize()?, r.usize()?)))
            .map_err(|e| corrupt(format!("unreadable blob meta: {e}")))?;
    if version != BLOB_META_VERSION {
        return Err(corrupt(format!("blob version {version}, expected {BLOB_META_VERSION}")));
    }
    if client != k || stamp != round {
        return Err(corrupt(format!(
            "names client {k} round {round} but holds client {client} round {stamp}"
        )));
    }
    Ok(ClientBlob { models: bundle.models, tensors: bundle.arrays })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kemf_nn::model::Model;
    use kemf_nn::models::{Arch, ModelSpec};

    fn tmpdir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("kemf_clientstore_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn blob(tag: f32) -> ClientBlob {
        ClientBlob::new()
            .with_model("model", Model::new(ModelSpec::scaled(Arch::Cnn2, 1, 8, 10, 3)).state())
            .with_tensor("c", vec![3], vec![tag, f32::NAN, -0.0])
    }

    #[test]
    fn memory_fetch_clones_and_commit_overwrites() {
        let mut store = ClientStateStore::in_memory(3);
        assert!(matches!(
            store.fetch(0, |_| blob(0.0)),
            Err(StoreError::Missing { client: 0 })
        ));
        store.seed_all(|k| blob(k as f32));
        // Fetch twice: the slot is cloned, never vacated.
        let a = store.fetch(1, |_| unreachable!()).unwrap();
        let b = store.fetch(1, |_| unreachable!()).unwrap();
        assert_eq!(a, b);
        store.commit(1, blob(9.0)).unwrap();
        let c = store.read(1, |_| unreachable!()).unwrap();
        assert_eq!(c.tensor("c").unwrap().values[0], 9.0);
        assert!(matches!(
            store.fetch(7, |_| blob(0.0)),
            Err(StoreError::UnknownClient { client: 7, n_clients: 3 })
        ));
    }

    #[test]
    fn sharded_round_trips_bit_exactly_across_reopen() {
        let dir = tmpdir("rt");
        let mut store = ClientStateStore::sharded(10, SpillConfig::new(&dir)).unwrap();
        assert!(store.is_sharded());
        store.begin_round(0);
        let original = blob(1.5);
        store.commit(4, original.clone()).unwrap();

        // Same round: `read` sees the commit, `fetch` must not (a stale
        // same-round file is post-training state on a crash replay).
        let seen = store.read(4, |_| unreachable!()).unwrap();
        assert_eq!(seen.models, original.models);
        assert_eq!(
            seen.tensor("c").unwrap().values[1].to_bits(),
            f32::NAN.to_bits(),
            "NaN survives by bit pattern"
        );
        let mut fresh = false;
        let _ = store.fetch(4, |_| { fresh = true; blob(0.0) }).unwrap();
        assert!(fresh, "fetch in the committing round re-initializes");

        // Next round: fetch picks the committed state.
        store.begin_round(1);
        let fetched = store.fetch(4, |_| unreachable!()).unwrap();
        assert_eq!(fetched, seen);

        // Reopen (a resumed process): the scan re-indexes the files.
        let mut reopened = ClientStateStore::sharded(10, SpillConfig::new(&dir)).unwrap();
        reopened.begin_round(1);
        assert_eq!(reopened.fetch(4, |_| unreachable!()).unwrap(), seen);
        // A never-committed client still materializes through init.
        let init = reopened.fetch(5, |k| blob(k as f32)).unwrap();
        assert_eq!(init.tensor("c").unwrap().values[0], 5.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_commit_overwrites_stale_same_round_file() {
        let dir = tmpdir("stale");
        let mut store = ClientStateStore::sharded(4, SpillConfig::new(&dir)).unwrap();
        // A "crashed" attempt of round 2 left post-training state...
        store.begin_round(2);
        store.commit(1, blob(666.0)).unwrap();
        // ...the replay of round 2 re-commits and the genuine state wins.
        let mut replay = ClientStateStore::sharded(4, SpillConfig::new(&dir)).unwrap();
        replay.begin_round(2);
        let start = replay.fetch(1, |_| blob(0.0)).unwrap();
        assert_eq!(start.tensor("c").unwrap().values[0], 0.0, "stale stamp ignored");
        replay.commit(1, blob(7.0)).unwrap();
        assert_eq!(replay.read(1, |_| unreachable!()).unwrap().tensor("c").unwrap().values[0], 7.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_spill_file_is_a_typed_error() {
        let dir = tmpdir("corrupt");
        let mut store = ClientStateStore::sharded(4, SpillConfig::new(&dir)).unwrap();
        store.begin_round(0);
        store.commit(2, blob(1.0)).unwrap();
        // Garbage in place of the spill file: fetch must not panic.
        std::fs::write(spill_file(&dir, 2, 0), b"not a bundle").unwrap();
        let mut reopened = ClientStateStore::sharded(4, SpillConfig::new(&dir)).unwrap();
        reopened.begin_round(1);
        assert!(matches!(
            reopened.fetch(2, |_| unreachable!()),
            Err(StoreError::Io { .. })
        ));
        // A bundle whose meta names another client is caught too.
        let mut other = ClientStateStore::sharded(4, SpillConfig::new(&dir)).unwrap();
        other.begin_round(0);
        other.commit(3, blob(2.0)).unwrap();
        std::fs::copy(spill_file(&dir, 3, 0), spill_file(&dir, 2, 0)).unwrap();
        let mut reopened = ClientStateStore::sharded(4, SpillConfig::new(&dir)).unwrap();
        reopened.begin_round(1);
        assert!(matches!(
            reopened.fetch(2, |_| unreachable!()),
            Err(StoreError::Corrupt { client: 2, .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_names_parse_and_shard() {
        assert_eq!(parse_spill_name("c000000042_r000007.ckpt"), Some((42, 7)));
        assert_eq!(parse_spill_name("c1_r2.ckpt"), Some((1, 2)));
        assert_eq!(parse_spill_name("round_00004.ckpt"), None);
        assert_eq!(parse_spill_name("c1_r2.ckpt.tmp"), None);
        let dir = PathBuf::from("/s");
        assert_eq!(spill_file(&dir, 0, 0), PathBuf::from("/s/shard_0000/c000000000_r000000.ckpt"));
        assert_eq!(
            spill_file(&dir, 999_999, 12),
            PathBuf::from(format!("/s/shard_{:04}/c000999999_r000012.ckpt", 999_999 / 4096))
        );
    }
}
