//! The federated round loop: client sampling, fault-aware per-round
//! lifecycle execution, evaluation, history recording, and
//! crash-consistent checkpoint/resume — generic over [`FedAlgorithm`].
//!
//! The single entry point is [`Engine::run`] with a [`RunOptions`]
//! bundle (faults, observability sink, checkpoint policy, resume
//! source, seed override).
//!
//! **Resume is bit-exact.** All engine randomness flows through two
//! seeded streams (client sampling and fault injection). A checkpoint
//! stores the completed rounds' records and the algorithm's full
//! [`AlgorithmState`]; on resume the engine *replays* both RNG streams
//! over the completed rounds — re-deriving each round's sample and
//! lifecycle plan — and verifies one probe draw per stream against the
//! checkpoint before continuing. A resumed run's final [`History`]
//! therefore serializes byte-identically to an uninterrupted run at the
//! same seed (enforced by `tests/resume.rs` and the CI smoke).

use crate::checkpoint::{self, CheckpointError, CheckpointPolicy, LoadError, RunCheckpoint};
use crate::client_store::StoreError;
use crate::comm::{CommTracker, CostError};
use crate::config::ConfigError;
use crate::context::FlContext;
use crate::lifecycle::{plan_round, ClientPlan, FaultConfig, RoundComm, RoundPlan};
use crate::metrics::{History, RoundRecord};
use crate::scheduler::{AsyncScheduler, PreparedUpdate, RoundMode};
use crate::state::{AlgorithmState, RestoreError};
use crate::transport::{SocketConfig, SocketTransport, TransportError, TransportMode, TransportStats};
use crate::trace::{Counters, EventSink, NoopSink, Phase, RoundScope, TraceSink};
use kemf_tensor::rng::{child_seed, seeded_rng};
use rand::rngs::StdRng;
use rand::RngCore;
use std::fmt;
use std::path::PathBuf;
use std::time::Instant;

/// What one communication round reports back to the engine. Byte
/// accounting no longer lives here: the engine derives it from the
/// round's lifecycle plan and [`FedAlgorithm::client_plans`], so
/// algorithms cannot under-count clients that failed mid-round.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundOutcome {
    /// Mean local training loss across reporting clients.
    pub train_loss: f32,
}

/// A federated-learning algorithm the engine can drive.
pub trait FedAlgorithm: Send {
    /// Display name used in histories and tables.
    fn name(&self) -> String;

    /// One-time setup before round 0 (allocate per-client state, ...).
    /// Inconsistent setup (e.g. a per-client spec list whose length is
    /// not the client count) is a typed error the engine surfaces
    /// instead of aborting the process.
    fn init(&mut self, ctx: &FlContext) -> Result<(), ConfigError> {
        let _ = ctx;
        Ok(())
    }

    /// One [`ClientPlan`] per entry of `sampled`, in order: what view of
    /// the server model each sampled client receives this round
    /// (full weights, a rolling sub-model window, or logits) and the
    /// bytes it moves per direction. The engine bills downlink for the
    /// broadcast set and uplink for the completed-upload set *per
    /// client*, so per-phase failures and heterogeneous payloads are
    /// both charged honestly. Algorithms with one uniform payload build
    /// their plans with [`ClientPlan::uniform`], which reproduces the
    /// pre-redesign `payload × n` accounting bit for bit.
    fn client_plans(&self, round: usize, sampled: &[usize]) -> Vec<ClientPlan>;

    /// One synchronous communication round over the client indices whose
    /// full lifecycle (download → train → upload) succeeded: the paper's
    /// Algorithm 1 ([`train_cohort`](Self::train_cohort)) followed by
    /// Algorithm 2 ([`fuse`](Self::fuse)) over every update at weight
    /// `1.0`. Algorithms implement that pair and inherit this
    /// composition; only free-standing probes override `round` itself.
    ///
    /// A round that cannot complete — a corrupt client-state slot, a
    /// failed spill read — returns a typed [`EngineError`] (usually
    /// [`EngineError::State`]) and the engine surfaces it to the
    /// caller; it must not panic the process.
    fn round(
        &mut self,
        round: usize,
        sampled: &[usize],
        ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<RoundOutcome, EngineError> {
        if sampled.is_empty() {
            // Nothing reported: no loss exists and no state may move.
            return Ok(RoundOutcome { train_loss: f32::NAN });
        }
        let updates = self.train_cohort(round, sampled, ctx, scope)?;
        check_update_alignment(&self.name(), &updates, sampled)?;
        self.fuse(round, updates.into_iter().map(|u| (u, 1.0)).collect(), ctx, scope)
    }

    /// Algorithm 1: train the sampled cohort against the *current*
    /// global model without fusing — one [`PreparedUpdate`] per entry of
    /// `sampled`, in order. Implementations hand their per-client body
    /// to [`crate::cohort::train_cohort`], which owns the chunking, the
    /// fan-out and the [`Phase::LocalUpdate`] span recorded on `scope`.
    /// A synchronous round fuses the updates at once; the buffered-
    /// asynchronous scheduler banks them and fuses them — possibly
    /// cycles later, staleness-weighted. Either way no model or stored
    /// client state may change here: per-client store commits ride in
    /// [`PreparedUpdate::commit`] and are applied by [`fuse`](Self::fuse)
    /// only for updates that actually fold in. The default rejects the
    /// call with a typed error, for probes that override
    /// [`round`](Self::round) alone.
    fn train_cohort(
        &mut self,
        wave: usize,
        sampled: &[usize],
        ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<Vec<PreparedUpdate>, EngineError> {
        let _ = (wave, sampled, ctx, scope);
        Err(EngineError::Config(ConfigError::AlgorithmSetup {
            algorithm: self.name(),
            reason: "train_cohort/fuse are not implemented: this algorithm overrides `round` \
                     only, so buffered-asynchronous rounds are not supported"
                .into(),
        }))
    }

    /// Algorithm 2: fuse a set of prepared updates into the global
    /// model, each at its staleness weight (`1.0` means fresh), with the
    /// server-side aggregation/distillation wrapped in [`Phase::Fusion`].
    /// Consumes the updates — deferred store commits of folded updates
    /// are applied here, and an empty set reports NaN loss without
    /// touching state.
    fn fuse(
        &mut self,
        round: usize,
        updates: Vec<(PreparedUpdate, f32)>,
        ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<RoundOutcome, EngineError> {
        let _ = (round, updates, ctx, scope);
        Err(EngineError::Config(ConfigError::AlgorithmSetup {
            algorithm: self.name(),
            reason: "train_cohort/fuse are not implemented: this algorithm overrides `round` \
                     only, so buffered-asynchronous rounds are not supported"
                .into(),
        }))
    }

    /// Evaluate the current global model on the held-out test set.
    fn evaluate(&mut self, ctx: &FlContext) -> f32;

    /// Export *everything* the algorithm owns — every model, per-client
    /// tensor, and scalar — as a versioned [`AlgorithmState`] bundle.
    /// The contract: feeding the bundle back through [`restore`](Self::restore)
    /// on a freshly initialized instance must continue the run as if it
    /// never stopped (any state forgotten here shows up as a history
    /// diff in the resume tests). A store-backed algorithm whose export
    /// hits an unreadable or corrupt client slot returns a typed error
    /// instead of panicking. The default is the empty bundle, for
    /// stateless probes.
    fn state(&self) -> Result<AlgorithmState, EngineError> {
        Ok(AlgorithmState::new(self.name(), 0))
    }

    /// Re-absorb a bundle produced by [`state`](Self::state) into an
    /// initialized instance. Implementations must validate the header
    /// and every entry's shape, returning a typed [`RestoreError`]
    /// rather than panicking.
    fn restore(&mut self, state: &AlgorithmState) -> Result<(), RestoreError> {
        state.expect_header(&self.name(), 0)
    }

    /// The current global model, when the algorithm has one it deploys to
    /// clients: its spec and transmitted state. Used by the multi-model
    /// harness (Table 3) to measure per-client local accuracy of the
    /// deployed model. Default: none.
    fn global_model(&self) -> Option<(kemf_nn::models::ModelSpec, kemf_nn::serialize::ModelState)> {
        None
    }
}

/// Everything that parameterizes one engine run besides the algorithm
/// and context. Build it fluently:
///
/// ```no_run
/// # use kemf_fl::engine::RunOptions;
/// # use kemf_fl::checkpoint::CheckpointPolicy;
/// # use kemf_fl::lifecycle::FaultConfig;
/// let opts = RunOptions::new()
///     .faults(FaultConfig { drop_after_download: 0.1, ..Default::default() })
///     .checkpoint(CheckpointPolicy::new("/tmp/ckpts", 5))
///     .record_trace();
/// ```
#[derive(Default)]
pub struct RunOptions<'a> {
    /// Explicit fault model; `None` uses the context's
    /// [`crate::config::FlConfig::fault_plan`].
    pub faults: Option<FaultConfig>,
    /// External observability sink; `None` with `record_trace` unset
    /// means no tracing at all.
    pub sink: Option<&'a mut dyn EventSink>,
    /// Record the run through an internal [`TraceSink`] and attach the
    /// trace to the history. Ignored when an external `sink` is given
    /// (the caller owns that sink's trace).
    pub record_trace: bool,
    /// Write crash-consistent checkpoints under this policy.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Resume from this checkpoint file — or checkpoint *directory*, in
    /// which case the newest loadable checkpoint wins.
    pub resume_from: Option<PathBuf>,
    /// Override the engine seed (sampler and fault streams, checkpoint
    /// fingerprint). `None` uses `cfg.seed`. Algorithm-internal
    /// randomness still derives from `cfg.seed`.
    pub seed: Option<u64>,
    /// How rounds advance: classic synchronous rounds (the default) or
    /// buffered-asynchronous cycles with staleness-weighted fusion.
    pub round_mode: RoundMode,
    /// How traffic travels: simulated in-process (the default,
    /// bit-identical to every earlier release) or real framed bytes over
    /// localhost sockets to a worker pool (see [`crate::transport`]).
    pub transport: TransportMode,
}

impl<'a> RunOptions<'a> {
    /// Default options: the context's fault plan, no tracing, no
    /// checkpoints.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run under an explicit fault model.
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Send round-lifecycle events to an external sink.
    pub fn sink(mut self, sink: &'a mut dyn EventSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Record the run and attach the trace to the returned history.
    pub fn record_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Checkpoint every `policy.every` completed rounds into
    /// `policy.dir`.
    pub fn checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }

    /// Resume from a checkpoint file or directory.
    pub fn resume_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume_from = Some(path.into());
        self
    }

    /// Override the engine seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Select how rounds advance (see [`RoundMode`]).
    pub fn round_mode(mut self, mode: RoundMode) -> Self {
        self.round_mode = mode;
        self
    }

    /// Shorthand for [`RoundMode::Async`].
    pub fn async_rounds(mut self, cfg: crate::scheduler::AsyncConfig) -> Self {
        self.round_mode = RoundMode::Async(cfg);
        self
    }

    /// Select how traffic travels (see [`TransportMode`]).
    pub fn transport(mut self, mode: TransportMode) -> Self {
        self.transport = mode;
        self
    }

    /// Shorthand for [`TransportMode::Socket`]: run every round's
    /// traffic as real framed bytes over localhost sockets.
    pub fn socket_transport(mut self, cfg: SocketConfig) -> Self {
        self.transport = TransportMode::Socket(cfg);
        self
    }
}

/// What a finished run hands back.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Per-round history (with trace attached when recorded).
    pub history: History,
    /// Each round's lifecycle plan — including replayed plans for rounds
    /// completed before a resume, so the report always covers the full
    /// horizon.
    pub plans: Vec<RoundPlan>,
    /// `Some(k)` when the run resumed after `k` completed rounds.
    pub resumed_from: Option<usize>,
    /// Checkpoint files written by this run, oldest first (pruned files
    /// excluded).
    pub checkpoints: Vec<PathBuf>,
    /// Final virtual clock of the asynchronous scheduler in simulated
    /// seconds — the time the server finished its last fused buffer.
    /// `None` for synchronous runs (wall-clock there is priced after
    /// the fact by [`crate::network::NetworkModel`]).
    pub sim_time_s: Option<f64>,
    /// Wire-level counters when the run traveled over the socket
    /// transport: frames, payload bytes by direction, and framing
    /// overhead. `None` for in-process runs.
    pub transport: Option<TransportStats>,
}

/// Why a run could not start or continue.
#[derive(Debug)]
pub enum EngineError {
    /// The run configuration (or effective fault model) is inconsistent.
    Config(ConfigError),
    /// The algorithm's own setup rejected the context.
    Init(ConfigError),
    /// Writing a checkpoint failed.
    Checkpoint(std::io::Error),
    /// Resuming from a checkpoint failed.
    Resume(ResumeError),
    /// A per-client state-store operation failed mid-round (unknown
    /// client slot, corrupt or unreadable spill file).
    State(StoreError),
    /// Byte accounting overflowed u64 (cumulative totals or a buffered
    /// cycle's uplink sum).
    Cost(CostError),
    /// The socket transport failed (worker spawn, socket i/o, protocol
    /// violation, or plan/wire desync).
    Transport(TransportError),
    /// The run's identity could not be fingerprinted (non-finite config
    /// floats would collide checkpoint identities).
    Fingerprint(CheckpointError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Config(e) => write!(f, "invalid configuration: {e}"),
            EngineError::Init(e) => write!(f, "algorithm init failed: {e}"),
            EngineError::Checkpoint(e) => write!(f, "checkpoint write failed: {e}"),
            EngineError::Resume(e) => write!(f, "resume failed: {e}"),
            EngineError::State(e) => write!(f, "client state store: {e}"),
            EngineError::Cost(e) => write!(f, "byte accounting: {e}"),
            EngineError::Transport(e) => write!(f, "socket transport: {e}"),
            EngineError::Fingerprint(e) => write!(f, "run identity: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ConfigError> for EngineError {
    fn from(e: ConfigError) -> Self {
        EngineError::Config(e)
    }
}

impl From<StoreError> for EngineError {
    fn from(e: StoreError) -> Self {
        EngineError::State(e)
    }
}

impl From<CostError> for EngineError {
    fn from(e: CostError) -> Self {
        EngineError::Cost(e)
    }
}

impl From<TransportError> for EngineError {
    fn from(e: TransportError) -> Self {
        EngineError::Transport(e)
    }
}

/// Why a checkpoint refused to resume the current run.
#[derive(Debug)]
pub enum ResumeError {
    /// Reading the checkpoint failed (missing, truncated, wrong format —
    /// the message names the file).
    Io(std::io::Error),
    /// The checkpoint directory exists but was never checkpointed into.
    NoCheckpoints {
        /// The directory scanned.
        dir: PathBuf,
    },
    /// Checkpoints exist but every candidate failed to load.
    AllCorrupt {
        /// The directory scanned.
        dir: PathBuf,
        /// Candidates tried, newest first.
        tried: usize,
        /// The last candidate's load error.
        last: std::io::Error,
    },
    /// The checkpoint was written by a run with a different identity
    /// (config, fault model, algorithm, or seed).
    FingerprintMismatch {
        /// Fingerprint of the current run.
        expected: u64,
        /// Fingerprint stored in the checkpoint.
        found: u64,
    },
    /// The checkpoint belongs to a different algorithm.
    AlgorithmMismatch {
        /// The algorithm being resumed.
        expected: String,
        /// The algorithm in the checkpoint.
        found: String,
    },
    /// The algorithm rejected the checkpointed state.
    Restore(RestoreError),
    /// Replaying an RNG stream over the completed rounds did not land on
    /// the probe stored at save time — the run would silently fork, so
    /// it refuses instead.
    StreamDiverged {
        /// `"sampler"` or `"fault"`.
        stream: &'static str,
    },
    /// The checkpoint claims more completed rounds than it has records
    /// for (corruption the format checks cannot see).
    Inconsistent {
        /// What was inconsistent.
        detail: String,
    },
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::Io(e) => write!(f, "{e}"),
            ResumeError::NoCheckpoints { dir } => {
                write!(f, "no round_*.ckpt checkpoints in {}", dir.display())
            }
            ResumeError::AllCorrupt { dir, tried, last } => write!(
                f,
                "all {tried} checkpoint(s) in {} failed to load; last error: {last}",
                dir.display()
            ),
            ResumeError::FingerprintMismatch { expected, found } => write!(
                f,
                "config fingerprint mismatch: run is {expected:#018x}, checkpoint is {found:#018x} \
                 (different config, fault model, algorithm, or seed)"
            ),
            ResumeError::AlgorithmMismatch { expected, found } => {
                write!(f, "checkpoint belongs to {found}, not {expected}")
            }
            ResumeError::Restore(e) => write!(f, "state restore: {e}"),
            ResumeError::StreamDiverged { stream } => write!(
                f,
                "{stream} RNG replay diverged from the checkpoint probe; refusing to fork the run"
            ),
            ResumeError::Inconsistent { detail } => write!(f, "inconsistent checkpoint: {detail}"),
        }
    }
}

impl std::error::Error for ResumeError {}

impl From<LoadError> for ResumeError {
    fn from(e: LoadError) -> Self {
        match e {
            LoadError::Io(e) => ResumeError::Io(e),
            LoadError::NoCheckpoints { dir } => ResumeError::NoCheckpoints { dir },
            LoadError::AllCorrupt { dir, tried, last } => {
                ResumeError::AllCorrupt { dir, tried, last }
            }
        }
    }
}

/// Draw the round's client subset: a uniform `count`-element sample of
/// `0..n_clients` without replacement, sorted (for determinism of any
/// order-dependent aggregation). Implemented as a partial Fisher–Yates
/// shuffle over a sparse swap table, so time and memory are O(count) —
/// a 1%-sampled million-client round allocates ten thousand entries,
/// not a million-element shuffle. An empty population yields an empty
/// sample — `clamp(1, 0)` used to panic here; configs reject
/// `n_clients == 0` up front in [`crate::config::FlConfig::validate`].
pub fn sample_clients(n_clients: usize, count: usize, rng: &mut StdRng) -> Vec<usize> {
    use rand::Rng;
    if n_clients == 0 {
        return Vec::new();
    }
    let count = count.clamp(1, n_clients);
    if count == n_clients {
        return (0..n_clients).collect();
    }
    // Virtual array a[i] = i; `swaps` records only displaced entries.
    let mut swaps: std::collections::HashMap<usize, usize> =
        std::collections::HashMap::with_capacity(count * 2);
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let j = rng.gen_range(i..n_clients);
        let vj = swaps.get(&j).copied().unwrap_or(j);
        let vi = swaps.get(&i).copied().unwrap_or(i);
        out.push(vj);
        swaps.insert(j, vi);
    }
    out.sort_unstable();
    out
}

/// Settle the process's compute width exactly once and return it:
/// `KEMF_THREADS`, or one per available core when unset or `0`. This is
/// the number of threads [`crate::cohort::train_cohort`] trains a chunk's
/// clients on (the caller's plus `width − 1` scoped ones, alive for that
/// chunk only); at 1 every client trains on the calling thread. Kernels
/// are single-threaded at any width, and histories do not depend on it.
/// Nothing is spawned or allocated here. Safe to call from multiple entry
/// points; only the first call configures.
pub fn init_thread_pool() -> usize {
    use std::sync::OnceLock;
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| {
        let env_threads = std::env::var("KEMF_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0);
        let requested = env_threads.unwrap_or_else(|| {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        });
        // A build failure means the width was fixed before us (e.g. by a
        // test harness); inherit it rather than abort — but if the user
        // asked for a specific width via KEMF_THREADS and lost, say so once
        // instead of silently running at the wrong parallelism.
        let already_built =
            rayon::ThreadPoolBuilder::new().num_threads(requested).build_global().is_err();
        let actual = rayon::current_num_threads();
        if already_built && env_threads.is_some() && actual != requested {
            eprintln!(
                "warning: KEMF_THREADS={requested} requested, but the compute width was \
                 already fixed at {actual} thread(s); clients train on {actual}"
            );
        }
        actual
    })
}

/// One probe draw from a clone of the stream — reads the stream's
/// position without advancing it. Stored in checkpoints and compared
/// after replay.
fn probe(rng: &StdRng) -> u64 {
    rng.clone().next_u64()
}

/// The engine: a namespace for the canonical run/resume entry points.
pub struct Engine;

impl Engine {
    /// Run a federated training session under `opts` — the single entry
    /// point.
    pub fn run(
        algo: &mut dyn FedAlgorithm,
        ctx: &FlContext,
        mut opts: RunOptions<'_>,
    ) -> Result<RunReport, EngineError> {
        init_thread_pool();
        let record = opts.record_trace;
        match opts.sink.take() {
            Some(sink) => run_core(algo, ctx, &opts, sink),
            None if record => {
                let mut sink = TraceSink::new();
                let mut report = run_core(algo, ctx, &opts, &mut sink)?;
                report.history.trace = Some(sink.into_trace());
                Ok(report)
            }
            None => run_core(algo, ctx, &opts, &mut NoopSink),
        }
    }

    /// Resume a run from a checkpoint file or directory, with default
    /// options otherwise. Continue checkpointing by adding a policy:
    /// `Engine::run(algo, ctx, RunOptions::new().resume_from(dir).checkpoint(policy))`.
    pub fn resume(
        algo: &mut dyn FedAlgorithm,
        ctx: &FlContext,
        path: impl Into<PathBuf>,
    ) -> Result<RunReport, EngineError> {
        Self::run(algo, ctx, RunOptions::new().resume_from(path))
    }
}

/// The round loop, generic over the observability sink (`opts.sink` has
/// been taken by [`Engine::run`]). With a [`NoopSink`] every tracing
/// site reduces to one branch and behavior is exactly the
/// pre-observability engine.
fn run_core(
    algo: &mut dyn FedAlgorithm,
    ctx: &FlContext,
    opts: &RunOptions<'_>,
    sink: &mut dyn EventSink,
) -> Result<RunReport, EngineError> {
    ctx.cfg.validate().map_err(EngineError::Config)?;
    let faults = opts.faults.unwrap_or_else(|| ctx.cfg.fault_plan());
    faults.validate().map_err(EngineError::Config)?;
    let per_round = ctx.cfg.sampled_per_round();
    if faults.min_quorum > per_round {
        return Err(EngineError::Config(ConfigError::UnreachableQuorum {
            min_quorum: faults.min_quorum,
            sampled_per_round: per_round,
        }));
    }
    let async_cfg = match &opts.round_mode {
        RoundMode::Sync => None,
        RoundMode::Async(a) => {
            a.validate(per_round).map_err(EngineError::Config)?;
            Some(a.clone())
        }
    };
    algo.init(ctx).map_err(EngineError::Init)?;

    // The transport moves bytes for an already-drawn plan; it never
    // touches the RNG streams, so it stays out of the run fingerprint
    // and a checkpoint written over sockets resumes in-process (and
    // vice versa). Async cycles interleave arrivals across waves, which
    // the strictly round-scoped wire protocol cannot express.
    let socket_cfg = match &opts.transport {
        TransportMode::InProc => None,
        TransportMode::Socket(s) => {
            s.validate()?;
            if async_cfg.is_some() {
                return Err(EngineError::Transport(TransportError::Config {
                    reason: "buffered-asynchronous rounds are not supported over the socket \
                             transport; use RoundMode::Sync or TransportMode::InProc"
                        .into(),
                }));
            }
            Some(s)
        }
    };

    let algo_name = algo.name();
    let engine_seed = opts.seed.unwrap_or(ctx.cfg.seed);
    let fingerprint = checkpoint::run_fingerprint(&ctx.cfg, &faults, &algo_name, engine_seed)
        .map_err(EngineError::Fingerprint)?;
    // Async knobs change the trajectory, so they join the run identity;
    // synchronous fingerprints are exactly what they always were, and a
    // checkpoint can never resume across modes.
    let fingerprint = match &async_cfg {
        Some(a) => a.mix_fingerprint(fingerprint),
        None => fingerprint,
    };
    let mut scheduler = async_cfg.map(AsyncScheduler::new);
    let mut history = History::new(algo_name.clone());
    let mut comm = CommTracker::new();
    let mut plans = Vec::with_capacity(ctx.cfg.rounds);
    let mut rng = seeded_rng(child_seed(engine_seed, 0x5A4D_504C)); // "SMPL"
    let mut fault_rng = seeded_rng(child_seed(engine_seed, 0xD209));

    // Resume: restore algorithm state, then replay the engine's two RNG
    // streams over the completed rounds (cheap — draws only, no
    // training) and verify each against the checkpoint's probe.
    let mut start_round = 0usize;
    let mut resumed_from = None;
    if let Some(path) = &opts.resume_from {
        let ckpt = checkpoint::load_run(path)
            .map_err(|e| EngineError::Resume(ResumeError::from(e)))?;
        if ckpt.algorithm != algo_name {
            return Err(EngineError::Resume(ResumeError::AlgorithmMismatch {
                expected: algo_name,
                found: ckpt.algorithm,
            }));
        }
        if ckpt.fingerprint != fingerprint {
            return Err(EngineError::Resume(ResumeError::FingerprintMismatch {
                expected: fingerprint,
                found: ckpt.fingerprint,
            }));
        }
        if ckpt.records.len() != ckpt.next_round {
            return Err(EngineError::Resume(ResumeError::Inconsistent {
                detail: format!(
                    "{} records for {} completed rounds",
                    ckpt.records.len(),
                    ckpt.next_round
                ),
            }));
        }
        algo.restore(&ckpt.state)
            .map_err(|e| EngineError::Resume(ResumeError::Restore(e)))?;
        for _ in 0..ckpt.next_round {
            let sampled = sample_clients(ctx.cfg.n_clients, per_round, &mut rng);
            plans.push(plan_round(&sampled, &faults, &mut fault_rng));
        }
        if probe(&rng) != ckpt.sampler_check {
            return Err(EngineError::Resume(ResumeError::StreamDiverged { stream: "sampler" }));
        }
        if probe(&fault_rng) != ckpt.fault_check {
            return Err(EngineError::Resume(ResumeError::StreamDiverged { stream: "fault" }));
        }
        for r in &ckpt.records {
            comm.record_round(RoundComm {
                down_bytes: r.down_bytes,
                up_bytes: r.up_bytes,
                wasted_up_bytes: r.wasted_up_bytes,
                down_clients: r.down_clients,
                up_clients: r.up_clients,
            });
        }
        // The virtual clock and in-flight event queue are part of an
        // async run's trajectory; a checkpoint without them (or with
        // them, for a sync run) is from the other mode — unreachable
        // past the fingerprint check, but checked for defense in depth.
        match (scheduler.as_mut(), ckpt.scheduler) {
            (Some(s), Some(st)) => s.restore(st),
            (None, None) => {}
            (Some(_), None) => {
                return Err(EngineError::Resume(ResumeError::Inconsistent {
                    detail: "async resume needs scheduler state, checkpoint has none".into(),
                }));
            }
            (None, Some(_)) => {
                return Err(EngineError::Resume(ResumeError::Inconsistent {
                    detail: "checkpoint carries async scheduler state but the run is synchronous"
                        .into(),
                }));
            }
        }
        history.records = ckpt.records;
        start_round = ckpt.next_round;
        resumed_from = Some(start_round);
    }

    // Spin the worker pool up only once the run is actually going to
    // execute rounds — config/resume failures above never spawn sockets.
    let mut transport = match socket_cfg {
        Some(s) => Some(SocketTransport::start(s, faults.round_deadline_s)?),
        None => None,
    };

    let mut checkpoints = Vec::new();
    for round in start_round..ctx.cfg.rounds {
        let mut scope = RoundScope::new(&mut *sink, round);
        let round_t0 = scope.enabled().then(Instant::now);
        let (sampled, plan) = scope.phase(Phase::Sample, |c| {
            let sampled = sample_clients(ctx.cfg.n_clients, per_round, &mut rng);
            let plan = plan_round(&sampled, &faults, &mut fault_rng);
            c.clients = sampled.len();
            (sampled, plan)
        });
        let client_plans = algo.client_plans(round, &sampled);
        if client_plans.len() != sampled.len()
            || client_plans.iter().zip(&sampled).any(|(p, &k)| p.client != k)
        {
            return Err(EngineError::Config(ConfigError::AlgorithmSetup {
                algorithm: algo.name(),
                reason: format!(
                    "client_plans returned {} plan(s) for {} sampled client(s), or the plans' \
                     client indices do not match the sample",
                    client_plans.len(),
                    sampled.len()
                ),
            }));
        }
        let payload_label = round_payload_label(&client_plans);
        // In-process, the round's traffic is priced by the closed-form
        // per-client plan arithmetic; over sockets, the same plans are
        // *enacted* as framed bytes and the measurement comes back from
        // the wire.
        let wave_comm = scope.phase(Phase::Broadcast, |c| {
            let round_comm = match transport.as_mut() {
                Some(t) => t
                    .run_round(round, &plan, &client_plans, algo.global_model())
                    .map_err(EngineError::Transport)?,
                None => plan.comm(&client_plans).map_err(EngineError::Cost)?,
            };
            c.clients = round_comm.down_clients;
            c.down_bytes = round_comm.down_bytes;
            c.payload_label = payload_label;
            Ok::<RoundComm, EngineError>(round_comm)
        })?;
        let (round_comm, quorum_met, train_loss) = if let Some(sched) = scheduler.as_mut() {
            run_async_cycle(
                algo,
                ctx,
                &faults,
                sched,
                round,
                &plan,
                &client_plans,
                wave_comm,
                &mut scope,
            )?
        } else {
            let reporters = plan.reporters();
            let quorum_met = plan.quorum_met();
            // Quorum failure: the broadcast (and any stray uploads) already
            // cost bytes, but the server discards the round — the algorithm
            // never runs and the previous global state carries over. No
            // clients report, so there is no training loss to record: NaN,
            // not 0.0 (which every loss series would read as *perfect*).
            let train_loss = if quorum_met {
                algo.round(round, &reporters, ctx, &mut scope)?.train_loss
            } else {
                f32::NAN
            };
            scope.phase(Phase::Upload, |c| {
                c.clients = wave_comm.up_clients;
                c.up_bytes = wave_comm.up_bytes;
                c.wasted_up_bytes = wave_comm.wasted_up_bytes;
            });
            (wave_comm, quorum_met, train_loss)
        };
        comm.record_round(round_comm);
        if let Some(label) = payload_label {
            history.payload_kind = label.to_string();
        }
        let acc = scope.phase(Phase::Eval, |_c| algo.evaluate(ctx));
        history.push(RoundRecord {
            round,
            test_acc: acc,
            train_loss,
            cum_bytes: comm.total()?,
            down_bytes: round_comm.down_bytes,
            up_bytes: round_comm.up_bytes,
            wasted_up_bytes: round_comm.wasted_up_bytes,
            down_clients: round_comm.down_clients,
            up_clients: round_comm.up_clients,
            quorum_met,
        });
        if let Some(t0) = round_t0 {
            scope.record_raw(
                Phase::Round,
                t0.elapsed().as_secs_f64(),
                Counters {
                    clients: sampled.len(),
                    down_bytes: round_comm.down_bytes,
                    up_bytes: round_comm.up_bytes,
                    wasted_up_bytes: round_comm.wasted_up_bytes,
                    quorum_met,
                    payload_label,
                    ..Default::default()
                },
            );
        }
        plans.push(plan);

        if let Some(policy) = &opts.checkpoint {
            let completed = round + 1;
            if completed % policy.every == 0 || completed == ctx.cfg.rounds {
                let ckpt = RunCheckpoint {
                    fingerprint,
                    next_round: completed,
                    algorithm: algo_name.clone(),
                    sampler_check: probe(&rng),
                    fault_check: probe(&fault_rng),
                    records: history.records.clone(),
                    state: algo.state()?,
                    scheduler: scheduler.as_ref().map(|s| s.state()),
                };
                let path =
                    checkpoint::save_run(&ckpt, &policy.dir).map_err(EngineError::Checkpoint)?;
                checkpoints.push(path);
                checkpoint::prune_checkpoints(&policy.dir, policy.keep)
                    .map_err(EngineError::Checkpoint)?;
            }
        }
    }
    let sim_time_s = scheduler.as_ref().map(|s| s.now());
    let transport = match transport.take() {
        Some(t) => Some(t.finish()?),
        None => None,
    };
    Ok(RunReport { history, plans, resumed_from, checkpoints, sim_time_s, transport })
}

/// `train_cohort` must return one update per reporter, in order: the
/// scheduler bills each update's uplink bytes to the reporter at the
/// same position, so a reordered or short list would mis-bill clients.
fn check_update_alignment(
    algorithm: &str,
    updates: &[PreparedUpdate],
    reporters: &[usize],
) -> Result<(), EngineError> {
    if updates.len() == reporters.len()
        && updates.iter().zip(reporters).all(|(u, &k)| u.client == k)
    {
        return Ok(());
    }
    Err(EngineError::Config(ConfigError::AlgorithmSetup {
        algorithm: algorithm.into(),
        reason: format!(
            "train_cohort returned {} update(s) for {} reporter(s), or the updates' client \
             indices do not match the reporters",
            updates.len(),
            reporters.len()
        ),
    }))
}

/// One buffered-asynchronous aggregation cycle: train the wave's
/// reporters against the current global model, dispatch their
/// completions at simulated arrival times, drain the buffer, and fuse
/// the accepted updates at their staleness weights.
///
/// Byte accounting differs from the synchronous path only in *when*
/// uplink is charged: downlink (and in-flight upload retries) bill with
/// the wave that caused them, while each successful upload bills in the
/// cycle whose fused buffer consumed it, and an eviction bills its
/// payload as wasted. Updates still in flight when the run ends are
/// never charged — the server never received them.
#[allow(clippy::too_many_arguments)]
fn run_async_cycle(
    algo: &mut dyn FedAlgorithm,
    ctx: &FlContext,
    faults: &FaultConfig,
    sched: &mut AsyncScheduler,
    cycle: usize,
    plan: &RoundPlan,
    client_plans: &[ClientPlan],
    wave_comm: RoundComm,
    scope: &mut RoundScope<'_>,
) -> Result<(RoundComm, bool, f32), EngineError> {
    let reporters = plan.reporters();
    // Eager training at dispatch: the clients that will complete this
    // wave all saw the global model of cycle `cycle`, which is what
    // makes `cycle - wave` the honest staleness at fold time.
    let updates = if reporters.is_empty() {
        Vec::new()
    } else {
        algo.train_cohort(cycle, &reporters, ctx, scope)?
    };
    check_update_alignment(&algo.name(), &updates, &reporters)?;
    sched.dispatch(cycle, plan, client_plans, updates);
    let drained = scope.phase(Phase::Buffer, |c| {
        let d = sched.drain(cycle);
        c.clients = d.folded.len();
        c.stale_updates = d.stale;
        c.evicted_updates = d.evicted;
        d
    });
    let folded_n = drained.folded.len();
    // Same quorum rule as the synchronous `RoundPlan::quorum_met`, but
    // over the updates that actually reached the fused buffer.
    let quorum_met = folded_n >= faults.min_quorum.max(1);
    let train_loss = if quorum_met {
        algo.fuse(cycle, drained.folded, ctx, scope)?.train_loss
    } else {
        // Quorum abort discards the buffer wholesale — deferred store
        // commits never apply, exactly like a synchronous abort where
        // the algorithm never ran.
        f32::NAN
    };
    // Each event carries its own uplink bytes (summed in u128 by the
    // scheduler), so heterogeneous per-client payloads bill exactly.
    let to_u64 = |total: u128| {
        u64::try_from(total)
            .map_err(|_| EngineError::Cost(CostError::BufferedUplinkOverflow { total }))
    };
    let fused_up = to_u64(drained.folded_up_bytes)?;
    let evicted_up = to_u64(drained.evicted_up_bytes)?;
    let wasted_up_bytes = wave_comm.wasted_up_bytes.checked_add(evicted_up).ok_or(
        EngineError::Cost(CostError::ByteTotalOverflow {
            acc: wave_comm.wasted_up_bytes,
            add: evicted_up,
        }),
    )?;
    let round_comm = RoundComm {
        down_bytes: wave_comm.down_bytes,
        up_bytes: fused_up,
        wasted_up_bytes,
        down_clients: wave_comm.down_clients,
        up_clients: folded_n,
    };
    scope.phase(Phase::Upload, |c| {
        c.clients = round_comm.up_clients;
        c.up_bytes = round_comm.up_bytes;
        c.wasted_up_bytes = round_comm.wasted_up_bytes;
    });
    Ok((round_comm, quorum_met, train_loss))
}

/// The label naming what this round's payloads carry: the uniform view
/// label when every sampled client sees the same kind of payload,
/// `"mixed"` otherwise, `None` for an empty cohort.
fn round_payload_label(plans: &[ClientPlan]) -> Option<&'static str> {
    let first = plans.first()?.view.label();
    if plans.iter().all(|p| p.view.label() == first) {
        Some(first)
    } else {
        Some("mixed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlConfig;
    use crate::lifecycle::{ModelView, WirePayload};
    use crate::scheduler::{AsyncConfig, UpdatePayload};
    use kemf_data::synth::{SynthConfig, SynthTask};

    /// One training-free update per sampled client, in order.
    fn free_updates(sampled: &[usize]) -> Vec<PreparedUpdate> {
        sampled
            .iter()
            .map(|&client| PreparedUpdate {
                client,
                n_samples: 10,
                steps: 5,
                loss: 1.0,
                payload: UpdatePayload::Empty,
                commit: None,
            })
            .collect()
    }

    struct Dummy {
        evals: usize,
        rounds_seen: Vec<Vec<usize>>,
    }

    impl Dummy {
        fn new() -> Self {
            Dummy { evals: 0, rounds_seen: Vec::new() }
        }
    }

    impl FedAlgorithm for Dummy {
        fn name(&self) -> String {
            "dummy".into()
        }
        fn client_plans(&self, _round: usize, sampled: &[usize]) -> Vec<ClientPlan> {
            ClientPlan::uniform(
                sampled,
                ModelView::Full,
                WirePayload { down_bytes: 10, up_bytes: 5 },
            )
        }
        fn round(
            &mut self,
            _round: usize,
            sampled: &[usize],
            _ctx: &FlContext,
            _scope: &mut RoundScope<'_>,
        ) -> Result<RoundOutcome, EngineError> {
            self.rounds_seen.push(sampled.to_vec());
            Ok(RoundOutcome { train_loss: 1.0 })
        }
        fn train_cohort(
            &mut self,
            _wave: usize,
            sampled: &[usize],
            _ctx: &FlContext,
            _scope: &mut RoundScope<'_>,
        ) -> Result<Vec<PreparedUpdate>, EngineError> {
            self.rounds_seen.push(sampled.to_vec());
            Ok(free_updates(sampled))
        }
        fn fuse(
            &mut self,
            _round: usize,
            updates: Vec<(PreparedUpdate, f32)>,
            _ctx: &FlContext,
            _scope: &mut RoundScope<'_>,
        ) -> Result<RoundOutcome, EngineError> {
            if updates.is_empty() {
                return Ok(RoundOutcome { train_loss: f32::NAN });
            }
            let loss: f32 = updates.iter().map(|(u, w)| w * u.loss).sum();
            Ok(RoundOutcome { train_loss: loss / updates.len() as f32 })
        }
        fn evaluate(&mut self, _ctx: &FlContext) -> f32 {
            self.evals += 1;
            0.5
        }
    }

    fn tiny_ctx() -> FlContext {
        let task = SynthTask::new(SynthConfig::mnist_like(0));
        let train = task.generate(120, 0);
        let test = task.generate(40, 1);
        let cfg = FlConfig {
            n_clients: 6,
            sample_ratio: 0.5,
            rounds: 4,
            min_per_client: 2,
            ..Default::default()
        };
        FlContext::new(cfg, &train, test)
    }

    fn run_default(algo: &mut dyn FedAlgorithm, ctx: &FlContext) -> History {
        Engine::run(algo, ctx, RunOptions::new()).unwrap().history
    }

    #[test]
    fn engine_runs_all_rounds_and_tracks_bytes() {
        let ctx = tiny_ctx();
        let mut algo = Dummy::new();
        let h = run_default(&mut algo, &ctx);
        assert_eq!(h.rounds(), 4);
        assert_eq!(algo.evals, 4);
        // 3 clients per round, each charged 10 down + 5 up.
        assert_eq!(h.total_bytes(), 4 * 3 * 15);
        // 6 clients × 0.5 = 3 sampled per round, unique and in range.
        for s in &algo.rounds_seen {
            assert_eq!(s.len(), 3);
            assert!(s.windows(2).all(|w| w[0] < w[1]));
            assert!(s.iter().all(|&k| k < 6));
        }
        // Per-round records carry the per-phase split.
        for r in &h.records {
            assert_eq!(r.down_bytes, 30);
            assert_eq!(r.up_bytes, 15);
            assert_eq!(r.wasted_up_bytes, 0);
            assert_eq!((r.down_clients, r.up_clients), (3, 3));
            assert!(r.quorum_met);
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let mut a = seeded_rng(1);
        let mut b = seeded_rng(1);
        for _ in 0..5 {
            assert_eq!(sample_clients(20, 8, &mut a), sample_clients(20, 8, &mut b));
        }
    }

    #[test]
    fn sampling_empty_population_yields_empty_round() {
        // Regression: `count.clamp(1, 0)` panicked (min > max). The
        // config layer rejects n_clients == 0, but the sampler itself
        // must stay total.
        let mut rng = seeded_rng(5);
        assert!(sample_clients(0, 3, &mut rng).is_empty());
        assert!(sample_clients(0, 0, &mut rng).is_empty());
    }

    #[test]
    fn sampling_varies_across_rounds() {
        let mut rng = seeded_rng(2);
        let r1 = sample_clients(30, 12, &mut rng);
        let r2 = sample_clients(30, 12, &mut rng);
        assert_ne!(r1, r2);
    }

    #[test]
    fn sampling_is_uniform_sorted_and_cheap_at_population_scale() {
        let mut rng = seeded_rng(11);
        // A 1%-sampled million-client draw: O(count) partial
        // Fisher–Yates, no million-element shuffle.
        let s = sample_clients(1_000_000, 10_000, &mut rng);
        assert_eq!(s.len(), 10_000);
        assert!(s.windows(2).all(|w| w[0] < w[1]), "sorted and unique");
        assert!(s.iter().all(|&k| k < 1_000_000));
        // Full-population sampling is the identity permutation.
        assert_eq!(sample_clients(5, 5, &mut rng), vec![0, 1, 2, 3, 4]);
        assert_eq!(sample_clients(5, 99, &mut rng), vec![0, 1, 2, 3, 4]);
        // Rough uniformity: the sample's mean index sits near the middle.
        let mean = s.iter().sum::<usize>() as f64 / s.len() as f64;
        assert!((mean - 500_000.0).abs() < 25_000.0, "mean index {mean}");
    }

    #[test]
    fn dropout_charges_full_broadcast_but_thinned_uplink() {
        let mut ctx = tiny_ctx();
        ctx.cfg.dropout_prob = 0.5;
        let mut algo = Dummy::new();
        let h = run_default(&mut algo, &ctx);
        assert_eq!(h.rounds(), 4);
        let mut dropped_any = false;
        for (r, s) in h.records.iter().zip(&algo.rounds_seen) {
            // The crash happens after download: downlink covers the full
            // broadcast set regardless of who survives.
            assert_eq!(r.down_clients, 3);
            assert_eq!(r.down_bytes, 3 * 10);
            // Uplink covers exactly the survivors the algorithm saw.
            assert_eq!(r.up_clients, s.len());
            assert_eq!(r.up_bytes, s.len() as u64 * 5);
            dropped_any |= s.len() < 3;
        }
        assert!(dropped_any, "seeded 50% dropout should thin at least one round");
    }

    #[test]
    fn engine_runs_with_heavy_dropout() {
        let mut ctx = tiny_ctx();
        ctx.cfg.dropout_prob = 0.8;
        let mut algo = Dummy::new();
        let h = run_default(&mut algo, &ctx);
        assert_eq!(h.rounds(), 4);
        // Rounds where everyone crashed abort on quorum and never reach
        // the algorithm; the rest see only survivors.
        let aborted = h.records.iter().filter(|r| !r.quorum_met).count();
        assert_eq!(algo.rounds_seen.len() + aborted, 4);
        for s in &algo.rounds_seen {
            assert!(!s.is_empty());
            assert!(s.len() <= 3);
        }
    }

    #[test]
    fn quorum_failure_skips_algorithm_but_charges_broadcast() {
        let ctx = tiny_ctx();
        let faults = FaultConfig {
            drop_after_download: 0.95,
            min_quorum: 3,
            ..Default::default()
        };
        let mut algo = Dummy::new();
        let h = Engine::run(&mut algo, &ctx, RunOptions::new().faults(faults))
            .unwrap()
            .history;
        assert_eq!(h.rounds(), 4);
        assert_eq!(algo.evals, 4, "evaluation still happens every round");
        let aborted: Vec<_> = h.records.iter().filter(|r| !r.quorum_met).collect();
        assert!(!aborted.is_empty(), "95% dropout cannot sustain a 3-client quorum");
        for r in &aborted {
            assert_eq!(r.down_bytes, 30, "broadcast bytes charged even when aborted");
            assert!(r.up_clients < 3);
            assert!(
                r.train_loss.is_nan(),
                "no client reported, so there is no loss — NaN, never a perfect-looking 0.0"
            );
        }
        assert_eq!(
            algo.rounds_seen.len(),
            h.records.iter().filter(|r| r.quorum_met).count()
        );
    }

    #[test]
    fn run_report_exposes_lifecycle_plans() {
        let ctx = tiny_ctx();
        let faults = FaultConfig { drop_after_download: 0.4, ..Default::default() };
        let mut algo = Dummy::new();
        let report = Engine::run(&mut algo, &ctx, RunOptions::new().faults(faults)).unwrap();
        assert_eq!(report.plans.len(), 4);
        assert!(report.resumed_from.is_none());
        assert!(report.checkpoints.is_empty());
        for (r, plan) in report.history.records.iter().zip(&report.plans) {
            assert_eq!(r.down_clients, plan.broadcast_count());
            assert_eq!(r.up_clients, plan.reporters().len());
        }
    }

    #[test]
    fn faultless_run_is_identical_to_legacy_engine() {
        // The no-fault path must not consume fault randomness or alter
        // sampling: default options and explicit reliable faults agree
        // exactly, including per-round byte records.
        let ctx = tiny_ctx();
        let mut a = Dummy::new();
        let ha = run_default(&mut a, &ctx);
        let mut b = Dummy::new();
        let hb = Engine::run(&mut b, &ctx, RunOptions::new().faults(FaultConfig::reliable()))
            .unwrap()
            .history;
        assert_eq!(a.rounds_seen, b.rounds_seen);
        assert_eq!(ha.to_json(), hb.to_json());
    }

    /// A probe whose plans deliberately misalign with the sample.
    struct Misaligned;

    impl FedAlgorithm for Misaligned {
        fn name(&self) -> String {
            "misaligned".into()
        }
        fn client_plans(&self, _round: usize, sampled: &[usize]) -> Vec<ClientPlan> {
            // Wrong client indices: every plan claims client 0.
            sampled
                .iter()
                .map(|_| ClientPlan {
                    client: 0,
                    view: ModelView::Full,
                    payload: WirePayload::symmetric(1),
                })
                .collect()
        }
        fn round(
            &mut self,
            _round: usize,
            _sampled: &[usize],
            _ctx: &FlContext,
            _scope: &mut RoundScope<'_>,
        ) -> Result<RoundOutcome, EngineError> {
            Ok(RoundOutcome { train_loss: 0.0 })
        }
        fn evaluate(&mut self, _ctx: &FlContext) -> f32 {
            0.0
        }
    }

    #[test]
    fn engine_rejects_misaligned_client_plans() {
        let ctx = tiny_ctx();
        let mut algo = Misaligned;
        match Engine::run(&mut algo, &ctx, RunOptions::new()) {
            Err(EngineError::Config(ConfigError::AlgorithmSetup { reason, .. })) => {
                assert!(reason.contains("client_plans"), "unhelpful rejection: {reason}");
            }
            other => panic!("expected a plan-alignment rejection, got {:?}", other.err()),
        }
    }

    /// A probe whose `train_cohort` returns the right updates in the
    /// wrong order; it inherits the provided `round`.
    struct Reordered;

    impl FedAlgorithm for Reordered {
        fn name(&self) -> String {
            "reordered".into()
        }
        fn client_plans(&self, _round: usize, sampled: &[usize]) -> Vec<ClientPlan> {
            ClientPlan::uniform(sampled, ModelView::Full, WirePayload::symmetric(1))
        }
        fn train_cohort(
            &mut self,
            _wave: usize,
            sampled: &[usize],
            _ctx: &FlContext,
            _scope: &mut RoundScope<'_>,
        ) -> Result<Vec<PreparedUpdate>, EngineError> {
            let mut updates = free_updates(sampled);
            updates.swap(0, 1);
            Ok(updates)
        }
        fn fuse(
            &mut self,
            _round: usize,
            _updates: Vec<(PreparedUpdate, f32)>,
            _ctx: &FlContext,
            _scope: &mut RoundScope<'_>,
        ) -> Result<RoundOutcome, EngineError> {
            panic!("misaligned updates must never reach fuse");
        }
        fn evaluate(&mut self, _ctx: &FlContext) -> f32 {
            0.0
        }
    }

    #[test]
    fn engine_rejects_reordered_updates_in_both_modes() {
        // Uplink bytes are billed by position, so two swapped updates
        // would charge each client the other's payload: a typed error in
        // release builds too, from the provided `round` and from the
        // async cycle alike.
        let ctx = tiny_ctx();
        for opts in [RunOptions::new(), RunOptions::new().async_rounds(AsyncConfig::new(3))] {
            match Engine::run(&mut Reordered, &ctx, opts) {
                Err(EngineError::Config(ConfigError::AlgorithmSetup { reason, .. })) => {
                    assert!(reason.contains("train_cohort"), "unhelpful rejection: {reason}");
                }
                other => panic!("expected an update-alignment rejection, got {:?}", other.err()),
            }
        }
    }

    #[test]
    fn engine_surfaces_config_errors_instead_of_panicking() {
        let mut ctx = tiny_ctx();
        ctx.cfg.rounds = 0; // mutated after construction: only the engine can catch it
        let mut algo = Dummy::new();
        match Engine::run(&mut algo, &ctx, RunOptions::new()) {
            Err(EngineError::Config(ConfigError::ZeroCount { field: "rounds" })) => {}
            other => panic!("expected config error, got {other:?}"),
        }
        // An unreachable quorum in explicit faults is caught too.
        let ctx = tiny_ctx();
        let faults = FaultConfig { min_quorum: 100, ..Default::default() };
        match Engine::run(&mut algo, &ctx, RunOptions::new().faults(faults)) {
            Err(EngineError::Config(ConfigError::UnreachableQuorum { .. })) => {}
            other => panic!("expected quorum error, got {other:?}"),
        }
    }

    #[test]
    fn checkpointed_dummy_run_resumes_bit_identically() {
        // The Dummy algorithm is stateless, so the trait's default
        // state()/restore() suffice — resume correctness here isolates
        // the engine's own replay machinery.
        let mut dir = std::env::temp_dir();
        dir.push(format!("kemf_engine_resume_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let ctx = tiny_ctx();
        let mut straight = Dummy::new();
        let h_straight = run_default(&mut straight, &ctx);

        // Run only 2 of the 4 rounds, checkpointing every round.
        let mut short_ctx = tiny_ctx();
        short_ctx.cfg.rounds = 2;
        let mut first = Dummy::new();
        let report = Engine::run(
            &mut first,
            &short_ctx,
            RunOptions::new().checkpoint(CheckpointPolicy::new(&dir, 1)),
        )
        .unwrap();
        assert_eq!(report.checkpoints.len(), 2);

        // Resume to the full horizon.
        let mut resumed = Dummy::new();
        let report = Engine::run(&mut resumed, &ctx, RunOptions::new().resume_from(&dir)).unwrap();
        assert_eq!(report.resumed_from, Some(2));
        assert_eq!(report.plans.len(), 4, "replay reconstructs completed rounds' plans");
        assert_eq!(
            report.history.to_json(),
            h_straight.to_json(),
            "resumed history must be byte-identical"
        );
        // The resumed algorithm only saw the remaining rounds.
        assert_eq!(resumed.rounds_seen, straight.rounds_seen[2..].to_vec());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_refuses_mismatched_seed() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("kemf_engine_fpr_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ctx = tiny_ctx();
        let mut algo = Dummy::new();
        Engine::run(&mut algo, &ctx, RunOptions::new().checkpoint(CheckpointPolicy::new(&dir, 2)))
            .unwrap();
        // Same context, different engine seed → different fingerprint.
        let mut other = Dummy::new();
        match Engine::run(&mut other, &ctx, RunOptions::new().seed(999).resume_from(&dir)) {
            Err(EngineError::Resume(ResumeError::FingerprintMismatch { .. })) => {}
            other => panic!("expected fingerprint mismatch, got {:?}", other.err()),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn async_full_buffer_no_delay_matches_sync_bit_for_bit() {
        // The correctness anchor: buffer == cohort and zero injected
        // delay means every update folds fresh at weight exactly 1.0,
        // in sampled order — the async history must serialize
        // byte-identically to the sync one.
        let ctx = tiny_ctx();
        let mut sync = Dummy::new();
        let h_sync = run_default(&mut sync, &ctx);
        let mut asy = Dummy::new();
        let report = Engine::run(
            &mut asy,
            &ctx,
            RunOptions::new().async_rounds(AsyncConfig::new(3)),
        )
        .unwrap();
        assert_eq!(report.history.to_json(), h_sync.to_json());
        assert_eq!(asy.rounds_seen, sync.rounds_seen);
        // No network model and no delays: the virtual clock never moves.
        assert_eq!(report.sim_time_s, Some(0.0));
    }

    #[test]
    fn async_small_buffer_spreads_uplink_across_cycles() {
        let ctx = tiny_ctx();
        let mut algo = Dummy::new();
        let report = Engine::run(
            &mut algo,
            &ctx,
            RunOptions::new().async_rounds(AsyncConfig::new(1).max_staleness(8)),
        )
        .unwrap();
        // Every wave trains its full 3-client cohort, but each cycle
        // fuses exactly one buffered update.
        for r in &report.history.records {
            assert_eq!(r.down_clients, 3);
            assert_eq!(r.up_clients, 1, "buffer_size caps fused uploads");
            assert_eq!(r.up_bytes, 5);
        }
        // 4 waves × 3 updates, 4 fused: the other 8 are still in flight
        // at run end and were never charged uplink.
        assert_eq!(report.history.records.iter().map(|r| r.up_bytes).sum::<u64>(), 4 * 5);
    }

    #[test]
    fn async_mode_rejects_overfull_buffer() {
        let ctx = tiny_ctx();
        let mut algo = Dummy::new();
        match Engine::run(&mut algo, &ctx, RunOptions::new().async_rounds(AsyncConfig::new(4))) {
            Err(EngineError::Config(ConfigError::OutOfRange {
                field: "async.buffer_size", ..
            })) => {}
            other => panic!("expected buffer-size rejection, got {:?}", other.err()),
        }
    }

    #[test]
    fn async_checkpoints_refuse_cross_mode_resume() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("kemf_engine_xmode_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ctx = tiny_ctx();
        let mut algo = Dummy::new();
        Engine::run(
            &mut algo,
            &ctx,
            RunOptions::new().checkpoint(CheckpointPolicy::new(&dir, 2)),
        )
        .unwrap();
        // A sync checkpoint must not seed an async run: the async knobs
        // are folded into the fingerprint.
        let mut other = Dummy::new();
        match Engine::run(
            &mut other,
            &ctx,
            RunOptions::new().async_rounds(AsyncConfig::new(3)).resume_from(&dir),
        ) {
            Err(EngineError::Resume(ResumeError::FingerprintMismatch { .. })) => {}
            other => panic!("expected fingerprint mismatch, got {:?}", other.err()),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn async_run_with_network_reports_virtual_time() {
        let ctx = tiny_ctx();
        let mut algo = Dummy::new();
        let net = crate::network::NetworkModel { bandwidth_bps: 10.0, latency_s: 1.0 };
        let report = Engine::run(
            &mut algo,
            &ctx,
            RunOptions::new().async_rounds(AsyncConfig::new(3).network(net)),
        )
        .unwrap();
        // Each completion arrives at t_down + t_up after dispatch:
        // (1 + 10/10) + (1 + 5/10) = 3.5 s; four cycles each wait for
        // their own wave's last arrival, so the clock walks forward.
        let t = report.sim_time_s.unwrap();
        assert!(t > 0.0, "network transfers must advance the virtual clock, got {t}");
    }

    #[test]
    fn thread_pool_init_is_idempotent() {
        let a = init_thread_pool();
        let b = init_thread_pool();
        assert_eq!(a, b);
        assert!(a >= 1);
        assert_eq!(a, rayon::current_num_threads());
    }

    #[test]
    fn context_exposes_partition_stats() {
        let ctx = tiny_ctx();
        assert_eq!(ctx.n_shards(), 6);
        assert_eq!(ctx.total_train_samples(), 120);
        assert!(ctx.heterogeneity > 0.0);
        assert_eq!(ctx.classes(), 10);
    }

    #[test]
    fn socket_transport_matches_in_process_bit_for_bit() {
        let ctx = tiny_ctx();
        let mut a = Dummy::new();
        let inproc = Engine::run(&mut a, &ctx, RunOptions::new().seed(11)).unwrap();
        let mut b = Dummy::new();
        let socket = Engine::run(
            &mut b,
            &ctx,
            RunOptions::new().seed(11).socket_transport(SocketConfig::threads(2)),
        )
        .unwrap();
        // Same seed, faults off: enacting the plan over real sockets
        // must not perturb a single recorded byte or sampled client.
        assert_eq!(inproc.history.to_json(), socket.history.to_json());
        assert!(inproc.transport.is_none());
        let stats = socket.transport.expect("socket run reports wire stats");
        assert_eq!(stats.rounds, ctx.cfg.rounds);
        // The wire counters are fed from actual framed bytes — with
        // faults off they must land exactly on the simulated accounting.
        let down: u64 = socket.history.records.iter().map(|r| r.down_bytes).sum();
        let up: u64 = socket.history.records.iter().map(|r| r.up_bytes).sum();
        assert_eq!(stats.payload_down_bytes, down);
        assert_eq!(stats.payload_up_bytes, up);
        assert_eq!(stats.payload_wasted_bytes, 0);
        assert!(stats.wire_bytes > stats.payload_total(), "framing overhead is real bytes");
    }

    #[test]
    fn async_rounds_over_sockets_are_refused() {
        let ctx = tiny_ctx();
        let mut algo = Dummy::new();
        let err = Engine::run(
            &mut algo,
            &ctx,
            RunOptions::new()
                .async_rounds(AsyncConfig::new(3))
                .socket_transport(SocketConfig::threads(1)),
        )
        .unwrap_err();
        match err {
            EngineError::Transport(TransportError::Config { reason }) => {
                assert!(reason.contains("asynchronous"), "unhelpful refusal: {reason}");
            }
            other => panic!("expected a typed transport-config refusal, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_config_floats_are_refused_before_any_round_runs() {
        let task = SynthTask::new(SynthConfig::mnist_like(0));
        let train = task.generate(120, 0);
        let test = task.generate(40, 1);
        // An infinite lr sails past the NaN/positivity checks in
        // FlConfig::validate, but the vendored JSON writer would
        // serialize it as null — colliding run fingerprints — so the
        // engine must refuse it before any round runs.
        let cfg = FlConfig {
            n_clients: 6,
            sample_ratio: 0.5,
            rounds: 4,
            min_per_client: 2,
            lr: f32::INFINITY,
            ..Default::default()
        };
        let ctx = FlContext::new(cfg, &train, test);
        let mut algo = Dummy::new();
        let err = Engine::run(&mut algo, &ctx, RunOptions::new()).unwrap_err();
        match err {
            EngineError::Fingerprint(CheckpointError::NonFinite { field, .. }) => {
                assert_eq!(field, "lr");
            }
            other => panic!("expected a fingerprint refusal, got {other:?}"),
        }
        assert_eq!(algo.evals, 0, "no round may run under an unidentifiable config");
    }
}
