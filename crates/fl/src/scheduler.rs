//! Discrete-event asynchronous round scheduler (FedBuff-style).
//!
//! The synchronous engine trains a cohort and fuses it in the same
//! round. Real federations do not work that way: clients finish at
//! wildly different times, and a server that waits for the slowest
//! straggler burns wall-clock for nothing. The buffered-asynchronous
//! design (Nguyen et al., FedBuff) lets the server aggregate as soon
//! as a *buffer* of updates has arrived, weighting each update down by
//! its staleness — the number of aggregation cycles that elapsed since
//! the contributing client last saw the global model.
//!
//! This module is the simulation core of that design:
//!
//! * **Events, not threads.** Each client completion becomes a
//!   [`PendingEvent`] stamped with a simulated arrival time, reusing
//!   the lifecycle draws ([`ClientOutcome::Completed`]'s straggler
//!   delay and upload attempts) and an optional [`NetworkModel`] for
//!   transfer times. A binary-exact virtual clock (`f64` bits) orders
//!   the queue deterministically.
//! * **Buffered aggregation.** [`AsyncScheduler::drain`] pops events in
//!   arrival order until [`AsyncConfig::buffer_size`] updates have been
//!   *accepted*; events whose staleness exceeds
//!   [`AsyncConfig::max_staleness`] are evicted and do not count
//!   toward the buffer.
//! * **Staleness-weighted fusion.** Each accepted update carries the
//!   weight `staleness_decay^staleness`. A fresh update (staleness 0)
//!   gets weight exactly `1.0`, which is what makes the synchronous
//!   history reproducible bit-for-bit: with `buffer_size == cohort`
//!   and no injected delay every update folds fresh, `x * 1.0` is `x`
//!   in IEEE-754, and the fold order equals the sampled order.
//!
//! The scheduler owns no model state. Algorithms hand it opaque
//! [`PreparedUpdate`]s (built by `FedAlgorithm::train_cohort`) and get
//! them back, weighted, from the engine's drain for
//! `FedAlgorithm::fuse` — the same pair a synchronous round composes
//! back to back at weight `1.0`. Client-store commits ride along in
//! [`PreparedUpdate::commit`] and are applied by `fuse`, so an update
//! evicted for staleness (or discarded by a quorum abort) leaves no
//! trace, exactly like a synchronous round that never aggregated.

use crate::client_store::ClientBlob;
use crate::config::ConfigError;
use crate::context::FlContext;
use crate::engine::EngineError;
use crate::lifecycle::{ClientOutcome, ClientPlan, RoundPlan};
use crate::network::{NetworkModel, NetworkProfiles};
use crate::state::TensorBlob;
use kemf_nn::codec::{fnv1a64, Writer};
use kemf_nn::serialize::ModelState;

/// How [`crate::engine::Engine::run`] advances rounds.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum RoundMode {
    /// Classic synchronous rounds: sample, train, fuse, repeat. The
    /// default, and byte-identical to every run recorded before this
    /// mode existed.
    #[default]
    Sync,
    /// Buffered-asynchronous rounds: client completions arrive at
    /// simulated timestamps and the server fuses a staleness-weighted
    /// buffer per cycle.
    Async(AsyncConfig),
}

/// Knobs of the buffered-asynchronous mode.
#[derive(Clone, Debug, PartialEq)]
pub struct AsyncConfig {
    /// Updates the server accepts before fusing (the FedBuff `K`).
    /// Must be in `1..=sampled_per_round`; at the upper bound with no
    /// injected delay, async reproduces sync bit-for-bit.
    pub buffer_size: usize,
    /// Oldest staleness (in aggregation cycles) the server still
    /// accepts; anything older is evicted unfused. `0` accepts only
    /// same-cycle updates.
    pub max_staleness: usize,
    /// Per-cycle decay of an update's fusion weight:
    /// `weight = staleness_decay^staleness`. Must be in `(0, 1]`;
    /// `1.0` disables down-weighting.
    pub staleness_decay: f32,
    /// Optional link model for transfer times. `None` prices transfers
    /// at zero seconds — arrival order is then driven purely by the
    /// lifecycle's injected straggler delays.
    pub network: Option<NetworkModel>,
    /// Optional per-client heterogeneous links, assigned round-robin by
    /// client index. Takes precedence over [`AsyncConfig::network`] when
    /// set; a uniform single-entry profile reproduces the fleet-wide
    /// model bit-for-bit.
    pub profiles: Option<NetworkProfiles>,
    /// Arrival-rate trigger: fuse after this many simulated seconds
    /// have passed since the drain began, even if fewer than
    /// [`AsyncConfig::buffer_size`] updates arrived by then. At least
    /// one update always folds (the server never fuses nothing), and
    /// zero-delay arrivals land inside any positive window — so the
    /// synchronous-equivalence anchor is untouched. `None` (the
    /// default) waits for a full buffer, exactly as before.
    pub aggregate_after_s: Option<f64>,
}

impl AsyncConfig {
    /// A conservative default: half-cohort buffer, staleness capped at
    /// 4 cycles with a gentle 0.6 decay, no network model.
    pub fn new(buffer_size: usize) -> Self {
        AsyncConfig {
            buffer_size,
            max_staleness: 4,
            staleness_decay: 0.6,
            network: None,
            profiles: None,
            aggregate_after_s: None,
        }
    }

    /// Fluent setter for [`AsyncConfig::max_staleness`].
    pub fn max_staleness(mut self, cycles: usize) -> Self {
        self.max_staleness = cycles;
        self
    }

    /// Fluent setter for [`AsyncConfig::staleness_decay`].
    pub fn staleness_decay(mut self, decay: f32) -> Self {
        self.staleness_decay = decay;
        self
    }

    /// Fluent setter for [`AsyncConfig::network`].
    pub fn network(mut self, net: NetworkModel) -> Self {
        self.network = Some(net);
        self
    }

    /// Fluent setter for [`AsyncConfig::profiles`].
    pub fn profiles(mut self, profiles: NetworkProfiles) -> Self {
        self.profiles = Some(profiles);
        self
    }

    /// Fluent setter for [`AsyncConfig::aggregate_after_s`].
    pub fn aggregate_after(mut self, secs: f64) -> Self {
        self.aggregate_after_s = Some(secs);
        self
    }

    /// Validate against the run's cohort size.
    pub fn validate(&self, sampled_per_round: usize) -> Result<(), ConfigError> {
        if self.buffer_size == 0 {
            return Err(ConfigError::ZeroCount { field: "async.buffer_size" });
        }
        if self.buffer_size > sampled_per_round {
            return Err(ConfigError::OutOfRange {
                field: "async.buffer_size",
                value: self.buffer_size as f64,
                bounds: "1 ..= sampled_per_round (one wave cannot overfill the buffer)",
            });
        }
        if !(self.staleness_decay > 0.0 && self.staleness_decay <= 1.0) {
            return Err(ConfigError::OutOfRange {
                field: "async.staleness_decay",
                value: self.staleness_decay as f64,
                bounds: "(0, 1]",
            });
        }
        if let Some(net) = &self.network {
            if !(net.bandwidth_bps.is_finite() && net.bandwidth_bps > 0.0) {
                return Err(ConfigError::OutOfRange {
                    field: "async.network.bandwidth_bps",
                    value: net.bandwidth_bps,
                    bounds: "(0, inf)",
                });
            }
            if !(net.latency_s.is_finite() && net.latency_s >= 0.0) {
                return Err(ConfigError::OutOfRange {
                    field: "async.network.latency_s",
                    value: net.latency_s,
                    bounds: "[0, inf)",
                });
            }
        }
        if let Some(p) = &self.profiles {
            p.validate()?;
        }
        if let Some(t) = self.aggregate_after_s {
            if !(t.is_finite() && t > 0.0) {
                return Err(ConfigError::OutOfRange {
                    field: "async.aggregate_after_s",
                    value: t,
                    bounds: "(0, inf)",
                });
            }
        }
        Ok(())
    }

    /// Fusion weight of an update `staleness` cycles old. `powi(0)` is
    /// exactly `1.0`, so fresh updates fold at full weight bit-for-bit.
    pub fn staleness_weight(&self, staleness: usize) -> f32 {
        self.staleness_decay.powi(staleness.min(i32::MAX as usize) as i32)
    }

    /// Fold the async knobs into a run fingerprint so a checkpoint
    /// written in one mode (or with different async knobs) refuses to
    /// resume in another. Synchronous fingerprints are untouched — the
    /// tag below guarantees async never collides with sync.
    pub(crate) fn mix_fingerprint(&self, base: u64) -> u64 {
        let mut knobs = Writer::new();
        knobs.usize(self.buffer_size);
        knobs.usize(self.max_staleness);
        knobs.f32(self.staleness_decay);
        match &self.network {
            None => knobs.u8(0),
            Some(net) => {
                knobs.u8(1);
                knobs.f64(net.bandwidth_bps);
                knobs.f64(net.latency_s);
            }
        }
        // Later knobs append tagged bytes only when set, so fingerprints
        // of runs that never use them are unchanged from earlier builds
        // (their checkpoints stay resumable).
        if let Some(p) = &self.profiles {
            knobs.u8(2);
            knobs.usize(p.models.len());
            for m in &p.models {
                knobs.f64(m.bandwidth_bps);
                knobs.f64(m.latency_s);
            }
        }
        if let Some(t) = self.aggregate_after_s {
            knobs.u8(3);
            knobs.f64(t);
        }
        // "ASYN C!uu" domain tag
        fnv1a64(base ^ 0x4153_594e_4321_7575, knobs.as_bytes())
    }
}

/// The model-bearing part of one client's update, algorithm-defined.
///
/// Each algorithm picks the variant that matches what its synchronous
/// fold consumes: weight-averaging algorithms ship a [`ModelState`]
/// (FedNova ships its *delta* plus raw buffers in the same shape),
/// SCAFFOLD adds its control-variate delta as a flat aux vector, and
/// FedMD ships public-set logits.
#[derive(Clone, Debug, PartialEq)]
pub enum UpdatePayload {
    /// No tensor payload (test probes, byte-accounting-only runs).
    Empty,
    /// A full model state (or, for FedNova, the normalized delta in
    /// `params` next to the raw client `buffers`).
    State(ModelState),
    /// A model state plus a flat auxiliary vector (SCAFFOLD's
    /// control-variate delta).
    StateAux {
        /// The trained client model.
        state: ModelState,
        /// Flat auxiliary values, algorithm-defined.
        aux: Vec<f32>,
    },
    /// Dimension-tagged logits over a public pool (FedMD, FedGEMS).
    Logits(TensorBlob),
    /// A rolling sub-model window (FedRolex): the trained window state
    /// tagged with the window offset it was extracted at, so the fuse
    /// step can scatter it back into the right server slice however
    /// stale it folds.
    Window {
        /// Window offset within the rolling cycle at dispatch time.
        offset: usize,
        /// The trained sub-model state.
        state: ModelState,
    },
}

impl UpdatePayload {
    /// The typed setup error `fuse` reports for an update of the wrong
    /// kind (a probe's payload, a checkpoint resumed under another
    /// algorithm) instead of panicking.
    fn foreign(algorithm: &str, client: usize, want: &str) -> EngineError {
        EngineError::Config(ConfigError::AlgorithmSetup {
            algorithm: algorithm.into(),
            reason: format!("client {client}: expected a {want} update payload"),
        })
    }

    /// Unwrap a [`State`](Self::State) payload.
    pub fn into_state(self, algorithm: &str, client: usize) -> Result<ModelState, EngineError> {
        match self {
            UpdatePayload::State(state) => Ok(state),
            _ => Err(Self::foreign(algorithm, client, "model-state")),
        }
    }

    /// Unwrap a [`StateAux`](Self::StateAux) payload.
    pub fn into_state_aux(
        self,
        algorithm: &str,
        client: usize,
    ) -> Result<(ModelState, Vec<f32>), EngineError> {
        match self {
            UpdatePayload::StateAux { state, aux } => Ok((state, aux)),
            _ => Err(Self::foreign(algorithm, client, "state+aux")),
        }
    }

    /// Unwrap a [`Logits`](Self::Logits) payload.
    pub fn into_logits(self, algorithm: &str, client: usize) -> Result<TensorBlob, EngineError> {
        match self {
            UpdatePayload::Logits(blob) => Ok(blob),
            _ => Err(Self::foreign(algorithm, client, "logit")),
        }
    }

    /// Unwrap a [`Window`](Self::Window) payload into `(offset, state)`.
    pub fn into_window(
        self,
        algorithm: &str,
        client: usize,
    ) -> Result<(usize, ModelState), EngineError> {
        match self {
            UpdatePayload::Window { offset, state } => Ok((offset, state)),
            _ => Err(Self::foreign(algorithm, client, "window")),
        }
    }
}

/// One client's finished local work, frozen at dispatch time and fused
/// later — possibly cycles later — at a staleness-dependent weight.
#[derive(Clone, Debug, PartialEq)]
pub struct PreparedUpdate {
    /// Population index of the contributing client.
    pub client: usize,
    /// Local sample count (the FedAvg-family fold coefficient).
    pub n_samples: usize,
    /// Local optimizer steps taken (FedNova's `tau`).
    pub steps: usize,
    /// Mean local training loss (reported, not fused).
    pub loss: f32,
    /// The tensors the server fuses.
    pub payload: UpdatePayload,
    /// Deferred per-client store commit, applied by `fuse` only if this
    /// update actually folds in. An evicted or quorum-discarded update
    /// must leave no store trace, exactly like a synchronous round that
    /// never aggregated.
    pub commit: Option<ClientBlob>,
}

impl PreparedUpdate {
    /// Client `k`'s update after `steps` local steps at mean `loss`:
    /// weighted by its shard size, nothing to commit.
    pub fn new(k: usize, ctx: &FlContext, steps: usize, loss: f32, payload: UpdatePayload) -> Self {
        let n_samples = ctx.client_shard_len(k);
        PreparedUpdate { client: k, n_samples, steps, loss, payload, commit: None }
    }

    /// Attach the deferred client-store commit.
    pub fn with_commit(mut self, blob: ClientBlob) -> Self {
        self.commit = Some(blob);
        self
    }
}

/// A dispatched update waiting in the arrival queue.
#[derive(Clone, Debug, PartialEq)]
pub struct PendingEvent {
    /// Arrival time in seconds, stored as raw `f64` bits so ordering,
    /// checkpointing, and resume are binary-exact. Arrival times are
    /// non-negative, so bit order equals numeric order.
    pub time_bits: u64,
    /// Aggregation cycle whose global model this client trained
    /// against; `cycle - wave` is the update's staleness at fold time.
    pub wave: usize,
    /// Position within the wave's sampled order — the tie-breaker that
    /// pins the fold order to the sampled order when arrival times are
    /// equal (the synchronous-equivalence case).
    pub idx: usize,
    /// Uplink bytes this client's completed upload cost, frozen from its
    /// [`ClientPlan`] at dispatch time; billed in the cycle whose drain
    /// consumes (or evicts) the event.
    pub up_bytes: u64,
    /// The frozen update itself.
    pub update: PreparedUpdate,
}

impl PendingEvent {
    /// Arrival time in seconds.
    pub fn arrival_s(&self) -> f64 {
        f64::from_bits(self.time_bits)
    }
}

/// What one [`AsyncScheduler::drain`] produced.
#[derive(Clone, Debug, PartialEq)]
pub struct DrainOutcome {
    /// Accepted updates in fold order, each with its staleness weight.
    pub folded: Vec<(PreparedUpdate, f32)>,
    /// How many accepted updates were stale (staleness ≥ 1).
    pub stale: u64,
    /// How many updates were evicted for exceeding `max_staleness`.
    pub evicted: u64,
    /// Uplink bytes of the accepted updates, summed per event in `u128`
    /// so heterogeneous payloads bill exactly and the sum cannot wrap.
    pub folded_up_bytes: u128,
    /// Uplink bytes of the evicted updates (wasted traffic).
    pub evicted_up_bytes: u128,
}

/// Serializable scheduler snapshot for checkpoint/resume. The fusion
/// buffer is transient within a cycle — only the virtual clock and the
/// in-flight queue survive a crash.
#[derive(Clone, Debug, PartialEq)]
pub struct SchedulerState {
    /// Virtual clock, raw `f64` bits.
    pub now_bits: u64,
    /// In-flight events in queue order.
    pub events: Vec<PendingEvent>,
}

/// The discrete-event queue driving buffered-asynchronous rounds.
#[derive(Clone, Debug)]
pub struct AsyncScheduler {
    cfg: AsyncConfig,
    /// Virtual clock in seconds; advances to each popped event's
    /// arrival time, never backwards.
    now: f64,
    /// Pending events, kept sorted by `(time_bits, wave, idx)`.
    queue: Vec<PendingEvent>,
}

impl AsyncScheduler {
    /// A fresh scheduler at virtual time zero.
    pub fn new(cfg: AsyncConfig) -> Self {
        AsyncScheduler { cfg, now: 0.0, queue: Vec::new() }
    }

    /// The async knobs this scheduler runs under.
    pub fn config(&self) -> &AsyncConfig {
        &self.cfg
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of in-flight events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Enqueue one wave's completions. `plans` aligns one-to-one with
    /// `plan.clients` (the per-client payloads of the wave), and
    /// `updates` holds the prepared updates of the plan's *reporters*,
    /// in sampled order — exactly what `FedAlgorithm::train_cohort`
    /// returns for `plan.reporters()`. Each completion arrives at
    ///
    /// ```text
    /// now + t_down + delay_s + attempts * t_up
    /// ```
    ///
    /// with transfer times priced at that client's own payload,
    /// mirroring [`NetworkModel::lifecycle_round_time`]'s `Completed`
    /// arm; with no network model both transfer times are zero and
    /// arrival order is driven by the injected straggler delays alone.
    pub fn dispatch(
        &mut self,
        wave: usize,
        plan: &RoundPlan,
        plans: &[ClientPlan],
        updates: Vec<PreparedUpdate>,
    ) {
        debug_assert_eq!(plans.len(), plan.clients.len(), "plans must align with the wave");
        let mut it = updates.into_iter();
        let mut idx = 0usize;
        for (c, cp) in plan.clients.iter().zip(plans) {
            if let ClientOutcome::Completed { attempts, delay_s } = c.outcome {
                let Some(update) = it.next() else { break };
                debug_assert_eq!(update.client, c.client, "updates must follow sampled order");
                let payload = cp.payload;
                // Per-client links take precedence; a uniform profile
                // runs the identical computation on the identical model,
                // so its arrival times are bit-equal to the fleet-wide
                // path.
                let (t_down, t_up) = match &self.cfg.profiles {
                    Some(p) => {
                        let m = p.model_for(c.client);
                        (m.transfer_time(payload.down_bytes), m.transfer_time(payload.up_bytes))
                    }
                    None => match &self.cfg.network {
                        Some(net) => (
                            net.transfer_time(payload.down_bytes),
                            net.transfer_time(payload.up_bytes),
                        ),
                        None => (0.0, 0.0),
                    },
                };
                let arrive = self.now + t_down + delay_s + attempts as f64 * t_up;
                self.queue.push(PendingEvent {
                    time_bits: arrive.to_bits(),
                    wave,
                    idx,
                    up_bytes: payload.up_bytes,
                    update,
                });
                idx += 1;
            }
        }
        debug_assert!(it.next().is_none(), "more updates than completed reporters");
        // Stable sort on the full key keeps dispatch idempotent and the
        // pop order independent of insertion history.
        self.queue.sort_by_key(|e| (e.time_bits, e.wave, e.idx));
    }

    /// Pop events in arrival order until `buffer_size` updates are
    /// accepted or the queue runs dry. The virtual clock advances to
    /// each popped event's arrival time (monotonically — a same-time
    /// tie cannot move it backwards). Events whose staleness at this
    /// cycle exceeds `max_staleness` are evicted and do *not* count
    /// toward the buffer; accepted updates carry
    /// `staleness_decay^staleness` as their fusion weight.
    /// The arrival-rate trigger ([`AsyncConfig::aggregate_after_s`])
    /// additionally closes the buffer early: once at least one update
    /// has been accepted, the drain stops when the next arrival lands
    /// past `drain start + aggregate_after_s`. Eviction-only pops keep
    /// the buffer empty and never trip the trigger (the server never
    /// fuses nothing), and zero-delay arrivals never exceed a positive
    /// window — the synchronous-equivalence anchor is preserved.
    pub fn drain(&mut self, cycle: usize) -> DrainOutcome {
        let mut out = DrainOutcome {
            folded: Vec::new(),
            stale: 0,
            evicted: 0,
            folded_up_bytes: 0,
            evicted_up_bytes: 0,
        };
        let deadline = self.cfg.aggregate_after_s.map(|t| self.now + t);
        while out.folded.len() < self.cfg.buffer_size && !self.queue.is_empty() {
            if let Some(dl) = deadline {
                if !out.folded.is_empty() && self.queue[0].arrival_s() > dl {
                    break;
                }
            }
            let ev = self.queue.remove(0);
            let t = ev.arrival_s();
            if t > self.now {
                self.now = t;
            }
            debug_assert!(ev.wave <= cycle, "an event cannot arrive before its wave");
            let staleness = cycle.saturating_sub(ev.wave);
            // u128 accumulation of u64 addends cannot wrap within any
            // drainable queue; the engine converts back to u64 with a
            // typed error.
            if staleness > self.cfg.max_staleness {
                out.evicted += 1;
                out.evicted_up_bytes += ev.up_bytes as u128;
                continue;
            }
            if staleness > 0 {
                out.stale += 1;
            }
            out.folded_up_bytes += ev.up_bytes as u128;
            out.folded.push((ev.update, self.cfg.staleness_weight(staleness)));
        }
        out
    }

    /// Snapshot for checkpointing; binary-exact round trip with
    /// [`AsyncScheduler::restore`].
    pub fn state(&self) -> SchedulerState {
        SchedulerState { now_bits: self.now.to_bits(), events: self.queue.clone() }
    }

    /// Restore a snapshot taken by [`AsyncScheduler::state`].
    pub fn restore(&mut self, state: SchedulerState) {
        self.now = f64::from_bits(state.now_bits);
        self.queue = state.events;
        self.queue.sort_by_key(|e| (e.time_bits, e.wave, e.idx));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::{ClientRound, ModelView, WirePayload};

    fn uniform(plan: &RoundPlan, payload: WirePayload) -> Vec<ClientPlan> {
        let ids: Vec<usize> = plan.clients.iter().map(|c| c.client).collect();
        ClientPlan::uniform(&ids, ModelView::Full, payload)
    }

    fn probe_update(client: usize) -> PreparedUpdate {
        PreparedUpdate {
            client,
            n_samples: 10,
            steps: 5,
            loss: 1.0,
            payload: UpdatePayload::Empty,
            commit: None,
        }
    }

    fn completed(client: usize, delay_s: f64) -> ClientRound {
        ClientRound { client, outcome: ClientOutcome::Completed { attempts: 1, delay_s } }
    }

    fn plan_of(clients: Vec<ClientRound>) -> RoundPlan {
        RoundPlan { clients, min_quorum: 1 }
    }

    #[test]
    fn validate_rejects_bad_knobs() {
        assert!(matches!(
            AsyncConfig::new(0).validate(4),
            Err(ConfigError::ZeroCount { field: "async.buffer_size" })
        ));
        assert!(matches!(
            AsyncConfig::new(5).validate(4),
            Err(ConfigError::OutOfRange { field: "async.buffer_size", .. })
        ));
        assert!(matches!(
            AsyncConfig::new(2).staleness_decay(0.0).validate(4),
            Err(ConfigError::OutOfRange { field: "async.staleness_decay", .. })
        ));
        assert!(matches!(
            AsyncConfig::new(2).staleness_decay(1.5).validate(4),
            Err(ConfigError::OutOfRange { field: "async.staleness_decay", .. })
        ));
        let bad_net = NetworkModel { bandwidth_bps: 0.0, latency_s: 0.0 };
        assert!(AsyncConfig::new(2).network(bad_net).validate(4).is_err());
        assert!(AsyncConfig::new(4).network(NetworkModel::broadband()).validate(4).is_ok());
    }

    #[test]
    fn fresh_updates_fold_at_weight_exactly_one() {
        let cfg = AsyncConfig::new(2).staleness_decay(0.37);
        assert_eq!(cfg.staleness_weight(0).to_bits(), 1.0f32.to_bits());
        assert!(cfg.staleness_weight(1) < cfg.staleness_weight(0));
        assert!(cfg.staleness_weight(2) < cfg.staleness_weight(1));
    }

    #[test]
    fn drain_pops_in_arrival_order_with_sampled_order_ties() {
        let mut s = AsyncScheduler::new(AsyncConfig::new(4).max_staleness(8));
        // Client 2 is slow; clients 0 and 1 tie at zero delay and must
        // fold in sampled order.
        let plan = plan_of(vec![completed(0, 0.0), completed(1, 0.0), completed(2, 7.5)]);
        s.dispatch(0, &plan, &uniform(&plan, WirePayload::symmetric(100)),vec![
            probe_update(0),
            probe_update(1),
            probe_update(2),
        ]);
        let d = s.drain(0);
        let order: Vec<usize> = d.folded.iter().map(|(u, _)| u.client).collect();
        assert_eq!(order, vec![0, 1, 2]);
        assert_eq!(d.stale, 0);
        assert_eq!(d.evicted, 0);
        assert!((s.now() - 7.5).abs() < 1e-12, "clock follows the slowest pop");
    }

    #[test]
    fn network_model_spreads_arrivals_by_transfer_time() {
        let net = NetworkModel { bandwidth_bps: 100.0, latency_s: 0.0 };
        let mut s = AsyncScheduler::new(AsyncConfig::new(1).max_staleness(8).network(net));
        // 100-byte payload each way → 1 s down + 1 s per upload attempt.
        let plan = plan_of(vec![
            ClientRound { client: 0, outcome: ClientOutcome::Completed { attempts: 2, delay_s: 0.5 } },
        ]);
        s.dispatch(0, &plan, &uniform(&plan, WirePayload::symmetric(100)),vec![probe_update(0)]);
        assert_eq!(s.pending(), 1);
        let d = s.drain(0);
        assert_eq!(d.folded.len(), 1);
        // 1 s down + 0.5 s delay + 2 × 1 s upload = 3.5 s.
        assert!((s.now() - 3.5).abs() < 1e-12, "got {}", s.now());
    }

    #[test]
    fn buffer_size_caps_accepted_updates_per_drain() {
        let mut s = AsyncScheduler::new(AsyncConfig::new(2).max_staleness(8));
        let plan = plan_of(vec![completed(0, 0.0), completed(1, 1.0), completed(2, 2.0)]);
        s.dispatch(0, &plan, &uniform(&plan, WirePayload::symmetric(10)),vec![
            probe_update(0),
            probe_update(1),
            probe_update(2),
        ]);
        let first = s.drain(0);
        assert_eq!(first.folded.len(), 2);
        assert_eq!(s.pending(), 1);
        let second = s.drain(1);
        assert_eq!(second.folded.len(), 1);
        assert_eq!(second.stale, 1, "the leftover update folds one cycle stale");
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn updates_beyond_max_staleness_are_evicted_without_filling_the_buffer() {
        let mut s = AsyncScheduler::new(AsyncConfig::new(2).max_staleness(0));
        let plan = plan_of(vec![completed(0, 0.0), completed(1, 0.0)]);
        s.dispatch(0, &plan, &uniform(&plan, WirePayload::symmetric(10)),vec![probe_update(0), probe_update(1)]);
        // Drain two cycles later: both events are staleness 2 > 0.
        let d = s.drain(2);
        assert!(d.folded.is_empty());
        assert_eq!(d.evicted, 2);
        assert_eq!(s.pending(), 0, "evicted events leave the queue");
    }

    #[test]
    fn stale_updates_fold_at_decayed_weight() {
        let cfg = AsyncConfig::new(1).max_staleness(4).staleness_decay(0.5);
        let mut s = AsyncScheduler::new(cfg.clone());
        let plan = plan_of(vec![completed(3, 0.0)]);
        s.dispatch(1, &plan, &uniform(&plan, WirePayload::symmetric(10)),vec![probe_update(3)]);
        let d = s.drain(3);
        assert_eq!(d.folded.len(), 1);
        let (_, w) = &d.folded[0];
        assert_eq!(w.to_bits(), cfg.staleness_weight(2).to_bits());
        assert_eq!(w.to_bits(), 0.25f32.to_bits());
    }

    #[test]
    fn drain_sums_each_event_at_its_own_uplink_bytes() {
        // Three clients with different window payloads: accepted and
        // evicted events bill their own bytes, not payload × n.
        let mut s = AsyncScheduler::new(AsyncConfig::new(3).max_staleness(0));
        let plan = plan_of(vec![completed(0, 0.0), completed(1, 0.0), completed(2, 0.0)]);
        let plans: Vec<ClientPlan> = [(0usize, 100u64), (1, 70), (2, 30)]
            .iter()
            .map(|&(client, b)| ClientPlan {
                client,
                view: ModelView::Window { offset: client, cycle: 3 },
                payload: WirePayload::symmetric(b),
            })
            .collect();
        s.dispatch(0, &plan, &plans, vec![probe_update(0), probe_update(1), probe_update(2)]);
        let d = s.drain(0);
        assert_eq!(d.folded.len(), 3);
        assert_eq!(d.folded_up_bytes, 200);
        assert_eq!(d.evicted_up_bytes, 0);
        // Same dispatch drained one cycle late: everything evicts at its
        // own bytes (max_staleness 0).
        let mut late = AsyncScheduler::new(AsyncConfig::new(3).max_staleness(0));
        late.dispatch(0, &plan, &plans, vec![probe_update(0), probe_update(1), probe_update(2)]);
        let d = late.drain(1);
        assert!(d.folded.is_empty());
        assert_eq!(d.evicted_up_bytes, 200);
        assert_eq!(d.folded_up_bytes, 0);
    }

    #[test]
    fn state_restore_round_trips_binary_exact() {
        let mut s = AsyncScheduler::new(AsyncConfig::new(1).max_staleness(8));
        let plan = plan_of(vec![completed(0, 0.125), completed(1, 3.875)]);
        s.dispatch(0, &plan, &uniform(&plan, WirePayload::symmetric(10)),vec![probe_update(0), probe_update(1)]);
        let _ = s.drain(0); // advance the clock, leave one event in flight
        let snap = s.state();
        let mut r = AsyncScheduler::new(AsyncConfig::new(1).max_staleness(8));
        r.restore(snap.clone());
        assert_eq!(r.state(), snap);
        assert_eq!(r.now().to_bits(), s.now().to_bits());
        // The survivor drains identically from both schedulers.
        assert_eq!(r.drain(1), s.drain(1));
    }

    #[test]
    fn fingerprint_mixing_separates_modes_and_knobs() {
        let base = 0x1234_5678_9abc_def0u64;
        let a = AsyncConfig::new(2);
        assert_ne!(a.mix_fingerprint(base), base, "async must not collide with sync");
        assert_ne!(a.mix_fingerprint(base), AsyncConfig::new(3).mix_fingerprint(base));
        assert_ne!(
            a.mix_fingerprint(base),
            AsyncConfig::new(2).max_staleness(9).mix_fingerprint(base)
        );
        assert_ne!(
            a.mix_fingerprint(base),
            AsyncConfig::new(2).network(NetworkModel::iot()).mix_fingerprint(base)
        );
        assert_ne!(
            a.mix_fingerprint(base),
            AsyncConfig::new(2).profiles(NetworkProfiles::wifi_4g_3g()).mix_fingerprint(base),
            "per-client profiles are resume identity"
        );
        assert_ne!(
            a.mix_fingerprint(base),
            AsyncConfig::new(2).aggregate_after(5.0).mix_fingerprint(base),
            "the arrival-rate trigger is resume identity"
        );
        assert_ne!(
            AsyncConfig::new(2).aggregate_after(5.0).mix_fingerprint(base),
            AsyncConfig::new(2).aggregate_after(6.0).mix_fingerprint(base),
        );
    }

    #[test]
    fn validate_rejects_bad_trigger_and_profiles() {
        assert!(matches!(
            AsyncConfig::new(2).aggregate_after(0.0).validate(4),
            Err(ConfigError::OutOfRange { field: "async.aggregate_after_s", .. })
        ));
        assert!(AsyncConfig::new(2).aggregate_after(f64::NAN).validate(4).is_err());
        assert!(AsyncConfig::new(2).aggregate_after(-1.0).validate(4).is_err());
        assert!(AsyncConfig::new(2).aggregate_after(3.5).validate(4).is_ok());
        assert!(AsyncConfig::new(2)
            .profiles(NetworkProfiles::cycle(vec![]))
            .validate(4)
            .is_err());
        assert!(AsyncConfig::new(2).profiles(NetworkProfiles::wifi_4g_3g()).validate(4).is_ok());
    }

    #[test]
    fn uniform_profiles_dispatch_bit_identically_to_the_fleet_model() {
        let net = NetworkModel { bandwidth_bps: 100.0, latency_s: 0.03 };
        let plan = plan_of(vec![completed(0, 0.5), completed(3, 1.5), completed(7, 0.0)]);
        let updates = || vec![probe_update(0), probe_update(3), probe_update(7)];
        let mut fleet = AsyncScheduler::new(AsyncConfig::new(3).max_staleness(8).network(net));
        fleet.dispatch(0, &plan, &uniform(&plan, WirePayload::symmetric(100)),updates());
        let mut prof = AsyncScheduler::new(
            AsyncConfig::new(3).max_staleness(8).profiles(NetworkProfiles::uniform(net)),
        );
        prof.dispatch(0, &plan, &uniform(&plan, WirePayload::symmetric(100)),updates());
        assert_eq!(fleet.state(), prof.state(), "uniform profiles must be bit-identical");
    }

    #[test]
    fn heterogeneous_profiles_reorder_arrivals_by_link_speed() {
        // Client 2 lands on the 3G link of the wifi/4g/3g cycle: despite
        // equal injected delays it arrives last.
        let profiles = NetworkProfiles::wifi_4g_3g();
        let mut s = AsyncScheduler::new(AsyncConfig::new(3).max_staleness(8).profiles(profiles));
        let plan = plan_of(vec![completed(2, 0.0), completed(0, 0.0), completed(1, 0.0)]);
        s.dispatch(0, &plan, &uniform(&plan, WirePayload::symmetric(512 * 1024)),vec![
            probe_update(2),
            probe_update(0),
            probe_update(1),
        ]);
        let d = s.drain(0);
        let order: Vec<usize> = d.folded.iter().map(|(u, _)| u.client).collect();
        assert_eq!(order, vec![0, 1, 2], "broadband < 4g < 3g arrival order");
    }

    #[test]
    fn arrival_rate_trigger_closes_a_short_buffer() {
        // Buffer wants 3, but the second arrival is 10 s out and the
        // window is 2 s: the drain folds the first update alone.
        let mut s = AsyncScheduler::new(AsyncConfig::new(3).max_staleness(8).aggregate_after(2.0));
        let plan = plan_of(vec![completed(0, 0.5), completed(1, 10.0), completed(2, 11.0)]);
        s.dispatch(0, &plan, &uniform(&plan, WirePayload::symmetric(10)),vec![
            probe_update(0),
            probe_update(1),
            probe_update(2),
        ]);
        let d = s.drain(0);
        assert_eq!(d.folded.len(), 1, "the window closed after the first arrival");
        assert_eq!(s.pending(), 2);
        // Next cycle: the window re-anchors at the advanced clock
        // (0.5 s → deadline 2.5 s). The 10 s arrival folds because at
        // least one update always does; the 11 s one is past the window.
        let d2 = s.drain(1);
        assert_eq!(d2.folded.len(), 1);
        assert_eq!(d2.stale, 1);
        // Third cycle: clock at 10 s, window to 12 s covers the 11 s
        // arrival.
        let d3 = s.drain(2);
        assert_eq!(d3.folded.len(), 1);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn arrival_rate_trigger_never_fuses_an_empty_buffer() {
        // The first arrival is far beyond the window; the trigger must
        // not close the buffer before at least one update folds.
        let mut s = AsyncScheduler::new(AsyncConfig::new(2).max_staleness(8).aggregate_after(1.0));
        let plan = plan_of(vec![completed(0, 50.0), completed(1, 60.0)]);
        s.dispatch(0, &plan, &uniform(&plan, WirePayload::symmetric(10)),vec![probe_update(0), probe_update(1)]);
        let d = s.drain(0);
        assert_eq!(d.folded.len(), 1, "the first update always folds");
        assert_eq!(d.folded[0].0.client, 0);
    }

    #[test]
    fn zero_delay_arrivals_fill_the_buffer_despite_a_tiny_window() {
        // The sync-equivalence anchor: everything arrives at t=0, inside
        // any positive window, so the trigger never fires and the drain
        // is identical to the un-triggered one.
        let plan = plan_of(vec![completed(0, 0.0), completed(1, 0.0), completed(2, 0.0)]);
        let updates = || vec![probe_update(0), probe_update(1), probe_update(2)];
        let mut plain = AsyncScheduler::new(AsyncConfig::new(3).max_staleness(8));
        plain.dispatch(0, &plan, &uniform(&plan, WirePayload::symmetric(10)),updates());
        let mut trig =
            AsyncScheduler::new(AsyncConfig::new(3).max_staleness(8).aggregate_after(1e-9));
        trig.dispatch(0, &plan, &uniform(&plan, WirePayload::symmetric(10)),updates());
        assert_eq!(plain.drain(0), trig.drain(0));
    }
}
