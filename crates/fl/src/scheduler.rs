//! Discrete-event round scheduler (FedBuff-style), which every engine
//! round runs through.
//!
//! A synchronous round trains a cohort and fuses it in the same round.
//! Real federations do not work that way: clients finish at wildly
//! different times, and a server that waits for the slowest straggler
//! burns wall-clock for nothing. The buffered-asynchronous design
//! (Nguyen et al., FedBuff) lets the server aggregate as soon as a
//! *buffer* of updates has arrived, weighting each update down by its
//! staleness — the number of aggregation cycles that elapsed since the
//! contributing client last saw the global model. The synchronous round
//! is that design's special case: a buffer that holds the whole cohort,
//! so the engine runs both modes as one cycle over this scheduler.
//!
//! This module is the simulation core of that design:
//!
//! * **Events, not threads.** Each client completion becomes a
//!   [`PendingEvent`] stamped with a simulated arrival time, reusing
//!   the lifecycle draws ([`ClientOutcome::Completed`]'s straggler
//!   delay and upload attempts) and an optional fleet-wide
//!   [`NetworkModel`] for transfer times. A binary-exact virtual clock
//!   (`f64` bits) orders the queue deterministically.
//! * **Buffered aggregation.** [`AsyncScheduler::drain`] pops events in
//!   arrival order until [`AsyncConfig::buffer_size`] updates have been
//!   *accepted*; events whose staleness exceeds
//!   [`AsyncConfig::max_staleness`] are evicted and do not count
//!   toward the buffer. The accepted updates fold in sampled order,
//!   `(wave, idx)`: the server fuses a set, so arrival never reorders it.
//! * **Staleness-weighted fusion.** Each accepted update carries the
//!   weight `staleness_decay^staleness`. A fresh update (staleness 0)
//!   gets weight exactly `1.0`: with `buffer_size == cohort` every wave
//!   folds fresh in its own cycle, `x * 1.0` is `x` in IEEE-754, and the
//!   fold order is the sampled order whatever the straggler delays or
//!   upload retries — the synchronous round, which the engine runs as
//!   exactly that buffer.
//!
//! The scheduler owns no model state. Algorithms hand it opaque
//! [`PreparedUpdate`]s (built by `FedAlgorithm::train_cohort`) and get
//! them back, weighted, from the engine's drain for
//! `FedAlgorithm::fuse`. Client-store commits ride along in
//! [`PreparedUpdate::commit`] and are applied by `fuse`, so an update
//! evicted for staleness (or discarded by a quorum abort) leaves no
//! trace.

use crate::client_store::ClientBlob;
use crate::config::ConfigError;
use crate::context::FlContext;
use crate::engine::EngineError;
use crate::lifecycle::{ClientOutcome, ClientPlan, RoundPlan};
use crate::network::{client_finish_time, NetworkModel};
use crate::state::TensorBlob;
use kemf_nn::codec::{fnv1a64, Writer};
use kemf_nn::serialize::ModelState;

/// Knobs of the buffered-asynchronous mode.
#[derive(Clone, Debug, PartialEq)]
pub struct AsyncConfig {
    /// Updates the server accepts before fusing (the FedBuff `K`).
    /// Must be in `1..=sampled_per_round`, and no smaller than the fault
    /// model's `min_quorum` (the engine refuses a run whose cycles could
    /// never reach it); at the upper bound every wave folds in its own
    /// cycle and async reproduces sync bit-for-bit.
    pub buffer_size: usize,
    /// Oldest staleness (in aggregation cycles) the server still
    /// accepts; anything older is evicted unfused. `0` accepts only
    /// same-cycle updates.
    pub max_staleness: usize,
    /// Per-cycle decay of an update's fusion weight:
    /// `weight = staleness_decay^staleness`. Must be in `(0, 1]`;
    /// `1.0` disables down-weighting.
    pub staleness_decay: f32,
    /// Optional link for transfer times, one for the whole fleet. `None`
    /// prices transfers at zero seconds — arrival order is then driven
    /// purely by the lifecycle's injected straggler delays.
    pub network: Option<NetworkModel>,
}

impl AsyncConfig {
    /// A conservative default: half-cohort buffer, staleness capped at
    /// 4 cycles with a gentle 0.6 decay, no network model.
    pub fn new(buffer_size: usize) -> Self {
        AsyncConfig { buffer_size, max_staleness: 4, staleness_decay: 0.6, network: None }
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
            net.validate()?;
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
        // Tag 0: no link; tag 1: the link. Checkpoints already on disk
        // carry this encoding, so it must not change.
        match &self.network {
            None => knobs.u8(0),
            Some(net) => {
                knobs.u8(1);
                knobs.f64(net.bandwidth_bps);
                knobs.f64(net.latency_s);
            }
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
    /// Position within the wave's sampled order: with `wave`, the key
    /// accepted updates fold by, and the queue's tie-breaker between
    /// equal arrival times.
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
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DrainOutcome {
    /// Accepted updates in `(wave, idx)` order, with staleness weights.
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
    /// with transfer times priced at that client's own payload over the
    /// fleet's link — the finish-time rule
    /// [`crate::network::NetworkModel::lifecycle_round_time`] prices
    /// rounds with; with no network both transfer times are zero and
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
            if matches!(c.outcome, ClientOutcome::Completed { .. }) {
                let Some(update) = it.next() else { break };
                debug_assert_eq!(update.client, c.client, "updates must follow sampled order");
                let payload = cp.payload;
                let (t_down, t_up) = match &self.cfg.network {
                    Some(net) => {
                        (net.transfer_time(payload.down_bytes), net.transfer_time(payload.up_bytes))
                    }
                    None => (0.0, 0.0),
                };
                let arrive = client_finish_time(self.now, c.outcome, t_down, t_up, None);
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
    /// accepted or the queue runs dry, and return the accepted ones in
    /// sampled order, `(wave, idx)` (a client's older wave first). The
    /// virtual clock advances to each popped event's arrival time
    /// (monotonically — a same-time tie cannot move it backwards). Events
    /// whose staleness at this cycle exceeds `max_staleness` are evicted
    /// and do *not* count toward the buffer; accepted updates carry
    /// `staleness_decay^staleness` as their fusion weight.
    pub fn drain(&mut self, cycle: usize) -> DrainOutcome {
        let mut out = DrainOutcome::default();
        let mut accepted = Vec::new();
        // Linear in the queue: a synchronous cycle drains a whole cohort.
        let mut queue = std::mem::take(&mut self.queue).into_iter();
        while accepted.len() < self.cfg.buffer_size {
            let Some(ev) = queue.next() else { break };
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
            accepted.push((ev.wave, ev.idx, ev.update, self.cfg.staleness_weight(staleness)));
        }
        self.queue = queue.collect();
        accepted.sort_by_key(|&(wave, idx, ..)| (wave, idx));
        out.folded = accepted.into_iter().map(|(_, _, update, w)| (update, w)).collect();
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
    use crate::network::NetworkModel;

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
        assert!(matches!(
            AsyncConfig::new(2).network(bad_net).validate(4),
            Err(ConfigError::OutOfRange { field: "async.network.bandwidth_bps", .. })
        ));
        assert!(AsyncConfig::new(4).network(NetworkModel::cellular_4g()).validate(4).is_ok());
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

        let folded = |d: &DrainOutcome| d.folded.iter().map(|(u, _)| u.client).collect::<Vec<_>>();
        // A later-sampled client arrives first; both fold, in sampled order.
        let mut s = AsyncScheduler::new(AsyncConfig::new(2).max_staleness(8));
        let plan = plan_of(vec![completed(4, 3.0), completed(9, 1.0)]);
        s.dispatch(0, &plan, &uniform(&plan, WirePayload::symmetric(10)), vec![
            probe_update(4),
            probe_update(9),
        ]);
        assert_eq!(folded(&s.drain(0)), vec![4, 9], "arrival order must not reorder the fold");

        // A buffer smaller than the arrivals still selects the earliest.
        let mut s = AsyncScheduler::new(AsyncConfig::new(2).max_staleness(8));
        let plan = plan_of(vec![completed(0, 5.0), completed(1, 2.0), completed(2, 1.0)]);
        s.dispatch(0, &plan, &uniform(&plan, WirePayload::symmetric(10)), vec![
            probe_update(0),
            probe_update(1),
            probe_update(2),
        ]);
        assert_eq!(folded(&s.drain(0)), vec![1, 2], "the two earliest, in sampled order");
        assert!((s.now() - 2.0).abs() < 1e-12, "the clock stops at the last selected arrival");
        assert_eq!(s.pending(), 1);

        // One client from two waves in one drain: the older wave folds
        // first, although the newer update arrives first.
        let mut s = AsyncScheduler::new(AsyncConfig::new(2).max_staleness(8));
        let plan = plan_of(vec![completed(3, 9.0)]);
        s.dispatch(0, &plan, &uniform(&plan, WirePayload::symmetric(10)), vec![probe_update(3)]);
        let mut fresh = probe_update(3);
        fresh.steps = 6;
        let plan = plan_of(vec![completed(3, 0.0)]);
        s.dispatch(1, &plan, &uniform(&plan, WirePayload::symmetric(10)), vec![fresh]);
        let d = s.drain(1);
        let steps: Vec<usize> = d.folded.iter().map(|(u, _)| u.steps).collect();
        assert_eq!(steps, vec![5, 6], "wave 0's update folds before wave 1's");
        assert_eq!(d.stale, 1);
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
        // A constrained 128 KiB/s, 200 ms link.
        let slow = NetworkModel { bandwidth_bps: 128.0 * 1024.0, latency_s: 0.2 };
        // Pinned to the values every earlier config wrote for these runs,
        // so their checkpoints still resume.
        assert_eq!(a.mix_fingerprint(base), 0xf9af_4a66_9a0a_6822);
        assert_eq!(AsyncConfig::new(2).network(slow).mix_fingerprint(base), 0xf8dd_7cd2_d7fb_fc2f);
        assert_ne!(a.mix_fingerprint(base), base, "async must not collide with sync");
        assert_ne!(a.mix_fingerprint(base), AsyncConfig::new(3).mix_fingerprint(base));
        assert_ne!(
            a.mix_fingerprint(base),
            AsyncConfig::new(2).max_staleness(9).mix_fingerprint(base)
        );
        assert_ne!(
            AsyncConfig::new(2).network(slow).mix_fingerprint(base),
            AsyncConfig::new(2).network(NetworkModel::cellular_4g()).mix_fingerprint(base),
            "the link is resume identity"
        );
    }
}
