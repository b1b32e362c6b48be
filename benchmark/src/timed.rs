//! `Timed`: a delegating [`FedAlgorithm`] wrapper that times the engine's
//! calls into the algorithm from outside, so end-to-end numbers need no
//! tracing (`NoopSink`) and no library edit.
//!
//! The engine calls, per round and in this order: `client_plans`,
//! (`global_model` over sockets), `round` — or `train_cohort` + `fuse` in
//! buffered-asynchronous mode — then `evaluate`, then `state` when a
//! checkpoint is due. Round *i* therefore ends when the *i*-th `evaluate`
//! returns and round 0 starts at the first `client_plans` call. Set-up ends
//! earlier, when `init` returns: what the engine does between the two is
//! resume handling and the socket worker-pool start, and that start polls
//! for connections every 5 ms, which made the socket workload's set-up flip
//! between 7 and 12 ms from run to run.

use kemf_fl::config::ConfigError;
use kemf_fl::context::FlContext;
use kemf_fl::engine::{EngineError, FedAlgorithm, RoundOutcome};
use kemf_fl::lifecycle::ClientPlan;
use kemf_fl::scheduler::PreparedUpdate;
use kemf_fl::state::{AlgorithmState, RestoreError};
use kemf_fl::trace::RoundScope;
use kemf_nn::models::ModelSpec;
use kemf_nn::serialize::ModelState;
use std::cell::RefCell;
use std::time::Instant;

/// Seconds spent inside each kind of algorithm call, one entry per call.
#[derive(Clone, Debug, Default)]
pub struct Calls {
    pub client_plans: Vec<f64>,
    pub round: Vec<f64>,
    pub train_cohort: Vec<f64>,
    pub fuse: Vec<f64>,
    pub evaluate: Vec<f64>,
}

/// What the wrapper saw of one engine run.
#[derive(Clone, Debug, Default)]
pub struct RoundLog {
    /// Return of `init`: the end of set-up.
    pub init_end: Option<Instant>,
    /// Entry of the first `client_plans` call: the start of round 0.
    pub first_plans: Option<Instant>,
    /// Return of the *i*-th `evaluate` call: the end of round *i*.
    pub round_ends: Vec<Instant>,
    /// Seconds round *i* spent inside algorithm calls of any kind.
    pub algo_s: Vec<f64>,
    /// Per-kind call durations.
    pub calls: Calls,
    pending_algo_s: f64,
}

impl RoundLog {
    /// Wall seconds of each round: from the previous round's end (the
    /// first `client_plans` call for round 0) to its own.
    pub fn round_s(&self) -> Vec<f64> {
        let mut prev = self.first_plans;
        self.round_ends
            .iter()
            .map(|&end| {
                let start = prev.unwrap_or(end);
                prev = Some(end);
                end.duration_since(start).as_secs_f64()
            })
            .collect()
    }
}

/// The wrapper. Interior mutability because `client_plans` and
/// `global_model` take `&self`.
pub struct Timed {
    inner: Box<dyn FedAlgorithm>,
    log: RefCell<RoundLog>,
}

impl Timed {
    pub fn new(inner: Box<dyn FedAlgorithm>) -> Self {
        Timed { inner, log: RefCell::new(RoundLog::default()) }
    }

    /// Unwrap into the algorithm (in its end-of-run state) and the log.
    pub fn into_parts(self) -> (Box<dyn FedAlgorithm>, RoundLog) {
        (self.inner, self.log.into_inner())
    }

    /// Run `f`, credit its duration to the current round's algorithm
    /// time and, when `slot` picks one, to that kind's call list.
    fn timed<T>(
        log: &RefCell<RoundLog>,
        slot: Option<fn(&mut Calls) -> &mut Vec<f64>>,
        f: impl FnOnce() -> T,
    ) -> T {
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed().as_secs_f64();
        let mut log = log.borrow_mut();
        log.pending_algo_s += dt;
        if let Some(slot) = slot {
            slot(&mut log.calls).push(dt);
        }
        out
    }
}

impl FedAlgorithm for Timed {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn init(&mut self, ctx: &FlContext) -> Result<(), ConfigError> {
        let out = self.inner.init(ctx);
        self.log.borrow_mut().init_end = Some(Instant::now());
        out
    }

    fn client_plans(&self, round: usize, sampled: &[usize]) -> Vec<ClientPlan> {
        self.log.borrow_mut().first_plans.get_or_insert_with(Instant::now);
        Self::timed(&self.log, Some(|c| &mut c.client_plans), || {
            self.inner.client_plans(round, sampled)
        })
    }

    fn round(
        &mut self,
        round: usize,
        sampled: &[usize],
        ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<RoundOutcome, EngineError> {
        let inner = &mut self.inner;
        Self::timed(&self.log, Some(|c| &mut c.round), || inner.round(round, sampled, ctx, scope))
    }

    fn train_cohort(
        &mut self,
        wave: usize,
        sampled: &[usize],
        ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<Vec<PreparedUpdate>, EngineError> {
        let inner = &mut self.inner;
        Self::timed(&self.log, Some(|c| &mut c.train_cohort), || {
            inner.train_cohort(wave, sampled, ctx, scope)
        })
    }

    fn fuse(
        &mut self,
        round: usize,
        updates: Vec<(PreparedUpdate, f32)>,
        ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<RoundOutcome, EngineError> {
        let inner = &mut self.inner;
        Self::timed(&self.log, Some(|c| &mut c.fuse), || inner.fuse(round, updates, ctx, scope))
    }

    fn evaluate(&mut self, ctx: &FlContext) -> f32 {
        let inner = &mut self.inner;
        let acc = Self::timed(&self.log, Some(|c| &mut c.evaluate), || inner.evaluate(ctx));
        let mut log = self.log.borrow_mut();
        let spent = std::mem::take(&mut log.pending_algo_s);
        log.algo_s.push(spent);
        log.round_ends.push(Instant::now());
        acc
    }

    fn state(&self) -> Result<AlgorithmState, EngineError> {
        Self::timed(&self.log, None, || self.inner.state())
    }

    fn restore(&mut self, state: &AlgorithmState) -> Result<(), RestoreError> {
        self.inner.restore(state)
    }

    fn global_model(&self) -> Option<(ModelSpec, ModelState)> {
        Self::timed(&self.log, None, || self.inner.global_model())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kemf_data::synth::{SynthConfig, SynthTask};
    use kemf_fl::config::FlConfig;
    use kemf_fl::engine::{Engine, RunOptions};
    use kemf_fl::lifecycle::{ModelView, WirePayload};
    use kemf_fl::scheduler::{AsyncConfig, UpdatePayload};

    /// Algorithm that does nothing but burn a little time per call, so
    /// every recorded duration is strictly positive.
    struct Dummy;

    fn spin() {
        let t0 = Instant::now();
        while t0.elapsed().as_micros() < 200 {
            std::hint::spin_loop();
        }
    }

    impl FedAlgorithm for Dummy {
        fn name(&self) -> String {
            "dummy".into()
        }
        fn client_plans(&self, _round: usize, sampled: &[usize]) -> Vec<ClientPlan> {
            spin();
            ClientPlan::uniform(sampled, ModelView::Full, WirePayload::symmetric(16))
        }
        fn round(
            &mut self,
            _round: usize,
            _sampled: &[usize],
            _ctx: &FlContext,
            _scope: &mut RoundScope<'_>,
        ) -> Result<RoundOutcome, EngineError> {
            spin();
            Ok(RoundOutcome { train_loss: 1.0 })
        }
        fn train_cohort(
            &mut self,
            _wave: usize,
            sampled: &[usize],
            _ctx: &FlContext,
            _scope: &mut RoundScope<'_>,
        ) -> Result<Vec<PreparedUpdate>, EngineError> {
            spin();
            Ok(sampled
                .iter()
                .map(|&client| PreparedUpdate {
                    client,
                    n_samples: 1,
                    steps: 1,
                    loss: 1.0,
                    payload: UpdatePayload::Empty,
                    commit: None,
                })
                .collect())
        }
        fn fuse(
            &mut self,
            _round: usize,
            _updates: Vec<(PreparedUpdate, f32)>,
            _ctx: &FlContext,
            _scope: &mut RoundScope<'_>,
        ) -> Result<RoundOutcome, EngineError> {
            spin();
            Ok(RoundOutcome { train_loss: 1.0 })
        }
        fn evaluate(&mut self, _ctx: &FlContext) -> f32 {
            spin();
            0.5
        }
    }

    fn ctx(rounds: usize) -> FlContext {
        let task = SynthTask::new(SynthConfig::mnist_like(0));
        let cfg = FlConfig {
            n_clients: 6,
            sample_ratio: 0.5,
            rounds,
            min_per_client: 2,
            ..Default::default()
        };
        FlContext::new(cfg, &task.generate(120, 0), task.generate(20, 1))
    }

    fn check_boundaries(log: &RoundLog, rounds: usize, t0: Instant, t1: Instant) {
        assert_eq!(log.round_ends.len(), rounds, "one round end per evaluate");
        assert_eq!(log.algo_s.len(), rounds);
        assert_eq!(log.calls.evaluate.len(), rounds);
        assert_eq!(log.calls.client_plans.len(), rounds);
        let first = log.first_plans.expect("round 0 start seen");
        let init_end = log.init_end.expect("set-up end seen");
        assert!(t0 <= init_end && init_end <= first && first <= log.round_ends[0]);
        assert!(log.round_ends.windows(2).all(|w| w[0] <= w[1]));
        assert!(*log.round_ends.last().unwrap() <= t1);
        let periods = log.round_s();
        assert_eq!(periods.len(), rounds);
        // Every period holds its own algorithm calls, and the periods
        // tile the interval from set-up end to the last round end.
        for (p, a) in periods.iter().zip(&log.algo_s) {
            assert!(p >= a && *a > 0.0, "period {p} must cover algorithm time {a}");
        }
        let span = log.round_ends.last().unwrap().duration_since(first).as_secs_f64();
        assert!((periods.iter().sum::<f64>() - span).abs() < 1e-6);
    }

    #[test]
    fn sync_rounds_end_at_each_evaluate() {
        let ctx = ctx(5);
        let mut algo = Timed::new(Box::new(Dummy));
        let t0 = Instant::now();
        Engine::run(&mut algo, &ctx, RunOptions::new()).unwrap();
        let t1 = Instant::now();
        let (_, log) = algo.into_parts();
        check_boundaries(&log, 5, t0, t1);
        assert_eq!(log.calls.round.len(), 5);
        assert!(log.calls.train_cohort.is_empty() && log.calls.fuse.is_empty());
    }

    #[test]
    fn async_cycles_end_at_each_evaluate() {
        let ctx = ctx(4);
        let mut algo = Timed::new(Box::new(Dummy));
        let t0 = Instant::now();
        Engine::run(&mut algo, &ctx, RunOptions::new().async_rounds(AsyncConfig::new(2))).unwrap();
        let t1 = Instant::now();
        let (_, log) = algo.into_parts();
        check_boundaries(&log, 4, t0, t1);
        assert!(log.calls.round.is_empty(), "async cycles never call round()");
        assert_eq!(log.calls.train_cohort.len(), 4);
        assert_eq!(log.calls.fuse.len(), 4);
    }
}
