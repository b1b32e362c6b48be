//! FedRolex (Alam et al. 2022): rolling-window sub-model training for a
//! server model *wider than any client can host*. Each round, client `k`
//! receives only the hidden units `{j : j mod C == t}` of the server's
//! one-hidden-layer MLP, where `C` is the number of disjoint windows and
//! `t = (round + k) mod C` rolls by one every round. Over any `C`
//! consecutive rounds a participating client touches every window, so
//! every server parameter is trained exactly once per full cycle — the
//! invariant the window tests below pin down.
//!
//! The architecture is [`Arch::Mlp1`] by construction: each hidden unit
//! `j` owns exactly one input-weight row `W1[j, ·]`, one hidden bias
//! `b1[j]`, and one classifier column `W2[·, j]` — disjoint slices a
//! window can extract and scatter back without touching its neighbours.
//! The classifier bias `b2` is shared by all units: every client
//! downloads it (the sub-model cannot run without it), but only the
//! window-0 client scatters it back, so it too is written exactly once
//! per cycle and the uplink of every other window omits its bytes.
//!
//! Per-client pricing is where this algorithm needed the redesigned
//! broadcast API: a window of `w` units moves `4·(w·(D+1+K) + K)` bytes
//! down and `4·w·(D+1+K)` (+`4K` for window 0) bytes up — a fraction
//! `≈ w/H` of the full server model, which
//! [`crate::engine::FedAlgorithm::client_plans`] now bills truthfully
//! per (client, round) instead of fleet-wide.

use crate::cohort;
use crate::config::ConfigError;
use crate::context::FlContext;
use crate::engine::{EngineError, FedAlgorithm, RoundOutcome};
use crate::lifecycle::{ClientPlan, ModelView, WirePayload};
use crate::local::local_train;
use crate::scheduler::{PreparedUpdate, UpdatePayload};
use crate::state::{check_model_layout, AlgorithmState, RestoreError};
use crate::trace::{Phase, RoundScope};
use crate::weight_common::GlobalModel;
use kemf_nn::codec::Writer;
use kemf_nn::model::Model;
use kemf_nn::models::{Arch, ModelSpec};
use kemf_nn::serialize::{ModelState, Weights};
use kemf_tensor::rng::child_seed;

/// Configuration of a FedRolex server.
#[derive(Clone, Copy, Debug)]
pub struct FedRolexConfig {
    /// The server model. Must be [`Arch::Mlp1`]; its `width` is the
    /// server hidden dimension `H`, typically several times what any
    /// client can host.
    pub server_spec: ModelSpec,
    /// Largest hidden width a client can host (`L`). The rolling cycle
    /// is `C = ceil(H / L)`, so every window fits in `L` units.
    pub client_width: usize,
}

/// Rolling-window sub-model training over a wide MLP server.
pub struct FedRolex {
    global: GlobalModel,
    client_width: usize,
    cycle: usize,
}

/// Hidden units of window `t`: `{j < h : j mod cycle == t}`, ascending.
fn window_units(h: usize, cycle: usize, t: usize) -> impl Iterator<Item = usize> {
    (t..h).step_by(cycle.max(1))
}

/// Number of hidden units in window `t` (`ceil((h − t) / cycle)`).
fn window_width(h: usize, cycle: usize, t: usize) -> usize {
    debug_assert!(t < cycle && cycle <= h);
    (h - t).div_ceil(cycle)
}

/// Flat layout of an [`Arch::Mlp1`] parameter vector of hidden width
/// `w`: `W1[w, d]` row-major, `b1[w]`, `W2[k, w]` row-major, `b2[k]`.
#[derive(Clone, Copy)]
struct MlpLayout {
    /// Input dimension `D` (flattened image).
    d: usize,
    /// Hidden width.
    w: usize,
    /// Classes `K`.
    k: usize,
}

impl MlpLayout {
    fn of(spec: &ModelSpec, width: usize) -> Self {
        MlpLayout { d: spec.in_channels * spec.input_hw * spec.input_hw, w: width, k: spec.classes }
    }

    fn numel(&self) -> usize {
        self.w * (self.d + 1 + self.k) + self.k
    }

    fn lens(&self) -> Vec<usize> {
        vec![self.w * self.d, self.w, self.k * self.w, self.k]
    }

    /// Flat offsets of the four parameter blocks.
    fn blocks(&self) -> (usize, usize, usize, usize) {
        let w1 = 0;
        let b1 = self.w * self.d;
        let w2 = b1 + self.w;
        let b2 = w2 + self.k * self.w;
        (w1, b1, w2, b2)
    }
}

impl FedRolex {
    /// New FedRolex server. `init` refuses a non-MLP architecture and a
    /// client width outside `1..=H`.
    pub fn new(cfg: FedRolexConfig) -> Self {
        let cycle = cfg.server_spec.width.div_ceil(cfg.client_width.max(1));
        FedRolex { global: GlobalModel::new(cfg.server_spec), client_width: cfg.client_width, cycle }
    }

    /// Number of disjoint windows covering the server model.
    pub fn cycle(&self) -> usize {
        self.cycle
    }

    /// Server parameter count (for the ≥2×-any-client headline).
    pub fn server_params(&self) -> usize {
        self.global.state.params.numel()
    }

    /// Parameter count of the largest window's sub-model.
    pub fn largest_client_params(&self) -> usize {
        let spec = self.global.spec;
        MlpLayout::of(&spec, window_width(spec.width, self.cycle, 0)).numel()
    }

    fn server_layout(&self) -> MlpLayout {
        MlpLayout::of(&self.global.spec, self.global.spec.width)
    }

    /// The window offset client `k` trains at round `r`.
    fn offset_for(&self, round: usize, client: usize) -> usize {
        (round + client) % self.cycle
    }

    /// Extract window `t` of the server parameters as a client-sized
    /// sub-model state (`b2` always included — the sub-model cannot
    /// classify without it).
    fn extract(&self, t: usize) -> ModelState {
        let sl = self.server_layout();
        let w = window_width(sl.w, self.cycle, t);
        let cl = MlpLayout { w, ..sl };
        let (sw1, sb1, sw2, sb2) = sl.blocks();
        let (cw1, cb1, cw2, cb2) = cl.blocks();
        let src = &self.global.state.params.values;
        let mut values = vec![0.0f32; cl.numel()];
        for (i, j) in window_units(sl.w, self.cycle, t).enumerate() {
            values[cw1 + i * cl.d..cw1 + (i + 1) * cl.d]
                .copy_from_slice(&src[sw1 + j * sl.d..sw1 + (j + 1) * sl.d]);
            values[cb1 + i] = src[sb1 + j];
            for c in 0..cl.k {
                values[cw2 + c * cl.w + i] = src[sw2 + c * sl.w + j];
            }
        }
        values[cb2..cb2 + cl.k].copy_from_slice(&src[sb2..sb2 + sl.k]);
        ModelState {
            params: Weights { values, lens: cl.lens() },
            buffers: Weights { values: Vec::new(), lens: Vec::new() },
        }
    }

    /// Scatter an averaged window-`t` sub-model back into the server
    /// parameters. `b2` is written only when `include_b2` (window 0).
    fn scatter(&mut self, t: usize, avg: &Weights, include_b2: bool) {
        let sl = self.server_layout();
        let w = window_width(sl.w, self.cycle, t);
        let cl = MlpLayout { w, ..sl };
        debug_assert_eq!(avg.values.len(), cl.numel());
        let (sw1, sb1, sw2, sb2) = sl.blocks();
        let (cw1, cb1, cw2, cb2) = cl.blocks();
        let dst = &mut self.global.state.params.values;
        for (i, j) in window_units(sl.w, self.cycle, t).enumerate() {
            dst[sw1 + j * sl.d..sw1 + (j + 1) * sl.d]
                .copy_from_slice(&avg.values[cw1 + i * cl.d..cw1 + (i + 1) * cl.d]);
            dst[sb1 + j] = avg.values[cb1 + i];
            for c in 0..cl.k {
                dst[sw2 + c * sl.w + j] = avg.values[cw2 + c * cl.w + i];
            }
        }
        if include_b2 {
            dst[sb2..sb2 + sl.k].copy_from_slice(&avg.values[cb2..cb2 + cl.k]);
        }
    }

    /// Downlink bytes of window `t`'s sub-model.
    fn window_down_bytes(&self, t: usize) -> u64 {
        let sl = self.server_layout();
        4 * MlpLayout { w: window_width(sl.w, self.cycle, t), ..sl }.numel() as u64
    }
}

impl FedAlgorithm for FedRolex {
    fn name(&self) -> String {
        "FedRolex".into()
    }

    /// The client width enters as the cycle `ceil(H / L)` it sets: two
    /// widths with one cycle cut the same windows and train the same run.
    fn identity(&self, w: &mut Writer) {
        w.string(&self.name());
        w.spec(&self.global.spec);
        w.usize(self.cycle);
    }

    fn init(&mut self, _ctx: &FlContext) -> Result<(), ConfigError> {
        let (spec, l) = (self.global.spec, self.client_width);
        let reason = if spec.arch != Arch::Mlp1 {
            format!("the server model must be Mlp1, not {:?}", spec.arch)
        } else if !(1..=spec.width).contains(&l) {
            format!("client_width {l} is outside 1..={} (the server width)", spec.width)
        } else if spec.classes == 0 {
            "server model must have at least one class".into()
        } else {
            return Ok(());
        };
        Err(ConfigError::AlgorithmSetup { algorithm: self.name(), reason })
    }

    fn client_plans(&self, round: usize, sampled: &[usize]) -> Vec<ClientPlan> {
        let b2_bytes = 4 * self.global.spec.classes as u64;
        sampled
            .iter()
            .map(|&client| {
                let t = self.offset_for(round, client);
                let down_bytes = self.window_down_bytes(t);
                // Every window downloads b2; only window 0 uploads it.
                let up_bytes = if t == 0 { down_bytes } else { down_bytes - b2_bytes };
                ClientPlan {
                    client,
                    view: ModelView::Window { offset: t, cycle: self.cycle },
                    payload: WirePayload { down_bytes, up_bytes },
                }
            })
            .collect()
    }

    fn train_cohort(
        &mut self,
        wave: usize,
        sampled: &[usize],
        ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<Vec<PreparedUpdate>, EngineError> {
        let local = ctx.cfg.local_cfg();
        let spec = self.global.spec;
        cohort::train_cohort(
            sampled,
            ctx,
            scope,
            // The window a client downloads is cut from the server model
            // here, so only a chunk's sub-models are ever resident.
            |k| {
                let t = self.offset_for(wave, k);
                Ok((t, self.extract(t)))
            },
            |k, (t, sub): (usize, ModelState)| {
                let mut model = Model::from_state(ModelSpec { width: sub.params.lens[1], ..spec }, &sub)
                    .expect("an extracted window has the layout of its width");
                let seed = child_seed(ctx.cfg.seed, (wave as u64) << 20 | k as u64);
                let outcome = local_train(&mut model, &ctx.client_shard(k), &local, seed, None);
                let payload = UpdatePayload::Window { offset: t, state: model.state() };
                PreparedUpdate::new(k, ctx, outcome.steps, outcome.mean_loss, payload)
            },
        )
    }

    fn fuse(
        &mut self,
        _round: usize,
        updates: Vec<(PreparedUpdate, f32)>,
        _ctx: &FlContext,
        scope: &mut RoundScope<'_>,
    ) -> Result<RoundOutcome, EngineError> {
        if updates.is_empty() {
            return Ok(RoundOutcome { train_loss: f32::NAN });
        }
        let sl = self.server_layout();
        let mut loss_sum = 0.0f32;
        let reported = updates.len();
        // Group by window offset in arrival order; each group averages
        // at coefficient staleness_weight × n_samples, then scatters
        // into its disjoint server slice.
        let mut groups: Vec<Vec<(Weights, f32)>> = vec![Vec::new(); self.cycle];
        for (u, w) in updates {
            let (offset, state) = u.payload.into_window("FedRolex", u.client)?;
            if offset >= self.cycle {
                return Err(EngineError::Config(ConfigError::AlgorithmSetup {
                    algorithm: self.name(),
                    reason: format!(
                        "client {}: window offset {offset} outside cycle {}",
                        u.client, self.cycle
                    ),
                }));
            }
            let want = MlpLayout { w: window_width(sl.w, self.cycle, offset), ..sl }.numel();
            if state.params.values.len() != want {
                return Err(EngineError::Config(ConfigError::AlgorithmSetup {
                    algorithm: self.name(),
                    reason: format!(
                        "client {}: window {offset} update has {} params, expected {want}",
                        u.client,
                        state.params.values.len()
                    ),
                }));
            }
            groups[offset].push((state.params, w * u.n_samples as f32));
            loss_sum += u.loss;
        }
        let mut fused: Vec<(usize, Weights)> = Vec::new();
        for (t, group) in groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let total: f32 = group.iter().map(|(_, c)| c).sum();
            let mut acc = group[0].0.zeros_like();
            for (params, coeff) in group {
                acc.scale_add(1.0, params, coeff / total);
            }
            fused.push((t, acc));
        }
        scope.phase(Phase::Fusion, |c| {
            c.clients = reported;
            for (t, avg) in &fused {
                self.scatter(*t, avg, *t == 0);
            }
        });
        Ok(RoundOutcome { train_loss: loss_sum / reported as f32 })
    }

    fn evaluate(&mut self, ctx: &FlContext) -> f32 {
        self.global.evaluate(ctx)
    }

    fn state(&self) -> Result<AlgorithmState, EngineError> {
        Ok(AlgorithmState::new(self.name(), 1)
            .with_model("global", self.global.state.clone())
            .with_scalar("cycle", self.cycle as f64))
    }

    fn restore(&mut self, state: &AlgorithmState) -> Result<(), RestoreError> {
        state.expect_header(&self.name(), 1)?;
        let cycle = state.scalar("cycle")?;
        if cycle != self.cycle as f64 {
            return Err(RestoreError::ShapeMismatch {
                name: "cycle".into(),
                detail: format!("checkpointed cycle {cycle} != live {}", self.cycle),
            });
        }
        let incoming = state.model("global")?;
        check_model_layout("global", incoming, &self.global.state)?;
        self.global.state = incoming.clone();
        Ok(())
    }

    fn global_model(&self) -> Option<(ModelSpec, ModelState)> {
        Some((self.global.spec, self.global.state.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlConfig;
    use crate::engine::{Engine, RunOptions};
    use kemf_data::synth::{SynthConfig, SynthTask};

    fn server_spec(width: usize) -> ModelSpec {
        ModelSpec { width, ..ModelSpec::scaled(Arch::Mlp1, 1, 12, 10, 7) }
    }

    fn rolex(width: usize, client_width: usize) -> FedRolex {
        FedRolex::new(FedRolexConfig { server_spec: server_spec(width), client_width })
    }

    fn ctx(seed: u64, rounds: usize) -> FlContext {
        let task = SynthTask::new(SynthConfig::mnist_like(seed));
        let train = task.generate(240, 0);
        let test = task.generate(80, 1);
        let cfg = FlConfig {
            n_clients: 4,
            sample_ratio: 1.0,
            rounds,
            local_epochs: 2,
            batch_size: 16,
            alpha: 1.0,
            min_per_client: 10,
            seed,
            ..Default::default()
        };
        FlContext::new(cfg, &train, test)
    }

    #[test]
    fn windows_partition_every_hidden_unit_exactly_once() {
        for (h, l) in [(32usize, 8usize), (33, 8), (7, 3), (16, 16), (9, 1)] {
            let cycle = h.div_ceil(l);
            let mut seen = vec![0usize; h];
            for t in 0..cycle {
                let units: Vec<usize> = window_units(h, cycle, t).collect();
                assert_eq!(units.len(), window_width(h, cycle, t), "H={h} L={l} t={t}");
                assert!(units.len() <= l, "window exceeds client budget: H={h} L={l} t={t}");
                for j in units {
                    seen[j] += 1;
                }
            }
            assert!(seen.iter().all(|&n| n == 1), "H={h} L={l}: coverage {seen:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The schedule invariant over arbitrary geometry, not just the
        /// hand-picked cases above: for any server width `H` and client
        /// budget `L ≤ H`, one full cycle of windows covers every server
        /// parameter exactly once. Coverage (sentinel overwrite) plus a
        /// write-count equal to the parameter count pins "exactly once";
        /// each window also has to fit the client budget.
        #[test]
        fn any_geometry_covers_every_server_parameter_exactly_once(
            h in 1usize..64,
            l in 1usize..64,
        ) {
            // The vendored proptest has no prop_assume: clamp instead.
            let l = l.min(h);
            let mut algo = rolex(h, l);
            let cycle = algo.cycle();
            let sl = algo.server_layout();
            let mut width_sum = 0usize;
            for t in 0..cycle {
                let w = window_width(h, cycle, t);
                proptest::prop_assert!(w <= l, "H={h} L={l} t={t}: width {w} exceeds budget");
                width_sum += w;
            }
            // Total scattered writes: each unit owns d+1+k parameters,
            // plus b2 (k values) written only by window 0.
            let writes = width_sum * (sl.d + 1 + sl.k) + sl.k;
            proptest::prop_assert!(
                writes == algo.server_params(),
                "H={} L={}: {} writes vs {} params", h, l, writes, algo.server_params()
            );
            for v in algo.global.state.params.values.iter_mut() {
                *v = -1.0;
            }
            for t in 0..cycle {
                let sub = algo.extract(t);
                let sentinel = Weights {
                    values: vec![t as f32 + 1.0; sub.params.values.len()],
                    lens: sub.params.lens.clone(),
                };
                algo.scatter(t, &sentinel, t == 0);
            }
            proptest::prop_assert!(
                algo.global.state.params.values.iter().all(|&v| v > 0.0),
                "H={} L={}: some server parameter was never written", h, l
            );
        }
    }

    #[test]
    fn extract_then_scatter_is_the_identity() {
        let mut algo = rolex(33, 8);
        let before = algo.global.state.params.values.clone();
        for t in 0..algo.cycle() {
            let sub = algo.extract(t);
            algo.scatter(t, &sub.params, t == 0);
        }
        assert_eq!(algo.global.state.params.values, before);
    }

    #[test]
    fn scattering_every_window_writes_every_server_parameter() {
        // Overwrite each window with a sentinel; after a full cycle no
        // server parameter may retain its original value — the
        // exactly-once coverage the rolling schedule guarantees.
        let mut algo = rolex(32, 8);
        for v in algo.global.state.params.values.iter_mut() {
            *v = -1.0;
        }
        for t in 0..algo.cycle() {
            let sub = algo.extract(t);
            let sentinel = Weights {
                values: vec![t as f32 + 1.0; sub.params.values.len()],
                lens: sub.params.lens.clone(),
            };
            algo.scatter(t, &sentinel, t == 0);
        }
        assert!(
            algo.global.state.params.values.iter().all(|&v| v > 0.0),
            "some server parameter was never written by any window"
        );
    }

    #[test]
    fn plans_price_the_window_not_the_server_model() {
        let algo = rolex(32, 8);
        let full = 4 * algo.server_params() as u64;
        let sampled = [0usize, 1, 2, 3];
        let plans = algo.client_plans(0, &sampled);
        for p in &plans {
            assert!(p.payload.down_bytes < full / 2, "window should be ≪ full: {p:?}");
            let ModelView::Window { offset, cycle } = p.view else {
                panic!("expected a window view, got {:?}", p.view)
            };
            assert_eq!(cycle, algo.cycle());
            // Only window 0 uploads the shared classifier bias.
            let b2 = 4 * 10;
            if offset == 0 {
                assert_eq!(p.payload.up_bytes, p.payload.down_bytes);
            } else {
                assert_eq!(p.payload.up_bytes, p.payload.down_bytes - b2);
            }
        }
        // The schedule rolls: the same client sees a different window
        // next round.
        let next = algo.client_plans(1, &sampled);
        assert_ne!(plans[0].view, next[0].view);
    }

    #[test]
    fn server_is_at_least_twice_any_client() {
        let algo = rolex(32, 8);
        assert!(
            algo.server_params() >= 2 * algo.largest_client_params(),
            "server {} vs client {}",
            algo.server_params(),
            algo.largest_client_params()
        );
    }

    #[test]
    fn fedrolex_learns_above_chance() {
        // rounds ≥ 2 cycles so every window trains at least twice.
        let c = ctx(41, 8);
        let mut algo = rolex(32, 8);
        let report = Engine::run(&mut algo, &c, RunOptions::new()).unwrap();
        assert!(
            report.history.best_accuracy() > 0.2,
            "got {}",
            report.history.best_accuracy()
        );
        assert_eq!(report.history.payload_kind, "window");
    }

    #[test]
    fn empty_cohort_leaves_the_server_untouched() {
        let c = ctx(42, 3);
        let mut algo = rolex(32, 8);
        let before = algo.global.state.params.values.clone();
        let mut sink = crate::trace::NoopSink;
        let mut scope = RoundScope::new(&mut sink, 0);
        let out = algo.fuse(0, Vec::new(), &c, &mut scope).unwrap();
        assert!(out.train_loss.is_nan());
        assert_eq!(algo.global.state.params.values, before);
    }

    #[test]
    fn state_round_trips_and_refuses_a_different_cycle() {
        let c = ctx(43, 4);
        let mut algo = rolex(32, 8);
        let _ = Engine::run(&mut algo, &c, RunOptions::new()).unwrap();
        let snap = algo.state().unwrap();
        let mut fresh = rolex(32, 8);
        fresh.restore(&snap).unwrap();
        assert_eq!(fresh.global.state.params.values, algo.global.state.params.values);
        // A server carved into a different number of windows must refuse.
        let mut other = rolex(32, 16);
        let err = other.restore(&snap).unwrap_err();
        assert!(matches!(err, RestoreError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    fn fuse_rejects_foreign_and_misshapen_payloads() {
        let c = ctx(44, 1);
        let mut algo = rolex(32, 8);
        let mut sink = crate::trace::NoopSink;
        let mut scope = RoundScope::new(&mut sink, 0);
        let bad = PreparedUpdate {
            client: 0,
            n_samples: 10,
            steps: 1,
            loss: 0.0,
            payload: UpdatePayload::Empty,
            commit: None,
        };
        let err = algo.fuse(0, vec![(bad, 1.0)], &c, &mut scope).unwrap_err();
        assert!(err.to_string().contains("window"), "{err}");
        let misshapen = PreparedUpdate {
            client: 1,
            n_samples: 10,
            steps: 1,
            loss: 0.0,
            payload: UpdatePayload::Window {
                offset: 0,
                state: ModelState {
                    params: Weights { values: vec![0.0; 3], lens: vec![3] },
                    buffers: Weights { values: Vec::new(), lens: Vec::new() },
                },
            },
            commit: None,
        };
        let err = algo.fuse(0, vec![(misshapen, 1.0)], &c, &mut scope).unwrap_err();
        assert!(err.to_string().contains("expected"), "{err}");
    }

    /// `Engine::run`'s error for a FedRolex it must refuse.
    fn refusal(server_spec: ModelSpec, client_width: usize) -> String {
        let mut algo = FedRolex::new(FedRolexConfig { server_spec, client_width });
        let err = Engine::run(&mut algo, &ctx(45, 1), RunOptions::new()).unwrap_err();
        assert!(matches!(err, EngineError::Init(ConfigError::AlgorithmSetup { .. })), "{err}");
        err.to_string()
    }

    #[test]
    fn init_refuses_a_server_that_is_not_an_mlp() {
        let cnn = ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 7);
        assert!(refusal(cnn, 1).contains("must be Mlp1"));
    }

    #[test]
    fn init_refuses_a_zero_client_width() {
        assert!(refusal(server_spec(32), 0).contains("client_width 0"));
    }

    #[test]
    fn init_refuses_a_client_wider_than_the_server() {
        assert!(refusal(server_spec(32), 33).contains("client_width 33"));
    }
}
