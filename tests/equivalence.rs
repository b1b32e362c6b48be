//! Integration: every presentation of a run yields one history.
//!
//! The paper's claims are counted in rounds and bytes, so FedKEMF's
//! DML → upload → ensemble-distillation round, and every baseline's, must
//! give the same history whatever carries it. A [`Scenario`] fixes what a
//! history may depend on: the run identity (algorithm, fault model, seed,
//! sampling ratio, and — for a buffered-asynchronous identity — the async
//! knobs) plus the horizon. A *presentation* says how one run of it is
//! carried, one value per axis:
//!
//! | axis           | values                                                        |
//! |----------------|---------------------------------------------------------------|
//! | transport      | in-process; sockets to 2 or 3 worker threads (worker processes: `transport.rs`) |
//! | store          | eager; sharded (spilled to disk) for the store-backed algorithms |
//! | round mode     | sync; async with a cohort-sized buffer, with or without a uniform link (in-process only: sockets refuse async) |
//! | trace          | none; `record_trace` (stripped before comparing); an external `TraceSink` |
//! | `cohort_batch` | none, 1 or 3                                                  |
//! | resume         | none; killed after round *r* (the killed half over its own transport) and resumed from the checkpoint directory |
//! | fault model    | passed explicitly, even the reliable one, which only the reference leaves to the engine's default |
//!
//! The property ([`check`]): every presentation of a scenario yields its
//! reference's `History::to_json()`, round plans and (from the resume
//! point on) every cohort the algorithm trained, and one virtual clock
//! per round mode. Each run
//! ([`present`]) also checks what its own presentation promises: the
//! socket's payload counters equal the history's byte columns over the
//! rounds it carried, an async clock reads `0.0` without a link and
//! advances with one, and a resumed run reports its resume point and
//! every round's plan. A failure prints the scenario and both
//! presentations.
//!
//! The named anchors in the other suites are the fixed entries (async ==
//! sync for every algorithm, socket == in-process, sharded == eager,
//! resumed == straight, traced == untraced, worker processes == worker
//! threads). The seeded generator
//! here draws what they leave out: every algorithm under a fault model
//! dealt from all six, resumed over sockets with a chunk per client, and
//! async under faults or over a spilled store, the probe under every
//! fault model, and the axes crossed with each other. Width
//! (`KEMF_THREADS`) and SIMD tier (`KEMF_SIMD`) are settled once per
//! process, so `scripts/ci.sh` runs this suite at widths 1, 2 and 3 and
//! on the AVX2 and scalar tiers.
//!
//! **Adding an axis:** add a field to [`Presentation`], deal it from a
//! [`Deck`] of its values in [`plan`], enact it in [`present`] (with the
//! per-run checks it promises), and name its values in
//! `the_generator_draws_every_value_of_every_axis`.

mod common;

use common::equivalence::*;
use common::{fault_modes, STORE_BACKED};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The generator's seed, and how many free-probe scenarios it draws: one
/// per fault model, from a deck of the six.
const SEED: u64 = 49;
const PROBE_CASES: usize = 6;
/// The buffered identities: SCAFFOLD's client control variates (spilled
/// or not) and FedRolex's Window payloads left in flight at a cut.
const BUFFERED: [usize; 2] = [3, 7];

/// An axis's values, dealt in shuffled rounds: every value comes up once
/// per `values.len()` deals, in an order the seed decides.
struct Deck<T> {
    values: Vec<T>,
    left: Vec<T>,
}

impl<T: Copy> Deck<T> {
    fn new(values: &[T]) -> Self {
        Deck { values: values.to_vec(), left: Vec::new() }
    }
    fn deal(&mut self, rng: &mut StdRng) -> T {
        if self.left.is_empty() {
            self.left = self.values.clone();
            self.left.shuffle(rng);
        }
        self.left.pop().unwrap()
    }
}

/// The whole suite's draw: one trained scenario per algorithm, the
/// buffered identities and the probe's scenarios, each with its
/// presentations, every axis dealt from its own deck.
fn plan() -> Vec<(Scenario, Vec<Presentation>)> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut trained_faults = Deck::new(&[0, 1, 2, 3, 4, 5]);
    let mut buffered_faults = Deck::new(&[0, 1, 2, 3, 4, 5]);
    let mut probe_faults = Deck::new(&[0, 1, 2, 3, 4, 5]);
    let mut sockets = Deck::new(&[Transport::Threads(2), Transport::Threads(3)]);
    let mut async_modes = Deck::new(&[Mode::Async, Mode::AsyncLink]);
    let mut sharded = Deck::new(&[true, false]);
    let mut trace = Deck::new(&[Trace::Off, Trace::Record, Trace::Sink]);
    let mut cohort_batch = Deck::new(&[None, Some(1), Some(3)]);
    let mut resume = Deck::new(&[false, true, true]);

    let algorithms = (0..9).map(|a| (Some(a), false));
    let buffered = BUFFERED.iter().map(|&a| (Some(a), true));
    let probe = (0..PROBE_CASES).map(|_| (None, false));
    let mut out = Vec::new();
    for (algo, buffered) in algorithms.chain(buffered).chain(probe) {
        let s = Scenario {
            algo,
            faults: match (algo, buffered) {
                (Some(_), false) => trained_faults.deal(&mut rng),
                (Some(_), true) => buffered_faults.deal(&mut rng),
                (None, _) => probe_faults.deal(&mut rng),
            },
            seed: rng.gen_range(100..1000),
            rounds: match (algo, buffered) {
                (None, _) => 6,
                (_, true) => 4,
                _ => 2,
            },
            // Three of four clients, so a fold out of order shows in f32.
            sample_ratio: match (algo, buffered) {
                (Some(_), false) => 0.75,
                _ => [0.5, 0.75][rng.gen_range(0..2usize)],
            },
            buffered,
        };
        // One transport and round mode per presentation, since sockets
        // refuse async. A trained scenario meets one socket pool, and one
        // async mode where the anchors' (reliable, eager) async == sync
        // does not reach: under faults or over a spilled store. The probe
        // meets both async modes and a socket pool.
        let socket = sockets.deal(&mut rng);
        let store_backed = algo.is_some_and(|a| STORE_BACKED.contains(&a));
        let carriers = match (algo, buffered) {
            (_, true) => vec![(Transport::InProc, Mode::Buffered)],
            (None, _) => vec![
                (Transport::InProc, Mode::Async),
                (Transport::InProc, Mode::AsyncLink),
                (socket, Mode::Sync),
            ],
            _ if store_backed || s.faults != 0 => {
                vec![(socket, Mode::Sync), (Transport::InProc, async_modes.deal(&mut rng))]
            }
            _ => vec![(socket, Mode::Sync)],
        };
        let mut presentations = Vec::new();
        for (transport, mode) in carriers {
            let trained = algo.is_some() && !buffered;
            // A trained scenario's socket run is always resumed and trains
            // a chunk per client, so every algorithm meets both; a
            // store-backed one always spills.
            let (resumed, batch) = match mode {
                Mode::Sync if trained => (true, Some(1)),
                _ => (resume.deal(&mut rng), cohort_batch.deal(&mut rng)),
            };
            let p = Presentation {
                transport,
                sharded: store_backed && (trained || sharded.deal(&mut rng)),
                mode,
                trace: trace.deal(&mut rng),
                cohort_batch: batch,
                resume: resumed.then(|| {
                    let first = match (mode, rng.gen_bool(0.5)) {
                        (Mode::Sync, true) => Transport::Threads(2),
                        _ => Transport::InProc,
                    };
                    (rng.gen_range(1..s.rounds), first)
                }),
                explicit_faults: true,
            };
            presentations.push(p);
        }
        out.push((s, presentations));
    }
    out
}

/// The property over the whole plan, two scenarios at a time (a scenario
/// is a sequence of runs; the runs inside keep the process's width).
#[test]
fn every_presentation_of_a_scenario_yields_one_history() {
    let plan = plan();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((s, presentations)) = plan.get(i) else { break };
                check(&i.to_string(), s, presentations);
            });
        }
    });
}

/// The draw reaches every value of every axis, and what the named anchors
/// in the other suites leave out: every algorithm over sockets, resumed
/// and a chunk per client against its in-process reference, every
/// store-backed one sharded, faults crossed with async and a spilled
/// store, and every fault model both async and over sockets.
#[test]
fn the_generator_draws_every_value_of_every_axis() {
    let plan = plan();
    let all: Vec<_> = plan.iter().flat_map(|(s, ps)| ps.iter().map(move |p| (s, p))).collect();
    let seen = |f: &dyn Fn(&Scenario, &Presentation) -> bool| all.iter().any(|(s, p)| f(s, p));
    for t in [Transport::InProc, Transport::Threads(2), Transport::Threads(3)] {
        assert!(seen(&|_, p| p.transport == t), "{t:?}");
    }
    // A checkpoint written in-process resumes over sockets (the other way
    // round is `transport.rs`'s `server_killed_…` anchor).
    let crossed = |p: &Presentation| p.resume.is_some_and(|(_, first)| first == Transport::InProc);
    assert!(seen(&|_, p| crossed(p) && p.transport != Transport::InProc), "resumed over sockets");
    for mode in [Mode::Sync, Mode::Async, Mode::AsyncLink, Mode::Buffered] {
        assert!(seen(&|_, p| p.mode == mode), "{mode:?}");
    }
    for trace in [Trace::Off, Trace::Record, Trace::Sink] {
        assert!(seen(&|_, p| p.trace == trace), "{trace:?}");
    }
    for batch in [None, Some(1), Some(3)] {
        assert!(seen(&|_, p| p.cohort_batch == batch), "{batch:?}");
    }
    for algo in 0..9 {
        // Resumed over sockets with a chunk per client, spilled if it can.
        let socket_run = |s: &Scenario, p: &Presentation| {
            s.algo == Some(algo)
                && p.transport != Transport::InProc
                && p.resume.is_some()
                && p.cohort_batch == Some(1)
                && p.sharded == STORE_BACKED.contains(&algo)
        };
        assert!(seen(&socket_run), "algorithm {algo} has no such socket run");
    }
    assert!(
        seen(&|s, p| s.faults != 0 && p.sharded && p.mode != Mode::Sync),
        "faults, async and a spilled store at once"
    );
    for faults in 0..fault_modes().len() {
        assert!(seen(&|s, p| s.faults == faults && p.mode != Mode::Sync), "fault mode {faults}, async");
        assert!(
            seen(&|s, p| s.faults == faults && p.transport != Transport::InProc),
            "fault mode {faults}, sockets"
        );
    }
}
