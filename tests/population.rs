//! Integration: the sharded client-state store at the population scale
//! the paper's cross-device setting implies. A spilled blob round-trips
//! bit-exactly — any f32 payload, NaN and signed zero included, by bit
//! pattern — through commit → reopen → fetch, and a sharded checkpoint
//! refuses a population of another size, and FedKEMF over a sharded
//! store yields the eager history, for any cohort batch and across a kill
//! and resume, as FedMD does resumed into an aborted round
//! (`equivalence.rs`'s property).

mod common;

use common::equivalence::{check, trained, Presentation, Scenario, Transport, PLAIN};
use common::{all_algorithms, temp_dir, world};
use fedkemf::fl::engine::Engine;
use fedkemf::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn spilled_blob_round_trips_bit_exactly(
        bits in prop::collection::vec(0u32..=u32::MAX, 48),
        client in 0usize..40,
        round in 0usize..5,
    ) {
        // Arbitrary bit patterns, with the adversarial ones (quiet and
        // signaling NaN, signed zero, infinities) always present.
        let mut values: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        values.extend([f32::NAN, f32::from_bits(0x7F80_0001), -0.0, f32::INFINITY, f32::NEG_INFINITY]);
        let dims = vec![values.len()];
        let blob = ClientBlob::new().with_tensor("payload", dims, values);
        let dir = temp_dir("population_roundtrip");
        let mut store = ClientStateStore::sharded(40, SpillConfig::new(&dir)).unwrap();
        store.begin_round(round);
        store.commit(client, blob.clone()).unwrap();
        // A reopened store (a resumed process) in the next round must
        // fetch exactly the committed bits — NaN payloads included.
        let mut reopened = ClientStateStore::sharded(40, SpillConfig::new(&dir)).unwrap();
        reopened.begin_round(round + 1);
        let back = reopened.fetch(client, |_| ClientBlob::new()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(back, blob);
    }
}

/// The same seeds with the client models spilled to disk, two of four
/// clients a round so the others skip rounds, and a degenerate one-client
/// cohort batch: memory changes, the math does not.
#[test]
fn sharded_fedkemf_matches_eager_bit_for_bit() {
    let s = Scenario { rounds: 5, sample_ratio: 0.5, ..trained(6, 0, 91) };
    let sharded =
        [None, Some(1)].map(|cohort_batch| Presentation { sharded: true, cohort_batch, ..PLAIN });
    check("sharded_kemf", &s, &sharded);
}

/// A sharded FedKEMF killed after round 4 and resumed over the spill
/// directory its write-through commits left behind replays the eager run
/// (straight sharded == eager is the test above). So does a sharded FedMD,
/// which evaluates its clients' own models, resumed into a round that
/// aborts on quorum: the reopened store is told the round it resumes
/// into, so no cohort has to train for it to read the current models.
#[test]
fn sharded_kill_and_resume_is_byte_identical() {
    let s = Scenario { rounds: 8, ..trained(6, 0, 92) };
    let resumed = Presentation {
        sharded: true,
        cohort_batch: Some(2),
        resume: Some((4, Transport::InProc)),
        ..PLAIN
    };
    check("sharded_resume", &s, &[resumed]);
    let resumed = Presentation { sharded: true, resume: Some((2, Transport::InProc)), ..PLAIN };
    check("sharded_resume_fedmd", &trained(5, 1, 410), &[resumed]);
}

#[test]
fn sharded_restore_refuses_a_mismatched_population() {
    // A sharded checkpoint records the population size; restoring it
    // into a differently-sized population must be a typed refusal.
    let spill = temp_dir("population_mismatch");
    let (ctx, task) = world(93, 2);
    let mut algo = all_algorithms(&ctx, &task, Some(&spill)).swap_remove(6);
    let _ = Engine::run(algo.as_mut(), &ctx, RunOptions::new()).unwrap();
    let state = algo.state().unwrap();

    let bigger = SynthTask::new(SynthConfig::mnist_like(93));
    let train = bigger.generate(320, 0);
    let test = bigger.generate(80, 1);
    let cfg = FlConfig { n_clients: 8, min_per_client: 10, seed: 93, ..Default::default() };
    let ctx8 = FlContext::new(cfg, &train, test);
    let spill8 = temp_dir("population_mismatch8");
    let mut other = all_algorithms(&ctx8, &bigger, Some(&spill8)).swap_remove(6);
    other.init(&ctx8).unwrap();
    let err = other.restore(&state).unwrap_err();
    assert!(
        matches!(err, RestoreError::ShapeMismatch { .. }),
        "expected ShapeMismatch, got {err:?}"
    );
    for d in [&spill, &spill8] {
        let _ = std::fs::remove_dir_all(d);
    }
}
