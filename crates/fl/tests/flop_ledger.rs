//! The GEMM FLOP counter under the cohort driver's fork-join: a cohort
//! trained on two threads must credit exactly the FLOPs the same clients
//! credit one after another on the calling thread. The counter is one
//! process-wide atomic and phase spans report its deltas, so a lost
//! update would show up as a trace that disagrees with the model's
//! analytic FLOP table.
//!
//! This file holds exactly one test: the counter is process-global (a
//! concurrent test would add to it) and the compute width is settled once
//! per process, here through `KEMF_THREADS` before anything reads it.

use kemf_data::synth::{SynthConfig, SynthTask};
use kemf_fl::cohort::train_cohort;
use kemf_fl::config::FlConfig;
use kemf_fl::context::FlContext;
use kemf_fl::engine::init_thread_pool;
use kemf_fl::trace::{NoopSink, RoundScope};
use kemf_fl::weight_common::{train_state_update, GlobalModel};
use kemf_nn::models::{Arch, ModelSpec};
use kemf_tensor::flops;

#[test]
fn a_cohort_at_width_two_credits_the_flops_of_the_same_clients_in_sequence() {
    std::env::set_var("KEMF_THREADS", "2");
    assert_eq!(init_thread_pool(), 2);

    let task = SynthTask::new(SynthConfig::mnist_like(5));
    let cfg = FlConfig { n_clients: 5, min_per_client: 8, batch_size: 8, ..Default::default() };
    let ctx = FlContext::new(cfg, &task.generate(120, 0), task.generate(10, 1));
    let global = GlobalModel::new(ModelSpec::scaled(Arch::Cnn2, 1, 12, 10, 3));
    let train = |k: usize, _: ()| train_state_update(&global.state, global.spec, 0, k, &ctx, None);
    // Uneven shares: three clients on the caller, two on the worker.
    let sampled = [0usize, 1, 2, 3, 4];

    let before = flops::total();
    let inline: Vec<_> = sampled.iter().map(|&k| train(k, ())).collect();
    let sequential = flops::total() - before;
    assert!(sequential > 0);

    let mut sink = NoopSink;
    let mut scope = RoundScope::new(&mut sink, 0);
    let before = flops::total();
    let forked = train_cohort(&sampled, &ctx, &mut scope, |_| Ok(()), train).unwrap();
    assert_eq!(flops::total() - before, sequential, "the ledger lost or invented FLOPs");

    // And the threads computed what the caller alone computes.
    for (a, b) in inline.iter().zip(&forked) {
        assert_eq!((a.client, a.steps, a.loss.to_bits()), (b.client, b.steps, b.loss.to_bits()));
        assert!(a.payload == b.payload, "client {} trained differently on a worker", a.client);
    }
}
