//! The cohort driver: the one place a sampled cohort is streamed
//! through local training.
//!
//! Every algorithm's `FedAlgorithm::train_cohort` is this function plus
//! two closures — what a client needs from server-side mutable state
//! (`prepare`) and what the client then does on its own (`train`). The
//! driver owns the rest: the empty-cohort return, `cohort_batch`
//! chunking, the [`Phase::LocalUpdate`] span with its counters, and the
//! fan-out over a chunk's clients.
//!
//! That fan-out is [`fork_join`] from `kemf_tensor::par`, the stack's one
//! parallel region (Algorithm 1 trains the sampled clients "in
//! parallel"): a chunk's prepared clients are cut into one contiguous
//! share per thread of the compute width, the calling thread trains the
//! first and a parked helper each of the others, and the results come
//! back in sampled order. A client's training reads only shared immutable
//! state and owns its model, workspace and RNG stream, so what it
//! computes does not depend on which thread ran it or on what ran beside
//! it: histories are bit-identical at every width (`scripts/ci.sh` runs
//! the pinned-hash suites at `KEMF_THREADS=1`, `=2` and `=3`). A client
//! is a share, and everything it calls runs on its own thread: at most
//! `width` models, workspaces and lowering buffers are live at a time,
//! and the width is never oversubscribed. At width 1
//! nothing is started. The server-side teacher pass (`kemf_core::distill`),
//! whose ensemble members are as independent as clients, and a socket
//! round's worker links (`crate::transport`), each of which talks only to
//! its own worker, use the same function.

use crate::context::FlContext;
use crate::engine::EngineError;
use crate::scheduler::PreparedUpdate;
use crate::trace::{Phase, RoundScope};
use kemf_tensor::par::fork_join;

/// Train `sampled` in `cohort_batch`-sized chunks and return one
/// [`PreparedUpdate`] per client, in order.
///
/// Per chunk, `prepare(k)` runs sequentially for each client — it may
/// borrow the algorithm mutably (a client-store fetch) and its error
/// aborts the cohort — then `train(k, prepared)` runs for the chunk's
/// clients independently of one another — concurrently, at the process's
/// compute width — reading only shared immutable state. Only one chunk's
/// prepared state is live at a time, and of its clients only one per
/// thread is training; the returned updates (transmitted payloads and
/// deferred store commits) are O(cohort).
pub fn train_cohort<S: Send>(
    sampled: &[usize],
    ctx: &FlContext,
    scope: &mut RoundScope<'_>,
    mut prepare: impl FnMut(usize) -> Result<S, EngineError>,
    train: impl Fn(usize, S) -> PreparedUpdate + Sync,
) -> Result<Vec<PreparedUpdate>, EngineError> {
    if sampled.is_empty() {
        return Ok(Vec::new());
    }
    let chunk = ctx.cfg.cohort_chunk(sampled.len());
    let mut out: Vec<PreparedUpdate> = Vec::with_capacity(sampled.len());
    scope.phase(Phase::LocalUpdate, |c| -> Result<(), EngineError> {
        for batch in sampled.chunks(chunk) {
            let mut staged = Vec::with_capacity(batch.len());
            for &k in batch {
                staged.push((k, prepare(k)?));
            }
            let trained = fork_join(staged, |(k, s)| train(k, s));
            c.clients += trained.len();
            c.steps += trained.iter().map(|u| u.steps as u64).sum::<u64>();
            c.batches = c.steps;
            out.extend(trained);
        }
        Ok(())
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client_store::StoreError;
    use crate::config::FlConfig;
    use crate::scheduler::UpdatePayload;
    use crate::trace::NoopSink;
    use kemf_data::synth::{SynthConfig, SynthTask};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn a_prepare_error_aborts_before_any_client_trains() {
        let task = SynthTask::new(SynthConfig::mnist_like(0));
        let cfg = FlConfig { n_clients: 6, min_per_client: 2, ..Default::default() };
        let ctx = FlContext::new(cfg, &task.generate(60, 0), task.generate(10, 1));
        let trained = AtomicUsize::new(0);
        let train = |k: usize, _: ()| {
            trained.fetch_add(1, Ordering::Relaxed);
            PreparedUpdate::new(k, &ctx, 1, 0.0, UpdatePayload::Empty)
        };
        let mut sink = NoopSink;
        let mut scope = RoundScope::new(&mut sink, 0);
        let refused = |k: usize| match k {
            3 => Err(EngineError::State(StoreError::Missing { client: k })),
            _ => Ok(()),
        };
        let err = train_cohort(&[0, 1, 3, 5], &ctx, &mut scope, refused, train).unwrap_err();
        assert!(matches!(err, EngineError::State(StoreError::Missing { client: 3 })), "{err}");
        assert_eq!(trained.load(Ordering::Relaxed), 0);

        let ok = train_cohort(&[0, 1, 3, 5], &ctx, &mut scope, |_| Ok(()), train).unwrap();
        assert_eq!(ok.iter().map(|u| u.client).collect::<Vec<_>>(), [0, 1, 3, 5]);
        assert_eq!(trained.load(Ordering::Relaxed), 4);
    }
}
