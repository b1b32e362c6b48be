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
//! That fan-out is [`fork_join`], the stack's one parallel region
//! (Algorithm 1 trains the sampled clients "in parallel"): a chunk's
//! prepared clients are cut into [`init_thread_pool`] contiguous shares,
//! the calling thread trains the first and a scoped thread each of the
//! others, and the shares' results are concatenated in sampled order. A
//! client's training reads only shared immutable state and owns its
//! model, workspace and RNG stream, so what it computes does not depend
//! on which thread ran it or on what ran beside it: histories are
//! bit-identical at every width (`scripts/ci.sh` runs the pinned-hash
//! suites at `KEMF_THREADS=1` and `=2`). At width 1 it is the same code
//! and nothing is spawned. Kernels stay single-threaded: a client is the
//! unit of parallelism, so at most `width` models, workspaces and
//! lowering buffers are live at a time. The server-side teacher pass
//! (`kemf_core::distill`), whose ensemble members are as independent as
//! clients, borrows the same function.

use crate::context::FlContext;
use crate::engine::{init_thread_pool, EngineError};
use crate::scheduler::PreparedUpdate;
use crate::trace::{Phase, RoundScope};
use kemf_tensor::simd::{force_scalar, scalar_forced};

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

/// `items.map(f)`, in order, computed at the process's compute width
/// ([`init_thread_pool`]): the items are cut into `min(width, len)`
/// contiguous shares whose sizes differ by at most one, the calling thread
/// maps the first share and a scoped thread each of the others.
///
/// Workers inherit the caller's kernel tier (`force_scalar` is a
/// per-thread override and would otherwise stop at the spawn). A panic in
/// `f` reaches the caller with its own payload whichever thread it
/// happened on, after every worker has been joined.
pub fn fork_join<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    fork_join_at(items, init_thread_pool(), f)
}

/// [`fork_join`] at an explicit width (the process's is settled once, so
/// tests of widths 1, 2 and 3 come through here).
fn fork_join_at<T: Send, R: Send>(
    items: Vec<T>,
    width: usize,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let total = items.len();
    let workers = width.clamp(1, total.max(1));
    let (base, extra) = (total / workers, total % workers);
    let mut items = items.into_iter();
    let mut shares = (0..workers)
        .map(|w| items.by_ref().take(base + usize::from(w < extra)).collect::<Vec<T>>());
    let map_share = |share: Vec<T>| share.into_iter().map(&f).collect::<Vec<R>>();
    let first = shares.next().expect("at least one share");
    let scalar = scalar_forced();
    std::thread::scope(|s| {
        let spawned: Vec<_> = shares
            .map(|share| {
                s.spawn(|| {
                    force_scalar(scalar);
                    map_share(share)
                })
            })
            .collect();
        let mut out = Vec::with_capacity(total);
        out.extend(map_share(first));
        for worker in spawned {
            match worker.join() {
                Ok(part) => out.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client_store::StoreError;
    use crate::config::FlConfig;
    use crate::scheduler::UpdatePayload;
    use crate::trace::NoopSink;
    use kemf_data::synth::{SynthConfig, SynthTask};
    use kemf_tensor::simd::ScalarGuard;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::{self, ThreadId};

    #[test]
    fn results_keep_sampled_order_and_every_item_runs_once_at_every_width() {
        for len in [0usize, 1, 2, 3, 5, 8] {
            for width in [1usize, 2, 3] {
                let runs: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
                let out = fork_join_at((0..len).collect(), width, |k| {
                    runs[k].fetch_add(1, Ordering::Relaxed);
                    (k * 10, thread::current().id())
                });
                let order: Vec<usize> = out.iter().map(|(v, _)| *v).collect();
                assert_eq!(order, (0..len).map(|k| k * 10).collect::<Vec<_>>(), "{len} @ {width}");
                assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1), "{len} @ {width}");
                // One thread per share — uneven shares and width > len
                // included — each share contiguous, the first the caller's.
                let threads: Vec<ThreadId> = out.iter().map(|(_, t)| *t).collect();
                let distinct: HashSet<ThreadId> = threads.iter().copied().collect();
                assert_eq!(distinct.len(), width.min(len), "{len} @ {width}");
                assert!(threads.first().is_none_or(|t| *t == thread::current().id()));
                let switches = threads.windows(2).filter(|w| w[0] != w[1]).count();
                assert_eq!(switches, distinct.len().saturating_sub(1), "{len} @ {width}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "client 4 exploded")]
    fn a_panic_on_a_worker_reaches_the_caller_with_its_payload() {
        // Shares at width 2 are [0, 1, 2] and [3, 4]: client 4 is a
        // spawned worker's.
        fork_join_at((0..5).collect(), 2, |k: usize| {
            assert!(k != 4, "client {k} exploded");
            k
        });
    }

    #[test]
    fn workers_inherit_the_callers_kernel_tier() {
        let tiers = |width| fork_join_at((0..5).collect(), width, |_: usize| scalar_forced());
        {
            let _scalar = ScalarGuard::new();
            assert_eq!(tiers(3), [true; 5], "the scalar override must cross the spawn");
            assert!(scalar_forced());
        }
        assert!(!scalar_forced(), "the caller's flag is the guard's to restore");
        assert_eq!(tiers(3), [false; 5]);
    }

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
