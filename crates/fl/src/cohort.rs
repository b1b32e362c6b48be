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
//! That fan-out is the only `par_iter` under `crates/{fl,core}/src`.
//! `vendor/rayon` is a sequential stand-in, so today a chunk's clients
//! train one after another on the calling thread; the `Send`/`Sync`
//! bounds below are what real client-level fork-join needs, and this is
//! the single function it has to change (ROADMAP item 3). Results come
//! back in sampled order either way, so histories do not depend on it.

use crate::context::FlContext;
use crate::engine::EngineError;
use crate::scheduler::PreparedUpdate;
use crate::trace::{Phase, RoundScope};
use rayon::prelude::*;

/// Train `sampled` in `cohort_batch`-sized chunks and return one
/// [`PreparedUpdate`] per client, in order.
///
/// Per chunk, `prepare(k)` runs sequentially for each client — it may
/// borrow the algorithm mutably (a client-store fetch) and its error
/// aborts the cohort — then `train(k, prepared)` runs for the chunk's
/// clients independently of one another, reading only shared immutable
/// state. Only one chunk's prepared state, models and workspaces are
/// live at a time; the returned updates (transmitted payloads and
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
            let trained: Vec<PreparedUpdate> =
                staged.into_par_iter().map(|(k, s)| train(k, s)).collect();
            c.clients += trained.len();
            c.steps += trained.iter().map(|u| u.steps as u64).sum::<u64>();
            c.batches = c.steps;
            out.extend(trained);
        }
        Ok(())
    })?;
    Ok(out)
}
