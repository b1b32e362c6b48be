//! The stack's one parallel region: a fork-join over the process's
//! compute width, run by the calling thread and `width − 1` helper
//! threads that are started on first use and parked between jobs.
//!
//! Two entry points share it. [`fork_join`] maps independent items — a
//! cohort's clients, an ensemble's teachers — in contiguous shares and
//! returns the results in item order. [`split`] partitions the *outputs*
//! of one product or pass — the images of a convolution, the channels of
//! a batch norm — into contiguous unit ranges, one per thread, handing each
//! thread the parts of the output slices that belong to its range
//! ([`Share`]). Either way every output element is computed by exactly one
//! thread, by the code that would compute it inline, so results do not
//! depend on the width or on which thread ran what: an FMA chain is never
//! cut, only the set of chains is.
//!
//! **The width is a budget.** A thread running a share is *inside* the
//! region, and any `fork_join` or `split` it calls runs inline on it: a
//! client trained inside a cohort, or a teacher inside the teacher pass,
//! keeps its layers on its own thread, and the process never runs more
//! than `width` threads of compute. A call from outside the region while
//! another thread has the helpers also runs inline. Width 1 never starts a
//! thread.
//!
//! **Helpers.** Each helper owns one job slot. The caller posts the
//! later shares to the helpers, runs the first share itself, and waits for
//! every helper before it returns — or unwinds: a panic in any share is
//! resumed on the caller with its own payload, after the join. A helper
//! sets the caller's kernel tier ([`crate::simd::force_scalar`] is
//! per-thread) before each job. Between jobs a helper spins for
//! [`SPIN`] — long enough to take the next layer's product of a training
//! step without a wake-up — and then parks, so it holds no core through
//! anything slower (a socket broadcast, a checkpoint). Helpers live as
//! long as the process; what they keep in thread-locals (a convolution
//! lowering buffer, a GEMM pack pool) is reached through `each_thread`
//! (`crate::conv::release_lowering` frees the lowering buffers).

use crate::simd::{force_scalar, scalar_forced};
use std::any::Any;
use std::cell::Cell;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// Settle the process's compute width exactly once and return it:
/// `KEMF_THREADS`, or one per available core when unset or `0`. This is
/// the only width control: [`fork_join`] and [`split`] use at most this
/// many threads, the caller's included. Nothing is spawned here.
pub fn width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| {
        let env_threads = std::env::var("KEMF_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0);
        let requested =
            env_threads.unwrap_or_else(|| thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
        // A build failure means the width was fixed before us (e.g. by a
        // test harness); inherit it rather than abort — but if the user
        // asked for a specific width via KEMF_THREADS and lost, say so once
        // instead of silently running at the wrong parallelism.
        let already_built = rayon::ThreadPoolBuilder::new().num_threads(requested).build_global().is_err();
        let actual = rayon::current_num_threads();
        if already_built && env_threads.is_some() && actual != requested {
            eprintln!(
                "warning: KEMF_THREADS={requested} requested, but the compute width was \
                 already fixed at {actual} thread(s); running on {actual}"
            );
        }
        actual
    })
}

/// Work below which a [`split`] runs inline, in FLOPs — and the least
/// work each thread of a split is given.
///
/// Derived from `bench_kernels`' `par_handoff` row
/// (`bench_results/BENCH_kernels.json`, 2-core AVX-512 host): an empty
/// split costs ≈ 1 µs round trip through a spinning helper (1.08 µs in
/// the committed run; 7.5 µs through a parked one, 28 µs for a
/// `thread::scope` spawn + join). A share must carry at least twice the
/// handoff to come out ahead, ≈ 2 µs of work: at the ≈ 30 GFLOP/s a
/// training step's convolution products reach on one core, 64 KFLOP.
pub const SPLIT_FLOOR: u64 = 64 * 1024;

/// What one element of a memory-bound pass (batch norm, ReLU, a residual
/// add, pooling) counts in [`SPLIT_FLOOR`]'s FLOPs. Those passes take
/// ≈ 0.5 ns an element against ≈ 30 ps a FLOP of a product, so an element
/// counts 16 and a pass splits from 8 K elements (4 K per share) up.
pub const ELEMENT_FLOPS: u64 = 16;

/// How long a helper (or a caller waiting for one) spins before it
/// parks: longer than the gaps between the products of one training step
/// (a step at batch 32 runs as fast at 5 µs as at 200), short against a
/// socket broadcast or a checkpoint.
pub const SPIN: Duration = Duration::from_micros(20);

thread_local! {
    /// Set while this thread runs a share (always, on a helper).
    static IN_SHARE: Cell<bool> = const { Cell::new(false) };
}

/// True while the calling thread runs a share of [`fork_join`] or
/// [`split`]: a nested call runs inline.
fn inside_share() -> bool {
    IN_SHARE.with(Cell::get)
}

/// Run `f` as a share: nested calls inside it run inline.
fn as_share<R>(f: impl FnOnce() -> R) -> R {
    let outer = IN_SHARE.with(|s| s.replace(true));
    let r = f();
    IN_SHARE.with(|s| s.set(outer));
    r
}

/// Outputs a [`split`] hands out by range: a slice of `len` equal units
/// (`unit = slice.len() / len` elements each — an image, a channel, an
/// element), an optional one, or a tuple of them cut at the same unit
/// boundaries.
pub trait Share: Send + Sized {
    /// The part holding the first `head` of `len` units, and the rest.
    fn cut(self, head: usize, len: usize) -> (Self, Self);
}

impl Share for () {
    fn cut(self, _head: usize, _len: usize) -> ((), ()) {
        ((), ())
    }
}

impl<T: Send> Share for &mut [T] {
    fn cut(self, head: usize, len: usize) -> (Self, Self) {
        let unit = self.len() / len;
        assert_eq!(unit * len, self.len(), "a split output must hold whole units");
        self.split_at_mut(head * unit)
    }
}

impl<S: Share> Share for Option<S> {
    fn cut(self, head: usize, len: usize) -> (Self, Self) {
        match self {
            Some(s) => {
                let (a, b) = s.cut(head, len);
                (Some(a), Some(b))
            }
            None => (None, None),
        }
    }
}

impl<A: Share, B: Share> Share for (A, B) {
    fn cut(self, head: usize, len: usize) -> (Self, Self) {
        let ((a0, a1), (b0, b1)) = (self.0.cut(head, len), self.1.cut(head, len));
        ((a0, b0), (a1, b1))
    }
}

impl<A: Share, B: Share, C: Share> Share for (A, B, C) {
    fn cut(self, head: usize, len: usize) -> (Self, Self) {
        let ((a0, a1), ((b0, c0), (b1, c1))) = (self.0.cut(head, len), (self.1, self.2).cut(head, len));
        ((a0, b0, c0), (a1, b1, c1))
    }
}

/// `f(0..len, outs)`, its range cut into contiguous shares — one per
/// thread, at most one per [`SPLIT_FLOOR`] of `flops` (the call's whole
/// work) — each thread handed its range and its part of `outs`. Inline
/// below the floor, at width 1, inside a share, and while another thread
/// has the helpers. Returns how many shares ran.
///
/// `f` must compute each unit's outputs from the unit alone (its image,
/// its channel), in the order the inline call would: then the result is
/// the inline call's, bit for bit, at every width.
pub fn split<S: Share>(len: usize, flops: u64, outs: S, f: impl Fn(Range<usize>, S) + Sync) -> usize {
    split_at(width(), len, flops, outs, &f)
}

fn split_at<S: Share>(
    width: usize,
    len: usize,
    flops: u64,
    outs: S,
    f: &(impl Fn(Range<usize>, S) + Sync),
) -> usize {
    let parts = width.min(len).min(usize::try_from(flops / SPLIT_FLOOR).unwrap_or(usize::MAX));
    match (parts > 1 && !inside_share()).then(|| Team::take(parts - 1)).flatten() {
        Some(team) => team.run(parts, len, outs, f),
        None => {
            f(0..len, outs);
            1
        }
    }
}

/// `items.map(f)`, in order, at the process's compute width: the items
/// are cut into `min(width, len)` contiguous shares whose sizes differ by
/// at most one; the calling thread maps the first share and a helper each
/// of the others. Every item runs inside a share, so what `f` calls runs
/// on that item's thread.
pub fn fork_join<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    fork_join_at(width(), items, f)
}

/// [`fork_join`] at an explicit width (the process's is settled once, so
/// tests of widths 1, 2 and 3 come through here).
fn fork_join_at<T: Send, R: Send>(width: usize, items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let len = items.len();
    let mut items: Vec<Option<T>> = items.into_iter().map(Some).collect();
    let mut out: Vec<Option<R>> = (0..len).map(|_| None).collect();
    let map = |_: Range<usize>, (items, out): (&mut [Option<T>], &mut [Option<R>])| {
        for (item, r) in items.iter_mut().zip(out) {
            *r = Some(f(item.take().expect("each item runs once")));
        }
    };
    let parts = width.min(len);
    match (parts > 1 && !inside_share()).then(|| Team::take(parts - 1)).flatten() {
        Some(team) => {
            team.run(parts, len, (&mut items[..], &mut out[..]), &map);
        }
        None => as_share(|| map(0..len, (&mut items[..], &mut out[..]))),
    }
    out.into_iter().map(|r| r.expect("every item ran")).collect()
}

/// Run `f` on the calling thread and — outside a share, unless another
/// thread has them — on every helper started so far, once each: for
/// per-thread state a caller must reach on every thread that may have
/// worked for it (the convolution lowering buffer).
pub(crate) fn each_thread(f: impl Fn() + Sync) {
    let started = STARTED.load(Ordering::Acquire);
    match (started > 0 && !inside_share()).then(|| Team::take(started)).flatten() {
        Some(team) => {
            let all = team.helpers.len() + 1;
            team.run(all, all, (), &|_, ()| f());
        }
        None => f(),
    }
}

/// Helper threads this process has started (never more than `width − 1`
/// of any one caller's asking).
pub fn helpers_started() -> usize {
    STARTED.load(Ordering::Acquire)
}

/// Every helper started so far; whoever holds the lock posts to them.
static HELPERS: Mutex<Vec<&'static Helper>> = Mutex::new(Vec::new());
static STARTED: AtomicUsize = AtomicUsize::new(0);

/// A caller's hold on the helpers, for one call.
struct Team {
    helpers: MutexGuard<'static, Vec<&'static Helper>>,
}

impl Team {
    /// The helpers, `want` of them started if need be — or `None` while
    /// another caller has them.
    fn take(want: usize) -> Option<Team> {
        let mut helpers = match HELPERS.try_lock() {
            Ok(h) => h,
            // A panic unwound through a holder (a share's panic is resumed
            // only after the lock is let go, so a bad cut): every helper it
            // had posted to was joined on the way out and is idle.
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        while helpers.len() < want {
            match Helper::start(helpers.len() + 1) {
                Some(h) => helpers.push(h),
                None => break,
            }
            STARTED.store(helpers.len(), Ordering::Release);
        }
        (!helpers.is_empty()).then_some(Team { helpers })
    }

    /// Cut `0..len` into `parts` contiguous shares (fewer if fewer
    /// helpers could be started), the first the caller's, run them, and
    /// resume the first panic after the join.
    fn run<S: Share>(self, parts: usize, len: usize, outs: S, f: &(impl Fn(Range<usize>, S) + Sync)) -> usize {
        let parts = parts.min(self.helpers.len() + 1);
        let mut cuts = Cuts { rest: Some(outs), len, parts, next: 0 };
        let mine = cuts.next().expect("at least one share");
        let panic = spread(&self.helpers[..parts - 1], mine, &mut cuts, f);
        drop(self);
        if let Some(payload) = panic {
            panic::resume_unwind(payload);
        }
        parts
    }
}

/// The shares of a split, in order: `parts` contiguous ranges of `0..len`
/// whose sizes differ by at most one, with their parts of the outputs.
struct Cuts<S> {
    rest: Option<S>,
    len: usize,
    parts: usize,
    next: usize,
}

impl<S: Share> Iterator for Cuts<S> {
    type Item = (Range<usize>, S);

    fn next(&mut self) -> Option<Self::Item> {
        let rest = self.rest.take()?;
        let start = |w: usize| w * (self.len / self.parts) + w.min(self.len % self.parts);
        let range = start(self.next)..start(self.next + 1);
        self.next += 1;
        if self.next == self.parts {
            return Some((range, rest));
        }
        let (head, tail) = rest.cut(range.len(), self.len - range.start);
        self.rest = Some(tail);
        Some((range, head))
    }
}

type Payload = Box<dyn Any + Send>;

/// Post the next share to the first of `helpers`, recurse for the rest,
/// run `mine` on this thread once all are posted, then join in reverse.
/// Returns the first panic: the caller's, else the earliest helper's.
fn spread<S: Share, F: Fn(Range<usize>, S) + Sync>(
    helpers: &[&'static Helper],
    mine: (Range<usize>, S),
    cuts: &mut Cuts<S>,
    f: &F,
) -> Option<Payload> {
    match (helpers.split_first(), cuts.next()) {
        (Some((&helper, others)), Some(theirs)) => {
            let slot = Mutex::new(Some(theirs));
            let job = || {
                let theirs = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
                let (range, share) = theirs.expect("one run per share");
                f(range, share)
            };
            let posted = helper.post(&job);
            let first = spread(others, mine, cuts, f);
            let theirs = posted.join();
            first.or(theirs)
        }
        _ => as_share(|| panic::catch_unwind(AssertUnwindSafe(|| f(mine.0, mine.1))).err()),
    }
}

/// Job-slot states.
const IDLE: u8 = 0;
const POSTED: u8 = 1;
const DONE: u8 = 2;

/// One parked helper thread and its job slot.
struct Helper {
    thread: OnceLock<Thread>,
    state: AtomicU8,
    job: Mutex<Option<Job>>,
    panic: Mutex<Option<Payload>>,
}

/// What a caller posts: the share to run, the kernel tier to run it at,
/// and whom to wake when it is done.
struct Job {
    run: &'static (dyn Fn() + Sync),
    scalar: bool,
    caller: Thread,
}

impl Helper {
    /// Start helper `index`, or `None` if the OS refuses a thread (the
    /// split then runs on fewer).
    fn start(index: usize) -> Option<&'static Helper> {
        let helper: &'static Helper = Box::leak(Box::new(Helper {
            thread: OnceLock::new(),
            state: AtomicU8::new(IDLE),
            job: Mutex::new(None),
            panic: Mutex::new(None),
        }));
        // Detached on purpose: a helper serves until the process exits,
        // and a share's panic is caught on it and resumed on its caller.
        let handle = thread::Builder::new().name(format!("kemf-par-{index}")).spawn(move || helper.serve()).ok()?;
        helper.thread.set(handle.thread().clone()).expect("a new helper has no handle yet");
        Some(helper)
    }

    fn serve(&self) {
        IN_SHARE.with(|s| s.set(true));
        loop {
            wait_until(|| self.state.load(Ordering::Acquire) == POSTED);
            let job = self.job.lock().unwrap_or_else(PoisonError::into_inner).take().expect("a posted job");
            force_scalar(job.scalar);
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(job.run)) {
                *self.panic.lock().unwrap_or_else(PoisonError::into_inner) = Some(payload);
            }
            // `job.run` borrows the caller's frame: it is not touched after
            // this store, which lets the caller return.
            self.state.store(DONE, Ordering::Release);
            job.caller.unpark();
        }
    }

    /// Hand `run` to this helper. The returned guard waits for it to
    /// finish when joined or dropped, so `run` outlives its use.
    fn post<'a>(&'static self, run: &'a (dyn Fn() + Sync + 'a)) -> Posted<'a> {
        // SAFETY: only the lifetime changes (same fat-pointer layout). The
        // helper calls `run` only between this post and its DONE store,
        // and the `Posted` guard returned here — which borrows `run` for
        // `'a` — does not let its holder's frame go, by return or by
        // unwind, before it has seen DONE: `join` waits for it, and so
        // does `Drop`.
        let run: &'static (dyn Fn() + Sync) = unsafe { std::mem::transmute(run) };
        let job = Job { run, scalar: scalar_forced(), caller: thread::current() };
        *self.job.lock().unwrap_or_else(PoisonError::into_inner) = Some(job);
        self.state.store(POSTED, Ordering::Release);
        self.thread.get().expect("set at start").unpark();
        Posted { helper: self, _run: PhantomData }
    }
}

/// A posted job not yet seen to finish.
struct Posted<'a> {
    helper: &'static Helper,
    _run: PhantomData<&'a ()>,
}

impl Posted<'_> {
    /// Wait for the helper; its share's panic, if it had one.
    fn join(self) -> Option<Payload> {
        wait_until(|| self.helper.state.load(Ordering::Acquire) == DONE);
        self.helper.panic.lock().unwrap_or_else(PoisonError::into_inner).take()
    }
}

impl Drop for Posted<'_> {
    fn drop(&mut self) {
        wait_until(|| self.helper.state.load(Ordering::Acquire) == DONE);
        drop(self.helper.panic.lock().unwrap_or_else(PoisonError::into_inner).take());
        self.helper.state.store(IDLE, Ordering::Relaxed);
    }
}

/// Spin on `ready` for [`SPIN`], then park until it holds (every state
/// change is followed by an `unpark` of the waiting side).
fn wait_until(ready: impl Fn() -> bool) {
    let start = Instant::now();
    while !ready() {
        if start.elapsed() < SPIN {
            std::hint::spin_loop();
        } else {
            thread::park();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::ScalarGuard;
    use std::collections::HashSet;
    use std::thread::ThreadId;

    /// The helpers are process-wide: tests that count on having them run
    /// one at a time.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn width_is_settled_once_and_recorded_in_the_registry() {
        let (a, b) = (width(), width());
        assert_eq!(a, b);
        assert!(a >= 1);
        assert_eq!(a, rayon::current_num_threads());
    }

    #[test]
    fn results_keep_item_order_and_every_item_runs_once_at_every_width() {
        let _serial = serial();
        for len in [0usize, 1, 2, 3, 5, 8] {
            for width in [1usize, 2, 3] {
                let runs: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
                let out = fork_join_at(width, (0..len).collect(), |k| {
                    runs[k].fetch_add(1, Ordering::Relaxed);
                    (k * 10, thread::current().id(), inside_share())
                });
                let order: Vec<usize> = out.iter().map(|(v, ..)| *v).collect();
                assert_eq!(order, (0..len).map(|k| k * 10).collect::<Vec<_>>(), "{len} @ {width}");
                assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1), "{len} @ {width}");
                assert!(out.iter().all(|(.., share)| *share), "every item runs inside a share");
                // One thread per share — uneven shares and width > len
                // included — each share contiguous, the first the caller's.
                let threads: Vec<ThreadId> = out.iter().map(|(_, t, _)| *t).collect();
                let distinct: HashSet<ThreadId> = threads.iter().copied().collect();
                assert_eq!(distinct.len(), width.min(len), "{len} @ {width}");
                assert!(threads.first().is_none_or(|t| *t == thread::current().id()));
                let switches = threads.windows(2).filter(|w| w[0] != w[1]).count();
                assert_eq!(switches, distinct.len().saturating_sub(1), "{len} @ {width}");
            }
        }
        assert!(!inside_share(), "the caller leaves the region with its call");
    }

    #[test]
    fn split_ranges_cover_every_unit_once_and_hand_out_their_outputs() {
        let _serial = serial();
        for len in [1usize, 2, 3, 7, 64] {
            for width in [1usize, 2, 3] {
                let mut out = vec![usize::MAX; 2 * len];
                let mut owner = vec![None; len];
                type Outs<'a> = (&'a mut [usize], &'a mut [Option<ThreadId>]);
                let fill = |r: Range<usize>, (out, owner): Outs| {
                    assert_eq!((out.len(), owner.len()), (2 * r.len(), r.len()));
                    for (u, pair) in r.zip(out.chunks_exact_mut(2)) {
                        pair.fill(u);
                    }
                    owner.fill(Some(thread::current().id()));
                };
                let shares = split_at(width, len, u64::MAX, (&mut out[..], &mut owner[..]), &fill);
                assert_eq!(shares, width.min(len), "{len} @ {width}");
                let want: Vec<usize> = (0..len).flat_map(|u| [u, u]).collect();
                assert_eq!(out, want, "{len} @ {width}");
                let distinct: HashSet<ThreadId> = owner.iter().map(|t| t.expect("every unit ran")).collect();
                assert_eq!(distinct.len(), width.min(len), "{len} @ {width}");
                assert_eq!(owner[0], Some(thread::current().id()), "the first range is the caller's");
            }
        }
    }

    #[test]
    fn a_split_below_the_floor_runs_inline() {
        let _serial = serial();
        let mut seen = Vec::new();
        let here = thread::current().id();
        let seen_ref = Mutex::new(&mut seen);
        split_at(3, 8, 2 * SPLIT_FLOOR - 1, (), &|r: Range<usize>, ()| {
            seen_ref.lock().unwrap().push((r, thread::current().id()));
        });
        assert_eq!(seen, [(0..8, here)], "one floor's worth of work is one share");
    }

    #[test]
    fn a_nested_call_runs_inline_on_the_callers_thread() {
        let _serial = serial();
        let out = fork_join_at(2, vec![0usize, 1], |k| {
            let outer = thread::current().id();
            let inner = fork_join_at(2, vec![0usize, 1, 2], |_| thread::current().id());
            let mut split_threads = vec![None; 4];
            split_at(2, 4, u64::MAX, &mut split_threads[..], &|_, t: &mut [Option<ThreadId>]| {
                t.fill(Some(thread::current().id()));
            });
            (k, outer, inner, split_threads)
        });
        for (k, outer, inner, split_threads) in out {
            assert!(inner.iter().all(|t| *t == outer), "share {k}: nested fork_join left its thread");
            assert!(split_threads.iter().all(|t| *t == Some(outer)), "share {k}: nested split left its thread");
        }
    }

    #[test]
    fn width_one_starts_no_thread() {
        let _serial = serial();
        let before = helpers_started();
        let here = thread::current().id();
        let threads = fork_join_at(1, (0..4).collect(), |_: usize| thread::current().id());
        assert!(threads.iter().all(|t| *t == here));
        split_at(1, 4, u64::MAX, (), &|_, ()| assert_eq!(thread::current().id(), here));
        assert_eq!(helpers_started(), before, "width 1 must not start a helper");
    }

    #[test]
    #[should_panic(expected = "client 4 exploded")]
    fn a_panic_on_a_helper_reaches_the_caller_with_its_payload() {
        let _serial = serial();
        // Shares at width 2 are [0, 1, 2] and [3, 4]: client 4 is the
        // helper's.
        fork_join_at(2, (0..5).collect(), |k: usize| {
            assert!(k != 4, "client {k} exploded");
            k
        });
    }

    #[test]
    fn helpers_survive_a_panicking_share_and_serve_the_next_call() {
        let _serial = serial();
        let caught = panic::catch_unwind(|| {
            split_at(2, 2, u64::MAX, (), &|r: Range<usize>, ()| assert!(r.start == 0, "share {r:?} exploded"));
        });
        let payload = caught.expect_err("the helper's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("share 1..2 exploded"));
        let again = fork_join_at(2, vec![1, 2], |k: i32| k * 2);
        assert_eq!(again, [2, 4]);
    }

    #[test]
    fn helpers_inherit_the_callers_kernel_tier() {
        let _serial = serial();
        let tiers = || fork_join_at(3, (0..5).collect(), |_: usize| scalar_forced());
        {
            let _scalar = ScalarGuard::new();
            assert_eq!(tiers(), [true; 5], "the scalar override must reach the helpers");
            assert!(scalar_forced());
        }
        assert!(!scalar_forced(), "the caller's flag is the guard's to restore");
        assert_eq!(tiers(), [false; 5], "and so must its removal");
    }

    #[test]
    fn each_thread_reaches_every_started_helper_once() {
        let _serial = serial();
        fork_join_at(3, vec![(); 3], |_| ());
        let seen = Mutex::new(Vec::new());
        each_thread(|| seen.lock().unwrap().push(thread::current().id()));
        let seen = seen.into_inner().unwrap();
        let distinct: HashSet<ThreadId> = seen.iter().copied().collect();
        assert_eq!(seen.len(), helpers_started() + 1);
        assert_eq!(distinct.len(), seen.len());
    }
}
