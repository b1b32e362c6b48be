//! The stack's one parallel region: a fork-join over the process's
//! compute width, run by the calling thread and `width − 1` helper
//! threads that are started on first use and parked between jobs.
//!
//! [`fork_join`] maps independent items — a cohort's clients, an
//! ensemble's teachers, a socket round's worker links — in contiguous
//! shares and returns the results in item order. That is the only way
//! the width is spent: a layer pass always runs whole on the thread that
//! calls it, so every output element is computed by the code and on the
//! thread that computes it at width 1, and results do not depend on the
//! width or on which thread ran what.
//!
//! **The width is a budget.** A thread running a share is *inside* the
//! region, and any `fork_join` it calls runs inline on it: a client
//! trained inside a cohort, or a teacher inside the teacher pass, keeps
//! its nested work on its own thread, and the process never runs more
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
//! [`SPIN`] — so a fork-join that follows right after another finds it
//! awake — and then parks, so it holds no core through anything slower
//! (the server's fusion, a checkpoint). Helpers live as long as the
//! process; what they keep in thread-locals (a convolution lowering
//! buffer, a GEMM pack pool) is reached through `each_thread`
//! (`crate::conv::release_lowering` frees the lowering buffers).
//!
//! **Once per process.** The first call to [`width`] (through
//! `init_thread_pool`, an engine run or the first fork-join) also settles
//! the heap policy ([`heap_kept`]): on glibc, freed memory stays in the
//! arena for the next round instead of going back to the kernel.

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
/// the only width control: [`fork_join`] uses at most this many threads,
/// the caller's included. Nothing is spawned here. The same one-time
/// initialisation settles the heap policy ([`heap_kept`]).
pub fn width() -> usize {
    settled().width
}

/// Whether the allocator keeps what the process frees: true once glibc
/// accepted both thresholds of the heap policy, false where there is no
/// glibc to tell (or it refused a value and kept its defaults). Settles
/// the width too.
pub fn heap_kept() -> bool {
    settled().heap_kept
}

/// What the process settles once, before its first fork-join.
struct Settled {
    width: usize,
    heap_kept: bool,
}

fn settled() -> &'static Settled {
    static SETTLED: OnceLock<Settled> = OnceLock::new();
    SETTLED.get_or_init(|| Settled {
        width: std::env::var("KEMF_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| thread::available_parallelism().map(|n| n.get()).unwrap_or(1)),
        heap_kept: keep_heap(),
    })
}

/// The heap policy: freed memory stays in glibc's arena, so a round's
/// model-sized buffers (the client model rebuilt per round, its optimizer
/// velocity, the upload states, the evaluation model) are taken from
/// pages the previous round already touched instead of being unmapped or
/// trimmed and faulted back in. Both thresholds are fixed because setting
/// either one turns off glibc's dynamic adjustment of the other: the mmap
/// threshold goes to 32 MiB (the ceiling glibc's own dynamic threshold
/// climbs to on 64-bit hosts, and the most some glibc versions accept),
/// so no model buffer is its own mapping, and the trim threshold to
/// 1 GiB, so the top of the heap is not handed back between rounds. Only
/// where the allocator takes its pages changes, never what is computed;
/// the cost is a peak RSS that holds the largest round's frees.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_heap() -> bool {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    // glibc returns 1 when it takes a value and 0 when it refuses it.
    // SAFETY: `mallopt` takes two integers and only adjusts the
    // allocator's parameters under its own lock; both parameter numbers
    // are glibc's `malloc.h` constants, and no pointer is passed.
    let set = |param, value| unsafe { mallopt(param, value) } == 1;
    // Both calls are made even if the first is refused.
    set(M_MMAP_THRESHOLD, 32 << 20) & set(M_TRIM_THRESHOLD, 1 << 30)
}

/// No glibc: the platform allocator keeps its own policy.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_heap() -> bool {
    false
}

/// How long a helper (or a caller waiting for one) spins before it
/// parks: short against a checkpoint, which a parked helper sits
/// through without holding a core, or a socket link's exchange, which a
/// caller done with its own share waits out parked.
pub const SPIN: Duration = Duration::from_micros(20);

thread_local! {
    /// Set while this thread runs a share (always, on a helper).
    static IN_SHARE: Cell<bool> = const { Cell::new(false) };
}

/// True while the calling thread runs a share of [`fork_join`]: a nested
/// call runs inline.
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

/// What a share is handed beside its range: a slice of `len` equal
/// units (`unit = slice.len() / len` elements each), nothing, or a pair of
/// slices cut at the same unit boundaries.
trait Share: Send + Sized {
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
        assert_eq!(unit * len, self.len(), "a share must hold whole units");
        self.split_at_mut(head * unit)
    }
}

impl<A: Share, B: Share> Share for (A, B) {
    fn cut(self, head: usize, len: usize) -> (Self, Self) {
        let ((a0, a1), (b0, b1)) = (self.0.cut(head, len), self.1.cut(head, len));
        ((a0, b0), (a1, b1))
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
        Some(team) => team.run(parts, len, (&mut items[..], &mut out[..]), &map),
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
    fn run<S: Share>(self, parts: usize, len: usize, outs: S, f: &(impl Fn(Range<usize>, S) + Sync)) {
        let parts = parts.min(self.helpers.len() + 1);
        let mut cuts = Cuts { rest: Some(outs), len, parts, next: 0 };
        let mine = cuts.next().expect("at least one share");
        let panic = spread(&self.helpers[..parts - 1], mine, &mut cuts, f);
        drop(self);
        if let Some(payload) = panic {
            panic::resume_unwind(payload);
        }
    }
}

/// The shares of one call, in order: `parts` contiguous ranges of `0..len`
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
    /// call then runs on fewer shares).
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
    fn width_is_settled_once() {
        let (a, b) = (width(), width());
        assert_eq!(a, b);
        assert!(a >= 1);
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
    fn a_nested_call_runs_inline_on_the_callers_thread() {
        let _serial = serial();
        let out = fork_join_at(2, vec![0usize, 1], |k| {
            let outer = thread::current().id();
            let inner = fork_join_at(2, vec![0usize, 1, 2], |_| thread::current().id());
            (k, outer, inner)
        });
        for (k, outer, inner) in out {
            assert!(inner.iter().all(|t| *t == outer), "share {k}: nested fork_join left its thread");
        }
    }

    #[test]
    fn width_one_starts_no_thread() {
        let _serial = serial();
        let before = helpers_started();
        let here = thread::current().id();
        let threads = fork_join_at(1, (0..4).collect(), |_: usize| thread::current().id());
        assert!(threads.iter().all(|t| *t == here));
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
            fork_join_at(2, vec![0, 1], |k: usize| assert!(k == 0, "item {k} exploded"));
        });
        let payload = caught.expect_err("the helper's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("item 1 exploded"));
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
