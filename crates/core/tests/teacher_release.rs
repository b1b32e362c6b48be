//! Teachers of the server-side distillation never see a backward, so what
//! their pool-sized training forward caches — and the workspace and
//! lowering buffer it ran in — must be gone as soon as each member's
//! logits exist, not parked until the ensemble is dropped. A byte-counting
//! allocator watches the teacher pass of the benchmark's FedKEMF fusion
//! (four ResNet-20 members, a 48-image pool): afterwards the process may
//! hold no more than it did before, and at no moment more than one
//! member's pass per thread of the compute width on top of that (members
//! run through the cohort driver's fork-join).
//!
//! A last leg evaluates a model on 64 images outside any share — the
//! server's evaluation, whose products split over the compute width — and
//! releases its scratch: the `par` helpers' lowering buffers must go too.
//!
//! This file holds exactly one test: the counters are process-global.

use kemf_core::distill::{distill_ensemble, DistillConfig};
use kemf_data::synth::{SynthConfig, SynthTask};
use kemf_nn::model::Model;
use kemf_nn::models::{Arch, ModelSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct ByteCounter;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for ByteCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: ByteCounter = ByteCounter;

#[test]
fn the_teacher_pass_leaves_nothing_behind_and_holds_one_member_per_thread() {
    let pool = SynthTask::new(SynthConfig::cifar_like(1)).generate_unlabeled(48, 3);
    let spec = |seed| ModelSpec::scaled(Arch::ResNet20, 3, 16, 10, seed);
    let mut teachers: Vec<Model> = (1..=4).map(|s| Model::new(spec(s))).collect();
    let mut student = Model::new(spec(9));
    // No student epochs: the call is the teacher pass, the ensembling and
    // the softening, whose tensors all die with it.
    let cfg = DistillConfig { epochs: 0, ..Default::default() };

    // What one member's pass holds at its fullest, measured on a fifth.
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    drop(Model::new(spec(5)).predict_batch_stats(&pool));
    let one_member = PEAK.load(Ordering::Relaxed) - before;
    assert!(one_member > 1 << 20, "a 48-image ResNet-20 pass is megabytes, got {one_member} B");

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    distill_ensemble(&mut student, &mut teachers, &pool, &cfg, 7);
    let after = LIVE.load(Ordering::Relaxed);
    let peak = PEAK.load(Ordering::Relaxed);

    // This thread's GEMM pack pool stays warm; it is kilobytes.
    let slack = 256 << 10;
    assert!(
        after <= before + slack,
        "the teacher pass left {} KB behind (one member's pass is {} KB)",
        (after - before) >> 10,
        one_member >> 10
    );
    let width = kemf_fl::engine::init_thread_pool();
    assert!(
        peak <= before + width * one_member + slack,
        "the teacher pass peaked {} KB above its start; one member's pass is {} KB, {width} run at once",
        (peak - before) >> 10,
        one_member >> 10
    );

    // A server-side evaluation runs outside any share, so its products
    // split over the width and every helper lowers a share of the batch
    // into a buffer of its own. `release_scratch` must reach those too.
    let test = SynthTask::new(SynthConfig::cifar_like(1)).generate(64, 4);
    let before = LIVE.load(Ordering::Relaxed);
    let mut server = Model::new(spec(6));
    server.evaluate(&test.images, &test.labels, 64);
    server.release_scratch();
    drop(server);
    let after = LIVE.load(Ordering::Relaxed);
    assert!(
        after <= before + slack,
        "a 64-image evaluation left {} KB behind after release_scratch",
        (after - before) >> 10
    );
}
