//! Teachers of the server-side distillation never see a backward, so
//! their batch-statistics pass caches nothing for one, and the workspace
//! and lowering buffer it ran in must be gone as soon as each member's
//! logits exist, not parked until the ensemble is dropped. A byte-counting
//! allocator watches the teacher pass of the benchmark's FedKEMF fusion
//! (four ResNet-20 members, a 48-image pool): one member's pass peaks
//! under 1 MB where the convolutions run direct, and under that plus the
//! patch matrices and GEMM panels of the geometry where they lower (a
//! training forward's caches made it 9.5 MB); afterwards the
//! process may hold no more than it did before, and at no moment more
//! than one member's pass per thread of the compute width on top of that
//! (members run one per share of `par::fork_join`), and the logits the
//! members done so far handed back.
//!
//! A model that survives its pass — FedGEMS's `eval_model` — keeps its
//! workspace pool and the logits it handed out, and nothing else.
//!
//! A last leg evaluates a model on 64 images outside any share — the
//! server's evaluation — and releases its scratch: the lowering buffers
//! of this thread and of the `par` helpers must go too.
//!
//! This file holds exactly one test: the counters are process-global.

use kemf_core::distill::{distill_ensemble, DistillConfig};
use kemf_data::synth::{SynthConfig, SynthTask};
use kemf_nn::model::Model;
use kemf_nn::models::{Arch, ModelSpec};
use kemf_tensor::conv::{self, ConvGeom};
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

    // What one member's pass holds at its fullest, measured on a fifth,
    // and what it hands back: its logits, whose storage is a pooled buffer
    // as large as the activation it last held — one stage-1 activation
    // (48 images, 4 channels, 16×16), and the tensor's header.
    let stage1 = 48 * 4 * 16 * 16 * std::mem::size_of::<f32>();
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let logits = Model::new(spec(5)).predict_batch_stats(&pool);
    let one_member = PEAK.load(Ordering::Relaxed) - before;
    let with_logits = LIVE.load(Ordering::Relaxed);
    drop(logits);
    let returned = with_logits - LIVE.load(Ordering::Relaxed);
    assert!(returned <= stage1 + 1024, "a member's logits held {} KB, more than one stage-1 activation", returned >> 10);
    // The pass holds its activations, about 850 KB: all it holds where the
    // convolutions run direct. Where they lower (the AVX2 and scalar
    // tiers) it also holds the largest patch matrix, stage 1's — 4
    // channels of 3×3 taps by the 48·16·16 output positions — and GEMM B
    // panels, 256 columns by a patch's rows, at every depth it met (27,
    // 36, 72, 144 rows): less than twice stage 3's, counted here for every
    // thread of the width.
    let width = kemf_fl::engine::init_thread_pool();
    let stage1_geom = ConvGeom { n: 48, c: 4, h: 16, w: 16, kh: 3, kw: 3, stride: 1, pad: 1 };
    let lowering = match conv::is_direct(4, &stage1_geom) {
        true => 0,
        false => (stage1_geom.patch_len() * stage1_geom.cols() + width * 2 * 256 * 16 * 9) * 4,
    };
    assert!(one_member > 768 << 10, "a 48-image ResNet-20 pass holds its activations, got {one_member} B");
    assert!(
        one_member <= (1 << 20) + lowering,
        "one member's pass peaked at {} KB: something cached for a backward",
        one_member >> 10
    );

    // A surviving model, warm lowering buffers (the pass above ran at this
    // shape): what it holds above its pre-pass bytes is its pool and the
    // logits (whose storage is a pooled buffer, as large as the activation
    // it last held), so emptying the one and dropping the other takes it
    // back there.
    let slack = 256 << 10;
    let mut survivor = Model::new(spec(8));
    let before = LIVE.load(Ordering::Relaxed);
    let logits = survivor.predict_batch_stats(&pool);
    let held = LIVE.load(Ordering::Relaxed) - before;
    survivor.ws_mut().clear();
    drop(logits);
    let kept = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    assert!(
        kept <= slack,
        "a surviving model kept {} KB beyond its pool and logits ({} KB held after the pass)",
        kept >> 10,
        held >> 10
    );
    drop(survivor);

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    distill_ensemble(&mut student, &mut teachers, &pool, &cfg, 7);
    let after = LIVE.load(Ordering::Relaxed);
    let peak = PEAK.load(Ordering::Relaxed);

    // This thread's GEMM pack pool stays warm; it is kilobytes.
    assert!(
        after <= before + slack,
        "the teacher pass left {} KB behind (one member's pass is {} KB)",
        (after - before) >> 10,
        one_member >> 10
    );
    // The members done so far hold their logits until the ensemble is
    // formed.
    assert!(
        peak <= before + width * one_member + teachers.len() * stage1 + slack,
        "the teacher pass peaked {} KB above its start; one member's pass is {} KB, {width} run at once, \
         each leaving {} KB of logits",
        (peak - before) >> 10,
        one_member >> 10,
        stage1 >> 10
    );

    // A server-side evaluation runs outside any share, on this thread;
    // `release_scratch` frees its lowering buffer and every helper's.
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
