//! Steady-state allocation audit for the training hot path.
//!
//! A counting global allocator proves the workspace plumbing end to end:
//! after one warm-up step populates every pool (im2col buffers, layer
//! outputs, loss gradients, optimizer velocity), a second full training
//! step — forward, loss, backward, SGD — performs **zero** heap
//! allocations. The same audit then covers the benchmark's models
//! (`ModelSpec::scaled` ResNet-20 and VGG-11 at batch 16, batch norm and
//! residual blocks included, through `Model::train_batch`), the int8
//! quantized forward (per-layer code/scale buffers from the i8 pool) and
//! a GEMM large enough to take the parallel-packing grid split
//! (per-thread pack pools).
//!
//! This file holds exactly one test: the counter is process-global, and a
//! concurrent test in the same binary would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Count heap allocations performed by `f`.
fn count_allocs(f: impl FnOnce()) -> usize {
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    f();
    COUNTING.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn second_training_step_allocates_nothing() {
    use kemf_nn::activation::{Flatten, ReLU};
    use kemf_nn::conv2d::Conv2d;
    use kemf_nn::layer::Layer;
    use kemf_nn::linear::Linear;
    use kemf_nn::loss::cross_entropy_ws;
    use kemf_nn::model::Model;
    use kemf_nn::models::{Arch, ModelSpec};
    use kemf_nn::optim::{Sgd, SgdConfig};
    use kemf_nn::pool::MaxPool2;
    use kemf_nn::sequential::Sequential;
    use kemf_tensor::rng::seeded_rng;
    use kemf_tensor::workspace::Workspace;
    use kemf_tensor::Tensor;

    // Conv → ReLU → MaxPool → Conv → ReLU → Flatten → Linear: the layer
    // classes of the DML hot path, one by one (batch norm, residual blocks
    // and global pooling come with the whole models below).
    let mut net = Sequential::new()
        .push(Conv2d::new(1, 8, 3, 1, 1, 1))
        .push(ReLU::new())
        .push(MaxPool2::new())
        .push(Conv2d::new(8, 8, 3, 1, 1, 2))
        .push(ReLU::new())
        .push(Flatten::new())
        .push(Linear::new(8 * 4 * 4, 10, 3));
    let mut opt = Sgd::new(SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 5e-4, nesterov: false });
    let mut ws = Workspace::new();
    let mut rng = seeded_rng(7);
    let x = Tensor::randn(&[4, 1, 8, 8], 1.0, &mut rng);
    let labels = [0usize, 3, 1, 7];

    let step = |net: &mut Sequential, ws: &mut Workspace, opt: &mut Sgd| {
        net.zero_grad();
        let logits = net.forward_ws(&x, true, ws);
        let (loss, grad) = cross_entropy_ws(&logits, &labels, ws);
        ws.recycle_tensor(logits);
        let gx = net.backward_ws(&grad, ws);
        ws.recycle_tensor(grad);
        ws.recycle_tensor(gx);
        opt.step(net);
        loss
    };

    // Warm-up: populates the workspace pools and the optimizer velocity.
    let warm_loss = step(&mut net, &mut ws, &mut opt);
    assert!(warm_loss.is_finite());

    // Steady state: the identical step must never touch the allocator.
    let allocs = count_allocs(|| {
        let loss = step(&mut net, &mut ws, &mut opt);
        assert!(loss.is_finite());
    });
    assert_eq!(allocs, 0, "steady-state training step allocated {allocs} times");

    // And it stays at zero across further steps.
    let allocs = count_allocs(|| {
        for _ in 0..3 {
            let _ = step(&mut net, &mut ws, &mut opt);
        }
    });
    assert_eq!(allocs, 0, "later steps allocated {allocs} times");

    // The benchmark's models. A ResNet-20 step keeps over a hundred
    // buffers alive between forward and backward (a pool capped at 64
    // dropped the rest and missed on every later step), and every
    // batch-norm layer must draw its output and cache from the pool too.
    for arch in [Arch::ResNet20, Arch::Vgg11] {
        let mut model = Model::new(ModelSpec::scaled(arch, 3, 16, 10, 11));
        let mut opt =
            Sgd::new(SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 5e-4, nesterov: false });
        let x = Tensor::randn(&[16, 3, 16, 16], 1.0, &mut rng);
        let labels: Vec<usize> = (0..16).map(|i| i % 10).collect();
        assert!(model.train_batch(&x, &labels, &mut opt).is_finite());
        let fresh = |m: &mut Model| {
            let ws = m.ws_mut();
            ws.fresh_allocations() + ws.fresh_usize_allocations() + ws.fresh_i8_allocations()
        };
        let warm = fresh(&mut model);
        let allocs = count_allocs(|| {
            for _ in 0..3 {
                assert!(model.train_batch(&x, &labels, &mut opt).is_finite());
            }
        });
        assert_eq!(allocs, 0, "{arch:?}: steady-state training steps allocated {allocs} times");
        assert_eq!(fresh(&mut model), warm, "{arch:?}: pool misses after warm-up");
    }

    // Int8 quantized inference: the first forward populates the i8
    // code/scale pools; the second must be allocation-free too.
    net.set_precision(kemf_nn::layer::Precision::Int8);
    let warm = net.forward_ws(&x, false, &mut ws);
    ws.recycle_tensor(warm);
    let allocs = count_allocs(|| {
        let y = net.forward_ws(&x, false, &mut ws);
        assert!(y.data().iter().all(|v| v.is_finite()));
        ws.recycle_tensor(y);
    });
    assert_eq!(allocs, 0, "steady-state int8 forward allocated {allocs} times");
    net.set_precision(kemf_nn::layer::Precision::F32);

    // Parallel-packing path: 160³ multiply-adds is past
    // `kemf_tensor::gemm::PAR_FLOPS`, so with a multi-thread pool
    // configured the M/N grid split engages (the vendored rayon runs it
    // inline on this thread, which keeps the audit deterministic). The
    // per-thread pack pools must absorb the second call entirely.
    rayon::ThreadPoolBuilder::new().num_threads(2).build_global().ok();
    let dim = 160;
    let a = vec![0.5f32; dim * dim];
    let b = vec![0.25f32; dim * dim];
    let mut c = vec![0.0f32; dim * dim];
    kemf_tensor::matmul::matmul_into(&a, &b, &mut c, dim, dim, dim);
    let allocs = count_allocs(|| {
        kemf_tensor::matmul::matmul_into(&a, &b, &mut c, dim, dim, dim);
    });
    assert_eq!(allocs, 0, "steady-state parallel-packed GEMM allocated {allocs} times");
    assert!((c[0] - 0.5 * 0.25 * dim as f32).abs() < 1e-3);
}
