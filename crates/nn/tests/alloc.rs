//! Steady-state allocation audit for the training hot path.
//!
//! A counting global allocator proves the workspace plumbing end to end:
//! after one warm-up step populates every pool (im2col buffers, layer
//! outputs, loss gradients, optimizer velocity), a second full training
//! step — forward, loss, backward, SGD — performs **zero** heap
//! allocations. The same audit then covers the benchmark's models
//! (`ModelSpec::scaled` ResNet-20 and VGG-11 at batch 16, batch norm and
//! residual blocks included, through `Model::train_batch` — the step
//! every algorithm runs — each both as `Model::new` draws it and as
//! `Model::from_state` rebuilds it), the int8
//! quantized forward (per-layer code/scale buffers from the i8 pool) and
//! a plain `matmul_into` past one macro tile (thread-local pack pool).
//! A last leg trains two ResNet-20s on two threads at once, the way the
//! cohort driver's fork-join does: everything a step draws on is the
//! model's (workspace) or the thread's (pack pool, convolution lowering
//! buffer), so once each thread has taken its first step neither may
//! allocate again.
//!
//! There is one forward and one backward per layer and they reuse
//! whatever the pool hands them, some of it unzeroed; nothing else
//! computes the same pass to compare against. So the audit starts with a
//! sweep over all nine `Layer` impls: forward + backward on a fresh
//! workspace and on one still holding another call's data must agree to
//! the bit.
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

use kemf_nn::activation::{Flatten, ReLU};
use kemf_nn::conv2d::Conv2d;
use kemf_nn::layer::{Layer, Precision};
use kemf_nn::linear::Linear;
use kemf_nn::loss::cross_entropy_ws;
use kemf_nn::model::Model;
use kemf_nn::models::{Arch, ModelSpec};
use kemf_nn::norm::BatchNorm2d;
use kemf_nn::optim::{Sgd, SgdConfig};
use kemf_nn::pool::{GlobalAvgPool, MaxPool2};
use kemf_nn::sequential::{BasicBlock, Sequential};
use kemf_tensor::rng::seeded_rng;
use kemf_tensor::workspace::Workspace;
use kemf_tensor::Tensor;

/// Everything one training-mode forward + backward and one inference
/// forward of `layer` produce, as bit patterns: output, input gradient,
/// parameter gradients, inference output (`Int8` where the layer has it).
fn pass_bits(layer: &mut dyn Layer, x: &Tensor, ws: &mut Workspace) -> Vec<u32> {
    layer.zero_grad();
    let y = layer.forward(x, true, ws);
    let g = y.map(|v| 0.5 - v);
    let gx = layer.backward(&g, ws);
    layer.set_precision(Precision::Int8);
    let y_eval = layer.forward(x, false, ws);
    layer.set_precision(Precision::F32);
    let mut bits: Vec<u32> = Vec::new();
    let mut push = |t: &Tensor| bits.extend(t.data().iter().map(|v| v.to_bits()));
    push(&y);
    push(&gx);
    push(&y_eval);
    layer.visit_params(&mut |p| push(&p.grad));
    for t in [y, gx, y_eval] {
        ws.recycle_tensor(t);
    }
    bits
}

/// Each of the nine `Layer` impls on a fresh workspace and on a warm one:
/// a clone of the layer first runs other data through the workspace and
/// hands every buffer back dirty, then the layer itself runs on it.
fn fresh_and_warm_workspaces_agree() {
    let image = [4, 3, 8, 8];
    let layers: Vec<(Box<dyn Layer>, &[usize])> = vec![
        (Box::new(ReLU::new()), &image),
        (Box::new(Flatten::new()), &image),
        (Box::new(Conv2d::new(3, 8, 3, 1, 1, 1)), &image),
        (Box::new(Conv2d::new(3, 20, 3, 2, 1, 2)), &image),
        (Box::new(BatchNorm2d::new(3)), &image),
        (Box::new(MaxPool2::new()), &image),
        (Box::new(GlobalAvgPool::new()), &image),
        (Box::new(Linear::new(64, 40, 3)), &[16, 64]),
        (
            Box::new(
                Sequential::new()
                    .push(Conv2d::new(3, 8, 3, 1, 1, 4))
                    .push(ReLU::new())
                    .push(MaxPool2::new())
                    .push(Flatten::new())
                    .push(Linear::new(8 * 4 * 4, 10, 5)),
            ),
            &image,
        ),
        (Box::new(BasicBlock::new(3, 3, 1, 6)), &image),
        (Box::new(BasicBlock::new(3, 8, 2, 7)), &image),
    ];
    let mut rng = seeded_rng(19);
    for (layer, dims) in layers {
        let x = Tensor::randn(dims, 1.0, &mut rng);
        let other = Tensor::randn(dims, 3.0, &mut rng);
        let fresh = pass_bits(&mut *layer.clone(), &x, &mut Workspace::new());
        let mut ws = Workspace::new();
        let _ = pass_bits(&mut *layer.clone(), &other, &mut ws);
        assert!(ws.pooled() > 0, "{}: nothing came back to the pool", layer.name());
        let warm = pass_bits(&mut *layer.clone(), &x, &mut ws);
        assert!(fresh == warm, "{}: a warm workspace changed the result", layer.name());
    }
}

#[test]
fn second_training_step_allocates_nothing() {
    fresh_and_warm_workspaces_agree();

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
        let logits = net.forward(&x, true, ws);
        let (loss, grad) = cross_entropy_ws(&logits, &labels, ws);
        ws.recycle_tensor(logits);
        let gx = net.backward(&grad, ws);
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
        // The model as the server draws it, and the same model as a
        // client rebuilds it from the transmitted state (no draws): the
        // same steps, the same losses, neither allocating.
        let spec = ModelSpec::scaled(arch, 3, 16, 10, 11);
        let drawn = Model::new(spec);
        let rebuilt = Model::from_state(spec, &drawn.state()).expect("own state, own spec");
        let x = Tensor::randn(&[16, 3, 16, 16], 1.0, &mut rng);
        let labels: Vec<usize> = (0..16).map(|i| i % 10).collect();
        let mut losses = Vec::new();
        for mut model in [drawn, rebuilt] {
            let mut opt =
                Sgd::new(SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 5e-4, nesterov: false });
            let mut trace = vec![model.train_batch(&x, &labels, &mut opt)];
            assert!(trace[0].is_finite());
            let fresh = |m: &mut Model| {
                let ws = m.ws_mut();
                ws.fresh_allocations() + ws.fresh_usize_allocations() + ws.fresh_i8_allocations()
            };
            let warm = fresh(&mut model);
            trace.reserve(3);
            let allocs = count_allocs(|| {
                for _ in 0..3 {
                    trace.push(model.train_batch(&x, &labels, &mut opt));
                }
            });
            assert_eq!(allocs, 0, "{arch:?}: steady-state training steps allocated {allocs} times");
            assert_eq!(fresh(&mut model), warm, "{arch:?}: pool misses after warm-up");
            losses.push(trace.iter().map(|l| l.to_bits()).collect::<Vec<_>>());
        }
        assert_eq!(losses[0], losses[1], "{arch:?}: from_state trains differently");
    }

    // Int8 quantized inference: the first forward populates the i8
    // code/scale pools; the second must be allocation-free too.
    net.set_precision(Precision::Int8);
    let warm = net.forward(&x, false, &mut ws);
    ws.recycle_tensor(warm);
    let allocs = count_allocs(|| {
        let y = net.forward(&x, false, &mut ws);
        assert!(y.data().iter().all(|v| v.is_finite()));
        ws.recycle_tensor(y);
    });
    assert_eq!(allocs, 0, "steady-state int8 forward allocated {allocs} times");
    net.set_precision(Precision::F32);

    // The slice entry points the kernel benchmarks time: 160³ is past one
    // macro tile in both M and N, so both operands pack, out of the
    // calling thread's pack pool — which must absorb the second call.
    let dim = 160;
    let a = vec![0.5f32; dim * dim];
    let b = vec![0.25f32; dim * dim];
    let mut c = vec![0.0f32; dim * dim];
    kemf_tensor::matmul::matmul_into(&a, &b, &mut c, dim, dim, dim);
    let allocs = count_allocs(|| {
        kemf_tensor::matmul::matmul_into(&a, &b, &mut c, dim, dim, dim);
    });
    assert_eq!(allocs, 0, "steady-state matmul_into allocated {allocs} times");
    assert!((c[0] - 0.5 * 0.25 * dim as f32).abs() < 1e-3);

    two_threads_train_side_by_side_without_allocating();
}

/// Two clients in flight: each thread builds its model and takes one
/// warm-up step, then — counting on, between two barriers — three more.
fn two_threads_train_side_by_side_without_allocating() {
    let gate = std::sync::Barrier::new(3);
    let allocs = std::thread::scope(|s| {
        for seed in [21u64, 22] {
            let gate = &gate;
            s.spawn(move || {
                let mut rng = seeded_rng(seed);
                let mut model = Model::new(ModelSpec::scaled(Arch::ResNet20, 3, 16, 10, seed));
                let mut opt = Sgd::new(SgdConfig {
                    lr: 0.05,
                    momentum: 0.9,
                    weight_decay: 5e-4,
                    nesterov: false,
                });
                let x = Tensor::randn(&[16, 3, 16, 16], 1.0, &mut rng);
                let labels: Vec<usize> = (0..16).map(|i| i % 10).collect();
                assert!(model.train_batch(&x, &labels, &mut opt).is_finite());
                gate.wait(); // both warm
                gate.wait(); // counting is on
                for _ in 0..3 {
                    assert!(model.train_batch(&x, &labels, &mut opt).is_finite());
                }
                gate.wait(); // both done: counting goes off before anything drops
                gate.wait();
            });
        }
        gate.wait();
        let allocs = count_allocs(|| {
            gate.wait();
            gate.wait();
        });
        gate.wait();
        allocs
    });
    assert_eq!(allocs, 0, "two concurrent ResNet-20 clients allocated {allocs} times after warm-up");
}
