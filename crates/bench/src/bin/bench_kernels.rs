//! Kernel throughput summary: packed cache-blocked GEMM vs the previous
//! axpy-style kernel, over a square stress shape and the im2col GEMM
//! shapes of the paper's model zoo (ResNet-20 / VGG-11, batch 8,
//! CIFAR-sized inputs), plus the convolution lowering (`im2col`/`col2im`
//! GB/s at the geometries the end-to-end benchmark trains, beside a plain
//! copy of the same bytes), the socket path's CRC-32 over one
//! `avg_mlp_socket` payload on the native and the scalar tier (`crc32`,
//! GB/s beside a plain copy), what handing an item to a `par` helper
//! costs (`par_handoff`: µs per two-item `par::fork_join` round trip of
//! empty items, spinning and parked helper, beside a `thread::scope`
//! spawn + join), the three products of a convolution layer at those
//! geometries side by side (`conv_backward`: forward, weight gradient,
//! input gradient, all in GFLOP/s of the same `2·O·patch·N·OH·OW`, each
//! on the calling thread as `Conv2d` runs it, the `route` the three
//! products take, and all three again on the lowered route — the
//! library's `conv::{forward_lowered, weight_grad_lowered,
//! input_grad_lowered}` — timed interleaved with the routed calls),
//! and what building a model at a transmitted state costs with and
//! without the discarded initialization (`model_build`). Prints tables
//! and writes `bench_results/BENCH_kernels.json` with all of it, the
//! detected `cpu_features` and `threads` — the compute width
//! `init_thread_pool` settles on. The GEMM, lowering and CRC rows run on
//! the calling thread whatever it is. `max_pool` is the 2×2 max pooling
//! forward at the planes VGG-11 pools, ns per element beside a plain copy.
//!
//! `--smoke` runs every code path with a tiny time budget and skips the
//! JSON write — a CI liveness check, not a measurement. It also demands
//! that the CRC-32, and the forward output and both gradients of every
//! `conv_backward` geometry, come out bit-identical on the native kernel
//! tier and the forced scalar one, and on the lowered route — and that on
//! AVX-512 the wide banks (over 16 filters) and the 1×1 plane among them
//! run direct, so that their rows hold direct == lowered == scalar: a
//! kernel that faults or runs its chains out of order fails here, on the
//! host that has it, not in a history hash three layers up.

use kemf_bench::report::{results_dir, Table};
use kemf_fl::compress::{quantize, DEFAULT_CHUNK};
use kemf_nn::activation::ReLU;
use kemf_nn::codec;
use kemf_nn::layer::{Layer, Mode};
use kemf_nn::model::Model;
use kemf_nn::models::{Arch, ModelSpec};
use kemf_nn::norm::BatchNorm2d;
use kemf_nn::optim::{Sgd, SgdConfig};
use kemf_nn::pool::MaxPool2;
use kemf_tensor::conv::{
    col2im, forward, forward_lowered, im2col, input_grad, input_grad_lowered, is_direct, weight_grad,
    weight_grad_lowered, ConvGeom,
};
use kemf_tensor::matmul::matmul_into;
use kemf_tensor::ops::row_sums;
use kemf_tensor::rng::seeded_rng;
use kemf_tensor::workspace::Workspace;
use kemf_tensor::{par, simd, Tensor};
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// The kernel this PR replaced: per-row axpy accumulation over B rows,
/// k-loop outermost, with the zero-skip branch. Kept verbatim here as the
/// "before" side of the comparison.
fn matmul_before(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        c_row.fill(0.0);
        for (kk, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[kk * n..(kk + 1) * n];
            for (cv, &bv) in c_row.iter_mut().zip(b_row.iter()) {
                *cv += av * bv;
            }
        }
    }
}

/// GFLOP/s of `f` on an `m×k×n` product, timed over enough iterations to
/// fill `budget` seconds (minimum 3 iterations).
fn throughput(mut f: impl FnMut(), m: usize, k: usize, n: usize, budget: f64) -> f64 {
    let flops = 2.0 * m as f64 * k as f64 * n as f64;
    f(); // warm-up: page in buffers, fill packing pools
    let mut iters = 3usize.max((budget * 0.2e9 / flops).ceil() as usize);
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let dt = t0.elapsed().as_secs_f64();
        if dt >= budget || iters > 1 << 20 {
            return flops * iters as f64 / dt / 1e9;
        }
        iters *= 4;
    }
}

/// Mean wall-clock seconds per call of `f` over `iters` calls, minimum of
/// three timed batches (after one warm-up call). The minimum filters
/// scheduler noise on shared hosts — both sides of a comparison get the
/// same treatment, so ratios stay fair.
fn time_per_call(mut f: impl FnMut(), iters: usize) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() / iters as f64);
    }
    best
}

/// Seconds per call of `a` and of `b` over `iters` calls, timed in
/// alternating batches — ten each, the order flipping every round — and
/// the minimum of each side kept: the two sides meet the same host state.
fn time_interleaved(mut a: impl FnMut(), mut b: impl FnMut(), iters: usize) -> (f64, f64) {
    a();
    b();
    let batch = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        t0.elapsed().as_secs_f64() / iters as f64
    };
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for round in 0..10 {
        if round % 2 == 0 {
            best_a = best_a.min(batch(&mut a));
            best_b = best_b.min(batch(&mut b));
        } else {
            best_b = best_b.min(batch(&mut b));
            best_a = best_a.min(batch(&mut a));
        }
    }
    (best_a, best_b)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let budget = if smoke { 0.02 } else { 0.3 };
    let cpu_features = simd::cpu_features();

    // im2col GEMM: m = out channels, k = in_ch·kh·kw, n = batch·oh·ow.
    let shapes: &[(&str, usize, usize, usize)] = &[
        ("square_256", 256, 256, 256),
        ("resnet20_conv1_3x3", 16, 27, 8192),
        ("resnet20_stage1_3x3", 16, 144, 8192),
        ("resnet20_stage2_in", 32, 144, 2048),
        ("resnet20_stage2_3x3", 32, 288, 2048),
        ("resnet20_stage3_in", 64, 288, 512),
        ("resnet20_stage3_3x3", 64, 576, 512),
        ("vgg11_conv1_3x3", 64, 27, 8192),
    ];

    let mut rng = seeded_rng(0xbe7c);
    let mut table =
        Table::new("GEMM throughput (GFLOP/s)", &["shape", "m,k,n", "before", "after", "speedup"]);
    let mut json_rows = Vec::new();
    for &(name, m, k, n) in shapes {
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let mut c = vec![0.0f32; m * n];
        let before =
            throughput(|| matmul_before(a.data(), b.data(), &mut c, m, k, n), m, k, n, budget);
        let after =
            throughput(|| matmul_into(a.data(), b.data(), &mut c, m, k, n), m, k, n, budget);
        let speedup = after / before;
        table.row(&[
            name.into(),
            format!("{m}x{k}x{n}"),
            format!("{before:.2}"),
            format!("{after:.2}"),
            format!("{speedup:.2}x"),
        ]);
        json_rows.push(format!(
            "    {{\"shape\": \"{name}\", \"m\": {m}, \"k\": {k}, \"n\": {n}, \
             \"before_gflops\": {before:.3}, \"after_gflops\": {after:.3}, \
             \"speedup\": {speedup:.3}}}"
        ));
    }

    if smoke {
        // Print the table but keep the committed CSV/JSON artifacts: smoke
        // numbers are liveness data, not measurements.
        println!("{}", table.render());
    } else {
        table.emit("BENCH_kernels");
    }

    // Convolution lowering at the geometries `bench_e2e` trains
    // (`ModelSpec::scaled` on 3×16×16 inputs, batch 16): GB/s of patch
    // matrix written (`im2col`) or read (`col2im`), against a plain copy
    // of the same bytes as the ceiling.
    let conv = |c: usize, hw: usize, stride: usize| ConvGeom {
        n: 16,
        c,
        h: hw,
        w: hw,
        kh: 3,
        kw: 3,
        stride,
        pad: 1,
    };
    let geoms = [
        ("resnet20_stage1", conv(4, 16, 1)),
        ("resnet20_stage2", conv(8, 8, 1)),
        ("resnet20_stage3", conv(16, 4, 1)),
        ("vgg11_first", conv(3, 16, 1)),
        ("vgg11_last", conv(64, 1, 1)),
    ];
    let mut lowering = Table::new(
        "Convolution lowering (GB/s of patch matrix)",
        &["geometry", "c,hw", "im2col", "col2im", "copy"],
    );
    let mut lowering_rows = Vec::new();
    for (name, g) in geoms {
        let x = Tensor::randn(&[g.n, g.c, g.h, g.w], 1.0, &mut rng);
        let mut cols = vec![0.0f32; g.patch_len() * g.cols()];
        let mut copy = cols.clone();
        let mut grad = vec![0.0f32; x.numel()];
        let gb = (cols.len() * 4) as f64 / 1e9;
        let iters = if smoke { 2 } else { 200 };
        let im2col_gbps =
            gb / time_per_call(|| im2col(black_box(x.data()), &g, black_box(&mut cols)), iters);
        let col2im_gbps =
            gb / time_per_call(|| col2im(black_box(&cols), &g, black_box(&mut grad)), iters);
        let copy_gbps =
            gb / time_per_call(|| black_box(&mut copy).copy_from_slice(black_box(&cols)), iters);
        lowering.row(&[
            name.into(),
            format!("{},{}", g.c, g.h),
            format!("{im2col_gbps:.2}"),
            format!("{col2im_gbps:.2}"),
            format!("{copy_gbps:.2}"),
        ]);
        lowering_rows.push(format!(
            "    {{\"geometry\": \"{name}\", \"batch\": {}, \"channels\": {}, \"hw\": {}, \
             \"im2col_gbps\": {im2col_gbps:.3}, \"col2im_gbps\": {col2im_gbps:.3}, \
             \"copy_gbps\": {copy_gbps:.3}}}",
            g.n, g.c, g.h
        ));
    }
    println!("{}", lowering.render());

    // The frame and payload checksum over one `avg_mlp_socket` payload
    // (1,269,800 bytes), on the native tier (the carry-less fold where the
    // host has it) and the forced scalar one (the slice-by-8 table),
    // beside a plain copy of the same bytes. Both tiers must agree.
    let payload: Vec<u8> =
        (0..1_269_800u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
    let gb = payload.len() as f64 / 1e9;
    let iters = if smoke { 2 } else { 200 };
    let crc_gbps = || {
        let per_call = time_per_call(
            || {
                black_box(codec::crc32(0, black_box(&payload)));
            },
            iters,
        );
        (codec::crc32(0, &payload), gb / per_call)
    };
    let (native_crc, native_gbps) = crc_gbps();
    let (scalar_crc, scalar_gbps) = {
        let _guard = simd::ScalarGuard::new();
        crc_gbps()
    };
    assert!(native_crc == scalar_crc, "native and scalar kernel tiers disagree on the CRC-32");
    let mut copy = vec![0u8; payload.len()];
    let copy_gbps =
        gb / time_per_call(|| black_box(&mut copy).copy_from_slice(black_box(&payload)), iters);
    let mut crc_table = Table::new(
        "CRC-32 over a 1,269,800-byte payload (GB/s)",
        &["bytes", "native", "scalar", "copy", "speedup"],
    );
    crc_table.row(&[
        payload.len().to_string(),
        format!("{native_gbps:.2}"),
        format!("{scalar_gbps:.2}"),
        format!("{copy_gbps:.2}"),
        format!("{:.1}x", native_gbps / scalar_gbps),
    ]);
    println!("{}", crc_table.render());
    let crc_row = format!(
        "    {{\"bytes\": {}, \"native_gbps\": {native_gbps:.3}, \"scalar_gbps\": {scalar_gbps:.3}, \
         \"copy_gbps\": {copy_gbps:.3}, \"crc\": \"{native_crc:#010x}\"}}",
        payload.len()
    );

    // What a fork-join pays to hand an item to a helper and take it back:
    // µs per two-item `par::fork_join` round trip of empty items, with the
    // helper spinning (the call right after another) and parked (after a
    // pause longer than `par::SPIN`), beside a `thread::scope` spawn + join
    // of one thread — what a fork-join without parked helpers would pay.
    // At width 1 both items run inline.
    let empty_fork_join = || {
        black_box(par::fork_join(vec![(), ()], |()| ()));
    };
    let handoffs = if smoke { 100 } else { 100_000 };
    let spinning_us = 1e6 * time_per_call(empty_fork_join, handoffs);
    let parks = if smoke { 3 } else { 200 };
    let parked_us = 1e6
        * (0..parks)
            .map(|_| {
                std::thread::sleep(par::SPIN * 4);
                let t0 = Instant::now();
                empty_fork_join();
                t0.elapsed().as_secs_f64()
            })
            .sum::<f64>()
        / parks as f64;
    let scope_us = 1e6
        * time_per_call(
            || {
                std::thread::scope(|s| {
                    s.spawn(|| {});
                })
            },
            handoffs / 100,
        );
    let mut handoff = Table::new(
        "Fork-join handoff (µs per round trip)",
        &["width", "fork_join, spinning", "fork_join, parked", "scope spawn+join"],
    );
    handoff.row(&[
        par::width().to_string(),
        format!("{spinning_us:.2}"),
        format!("{parked_us:.2}"),
        format!("{scope_us:.2}"),
    ]);
    println!("{}", handoff.render());
    let handoff_row = format!(
        "    {{\"width\": {}, \"fork_join_spinning_us\": {spinning_us:.3}, \"fork_join_parked_us\": {parked_us:.3}, \
         \"scope_spawn_join_us\": {scope_us:.3}}}",
        par::width()
    );

    // The three products of one convolution layer, at the layers the
    // end-to-end benchmark's ResNet-20 (width 4) and VGG-11 (width 8)
    // train on 3×16×16 inputs at batch 16, through the entry points
    // `Conv2d` calls: forward, weight gradient accumulated into `dw`,
    // input gradient — all in GFLOP/s of the same `2·O·patch·N·OH·OW`. The
    // three take the `route` the geometry picks, and are timed interleaved
    // with the same products on the lowered route (`forward_lowered`,
    // `weight_grad_lowered`, `input_grad_lowered`).
    let layers = [
        ("resnet20_stem", conv(3, 16, 1), 4),
        ("resnet20_stage1", conv(4, 16, 1), 4),
        ("resnet20_stage2_in", conv(4, 16, 2), 8),
        ("resnet20_stage2", conv(8, 8, 1), 8),
        ("resnet20_stage3_in", conv(8, 8, 2), 16),
        ("resnet20_stage3", conv(16, 4, 1), 16),
        ("vgg11_conv1", conv(3, 16, 1), 8),
        ("vgg11_conv2", conv(8, 8, 1), 16),
        ("vgg11_conv3", conv(16, 4, 1), 32),
        ("vgg11_conv4", conv(32, 4, 1), 32),
        ("vgg11_conv5", conv(32, 2, 1), 64),
        ("vgg11_conv6", conv(64, 2, 1), 64),
        ("vgg11_conv8", conv(64, 1, 1), 64),
    ];
    let mut backward = Table::new(
        "Convolution layer products (GFLOP/s)",
        &[
            "layer",
            "o,patch,cols",
            "route",
            "forward",
            "lowered",
            "weight grad",
            "lowered",
            "input grad",
            "lowered",
        ],
    );
    let mut backward_rows = Vec::new();
    for (name, g, o) in layers {
        let (patch, ncols) = (g.patch_len(), g.cols());
        let x = Tensor::randn(&[g.n, g.c, g.h, g.w], 1.0, &mut rng);
        let w = Tensor::randn(&[o, patch], 1.0, &mut rng);
        let bias = Tensor::randn(&[o], 1.0, &mut rng);
        let grad = Tensor::randn(&[g.n, o, g.oh(), g.ow()], 1.0, &mut rng);

        // The forward output and both gradients on the native tier, on the
        // scalar tier and on the lowered route: the same bits.
        let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let results = || {
            let mut y = vec![0.0f32; grad.numel()];
            let (mut dw, mut gx) = (vec![0.0f32; o * patch], vec![0.0f32; x.numel()]);
            forward(x.data(), w.data(), bias.data(), o, &g, &mut y, None);
            weight_grad(grad.data(), o, x.data(), &g, &mut dw);
            input_grad(w.data(), grad.data(), o, &g, &mut gx);
            [bits(&y), bits(&dw), bits(&gx)]
        };
        let native = results();
        let scalar = {
            let _guard = simd::ScalarGuard::new();
            results()
        };
        let lowered = {
            let mut y = vec![0.0f32; grad.numel()];
            let (mut dw, mut gx) = (vec![0.0f32; o * patch], vec![0.0f32; x.numel()]);
            forward_lowered(x.data(), w.data(), bias.data(), o, &g, &mut y);
            weight_grad_lowered(grad.data(), o, x.data(), &g, &mut dw);
            input_grad_lowered(w.data(), grad.data(), o, &g, &mut gx);
            [bits(&y), bits(&dw), bits(&gx)]
        };
        // A wide bank (over 16 filters) and a 1×1 plane (images in the
        // lanes) run direct on AVX-512, so their rows hold the direct route
        // to the lowered one's bits there.
        let wide_or_tiny = o > 16 || g.oh() * g.ow() == 1;
        assert!(
            !wide_or_tiny || simd::isa() != simd::Isa::Avx512 || is_direct(o, &g),
            "{name}: a wide bank or a 1x1 plane lowers on AVX-512"
        );
        for (product, i) in [("forward output", 0), ("weight gradient", 1), ("input gradient", 2)] {
            assert!(native[i] == scalar[i], "{name}: native and scalar kernel tiers disagree on the {product}");
            assert!(native[i] == lowered[i], "{name}: the {product} differs from the lowered route's");
        }

        let buffers = Mutex::new((vec![0.0f32; grad.numel()], vec![0.0f32; o * patch], vec![0.0f32; x.numel()]));
        let products = |which: [bool; 3]| {
            let mut guard = buffers.lock().expect("no product panics");
            let (y, dw, gx) = &mut *guard;
            if which[0] {
                forward(x.data(), w.data(), bias.data(), o, &g, y, None);
            }
            if which[1] {
                weight_grad(grad.data(), o, black_box(x.data()), &g, dw);
            }
            if which[2] {
                input_grad(w.data(), grad.data(), o, &g, gx);
            }
        };
        let flops = 2.0 * (o * patch * ncols) as f64;
        let iters = if smoke { 2 } else { 20usize.max((2e8 / flops) as usize) };
        let gflops = |secs: f64| flops / secs / 1e9;
        let lowered = |which: [bool; 3]| {
            let mut guard = buffers.lock().expect("no product panics");
            let (y, dw, gx) = &mut *guard;
            if which[0] {
                forward_lowered(x.data(), w.data(), bias.data(), o, &g, y);
            }
            if which[1] {
                weight_grad_lowered(grad.data(), o, black_box(x.data()), &g, dw);
            }
            if which[2] {
                input_grad_lowered(w.data(), grad.data(), o, &g, gx);
            }
        };
        let interleaved = |which: [bool; 3]| {
            let (routed_s, lowered_s) = time_interleaved(|| products(which), || lowered(which), iters);
            (gflops(routed_s), gflops(lowered_s))
        };
        let (forward_gflops, lowered_forward_gflops) = interleaved([true, false, false]);
        let (weight_grad_gflops, lowered_weight_grad_gflops) = interleaved([false, true, false]);
        let (input_grad_gflops, lowered_input_grad_gflops) = interleaved([false, false, true]);
        let route = if is_direct(o, &g) { "direct" } else { "lowered" };
        backward.row(&[
            name.into(),
            format!("{o},{patch},{ncols}"),
            route.into(),
            format!("{forward_gflops:.1}"),
            format!("{lowered_forward_gflops:.1}"),
            format!("{weight_grad_gflops:.1}"),
            format!("{lowered_weight_grad_gflops:.1}"),
            format!("{input_grad_gflops:.1}"),
            format!("{lowered_input_grad_gflops:.1}"),
        ]);
        backward_rows.push(format!(
            "    {{\"layer\": \"{name}\", \"batch\": {}, \"in_channels\": {}, \"hw\": {}, \
             \"stride\": {}, \"out_channels\": {o}, \"patch\": {patch}, \"cols\": {ncols}, \
             \"route\": \"{route}\", \"forward_gflops\": {forward_gflops:.3}, \
             \"lowered_forward_gflops\": {lowered_forward_gflops:.3}, \
             \"weight_grad_gflops\": {weight_grad_gflops:.3}, \
             \"lowered_weight_grad_gflops\": {lowered_weight_grad_gflops:.3}, \
             \"input_grad_gflops\": {input_grad_gflops:.3}, \
             \"lowered_input_grad_gflops\": {lowered_input_grad_gflops:.3}}}",
            g.n, g.c, g.h, g.stride
        ));
    }
    println!("{}", backward.render());

    // Batch norm's training forward + backward at the layers the
    // end-to-end benchmark's ResNet-20 (width 4) and VGG-11 (width 8)
    // normalize at batch 16, through `BatchNorm2d` as a model runs it:
    // ns per element
    // on the native tier — the per-channel sums four channels to a vector —
    // and on the scalar tier — the plain loop, a channel at a time — timed
    // interleaved, beside a plain copy of the same bytes as the ceiling.
    // Both tiers must agree on every output bit.
    let norms = [
        ("resnet20_stage1", 4, 16),
        ("resnet20_stage2", 8, 8),
        ("resnet20_stage3", 16, 4),
        ("vgg11_conv1", 8, 16),
        ("vgg11_conv2", 16, 8),
        ("vgg11_conv4", 32, 4),
        ("vgg11_conv6", 64, 2),
        ("vgg11_conv8", 64, 1),
    ];
    let mut norm_table = Table::new(
        "Batch norm, training forward + backward (ns per element)",
        &["layer", "c,hw", "native", "scalar", "speedup", "copy"],
    );
    let mut norm_rows = Vec::new();
    for (name, c, hw) in norms {
        let x = Tensor::randn(&[16, c, hw, hw], 1.0, &mut rng);
        let grad = Tensor::randn(&[16, c, hw, hw], 1.0, &mut rng);
        let layer = Mutex::new((BatchNorm2d::new(c), Workspace::new()));
        let pass = |keep: bool| {
            let mut guard = layer.lock().expect("no pass panics");
            let (bn, ws) = &mut *guard;
            let y = bn.forward(black_box(&x), Mode::Train, ws);
            let gx = bn.backward(black_box(&grad), ws);
            let out = keep.then(|| [y.data(), gx.data()].map(|v| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>()));
            ws.recycle_tensor(y);
            ws.recycle_tensor(gx);
            out
        };
        let scalar_pass = |keep: bool| {
            let _guard = simd::ScalarGuard::new();
            pass(keep)
        };
        assert!(pass(true) == scalar_pass(true), "{name}: native and scalar kernel tiers disagree on batch norm");
        let elems = x.numel() as f64;
        let iters = if smoke { 2 } else { 200 };
        let (native_s, scalar_s) = time_interleaved(
            || {
                black_box(pass(false));
            },
            || {
                black_box(scalar_pass(false));
            },
            iters,
        );
        let mut copy = vec![0.0f32; x.numel()];
        let copy_s = time_per_call(|| black_box(&mut copy).copy_from_slice(black_box(x.data())), iters);
        let (native_ns, scalar_ns, copy_ns) = (1e9 * native_s / elems, 1e9 * scalar_s / elems, 1e9 * copy_s / elems);
        norm_table.row(&[
            name.into(),
            format!("{c},{hw}"),
            format!("{native_ns:.3}"),
            format!("{scalar_ns:.3}"),
            format!("{:.2}x", scalar_ns / native_ns),
            format!("{copy_ns:.3}"),
        ]);
        norm_rows.push(format!(
            "    {{\"layer\": \"{name}\", \"batch\": 16, \"channels\": {c}, \"hw\": {hw}, \
             \"ns_per_element\": {native_ns:.4}, \"scalar_ns_per_element\": {scalar_ns:.4}, \
             \"copy_ns_per_element\": {copy_ns:.4}, \"copy_gbps\": {:.3}}}",
            4.0 * elems / copy_s / 1e9
        ));
    }
    println!("{}", norm_table.render());

    // Batch norm with its ReLU folded in (`BatchNorm2d::with_relu`, which
    // rebuilds the mask from x̂) against the two layers it replaced — a
    // plain batch norm, then a ReLU with its bit mask — at the same
    // geometries: a training forward + backward, ns per element, timed
    // interleaved. Both must give the same bits.
    let mut fused_table = Table::new(
        "Batch norm + ReLU, training forward + backward (ns per element)",
        &["layer", "c,hw", "fused", "separate", "speedup"],
    );
    let mut fused_rows = Vec::new();
    for (name, c, hw) in norms {
        let x = Tensor::randn(&[16, c, hw, hw], 1.0, &mut rng);
        let grad = Tensor::randn(&[16, c, hw, hw], 1.0, &mut rng);
        let fused = Mutex::new((BatchNorm2d::with_relu(c), Workspace::new()));
        let separate = Mutex::new((BatchNorm2d::new(c), ReLU::new(), Workspace::new()));
        let bits = |ts: [&Tensor; 2]| ts.map(|t| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        let fused_pass = |keep: bool| {
            let mut guard = fused.lock().expect("no pass panics");
            let (bn, ws) = &mut *guard;
            let y = bn.forward(black_box(&x), Mode::Train, ws);
            let gx = bn.backward(black_box(&grad), ws);
            let out = keep.then(|| bits([&y, &gx]));
            ws.recycle_tensor(y);
            ws.recycle_tensor(gx);
            out
        };
        let separate_pass = |keep: bool| {
            let mut guard = separate.lock().expect("no pass panics");
            let (bn, relu, ws) = &mut *guard;
            let h = bn.forward(black_box(&x), Mode::Train, ws);
            let y = relu.forward(&h, Mode::Train, ws);
            ws.recycle_tensor(h);
            let g = relu.backward(black_box(&grad), ws);
            let gx = bn.backward(&g, ws);
            ws.recycle_tensor(g);
            let out = keep.then(|| bits([&y, &gx]));
            ws.recycle_tensor(y);
            ws.recycle_tensor(gx);
            out
        };
        assert!(fused_pass(true) == separate_pass(true), "{name}: fused batch norm + ReLU changed a bit");
        let elems = x.numel() as f64;
        let iters = if smoke { 2 } else { 200 };
        let (fused_s, separate_s) = time_interleaved(
            || {
                black_box(fused_pass(false));
            },
            || {
                black_box(separate_pass(false));
            },
            iters,
        );
        let (fused_ns, separate_ns) = (1e9 * fused_s / elems, 1e9 * separate_s / elems);
        fused_table.row(&[
            name.into(),
            format!("{c},{hw}"),
            format!("{fused_ns:.3}"),
            format!("{separate_ns:.3}"),
            format!("{:.2}x", separate_ns / fused_ns),
        ]);
        fused_rows.push(format!(
            "    {{\"layer\": \"{name}\", \"batch\": 16, \"channels\": {c}, \"hw\": {hw}, \
             \"fused_ns_per_element\": {fused_ns:.4}, \"separate_ns_per_element\": {separate_ns:.4}}}"
        ));
    }
    println!("{}", fused_table.render());

    // The ReLU that keeps its mask as bits (after a residual join, in the
    // classifiers): a training forward and the backward, ns per element,
    // each timed interleaved with the f32-mask loop it replaced (kept here
    // as the "before" side), which must give the same bits.
    let mut relu_table = Table::new(
        "ReLU, bit mask vs f32 mask (ns per element)",
        &["layer", "c,hw", "fwd bits", "fwd f32", "bwd bits", "bwd f32"],
    );
    let mut relu_rows = Vec::new();
    for (name, c, hw) in [("resnet20_stage1", 4, 16), ("resnet20_stage2", 8, 8), ("resnet20_stage3", 16, 4)] {
        let x = Tensor::randn(&[16, c, hw, hw], 1.0, &mut rng);
        let grad = Tensor::randn(&[16, c, hw, hw], 1.0, &mut rng);
        let state = Mutex::new((ReLU::new(), Workspace::new(), vec![0.0f32; x.numel()], vec![0.0f32; x.numel()]));
        let f32_forward = |y: &mut [f32], mask: &mut [f32]| {
            for ((yv, mv), &xv) in y.iter_mut().zip(mask.iter_mut()).zip(black_box(x.data())) {
                *yv = xv.max(0.0);
                *mv = if xv > 0.0 { 1.0 } else { 0.0 };
            }
        };
        let f32_backward = |g: &mut [f32], mask: &[f32]| {
            for ((gv, &go), &m) in g.iter_mut().zip(black_box(grad.data())).zip(mask) {
                *gv = go * m;
            }
        };
        {
            let mut guard = state.lock().expect("no pass panics");
            let (relu, ws, out, mask) = &mut *guard;
            let y = relu.forward(&x, Mode::Train, ws);
            let g = relu.backward(&grad, ws);
            f32_forward(out, mask);
            assert!(y.data() == &out[..], "{name}: bit-mask ReLU forward changed a value");
            f32_backward(out, mask);
            let same = g.data().iter().zip(out.iter()).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "{name}: bit-mask ReLU backward changed a bit");
            ws.recycle_tensor(y);
            ws.recycle_tensor(g);
        }
        let elems = x.numel() as f64;
        let iters = if smoke { 2 } else { 500 };
        let ns = |s: f64| 1e9 * s / elems;
        let (fwd_bits, fwd_f32) = time_interleaved(
            || {
                let mut guard = state.lock().expect("no pass panics");
                let (relu, ws, ..) = &mut *guard;
                let y = relu.forward(black_box(&x), Mode::Train, ws);
                ws.recycle_tensor(y);
            },
            || {
                let mut guard = state.lock().expect("no pass panics");
                let (_, _, out, mask) = &mut *guard;
                f32_forward(out, mask);
            },
            iters,
        );
        // Each backward timing starts from a forward's mask; the forward
        // is timed alone above, so it is subtracted.
        let (both_bits, both_f32) = time_interleaved(
            || {
                let mut guard = state.lock().expect("no pass panics");
                let (relu, ws, ..) = &mut *guard;
                let y = relu.forward(black_box(&x), Mode::Train, ws);
                let g = relu.backward(black_box(&grad), ws);
                ws.recycle_tensor(y);
                ws.recycle_tensor(g);
            },
            || {
                let mut guard = state.lock().expect("no pass panics");
                let (_, _, out, mask) = &mut *guard;
                f32_forward(out, mask);
                f32_backward(out, mask);
            },
            iters,
        );
        let [fwd_bits, fwd_f32, bwd_bits, bwd_f32] =
            [fwd_bits, fwd_f32, (both_bits - fwd_bits).max(0.0), (both_f32 - fwd_f32).max(0.0)].map(ns);
        relu_table.row(&[
            name.into(),
            format!("{c},{hw}"),
            format!("{fwd_bits:.3}"),
            format!("{fwd_f32:.3}"),
            format!("{bwd_bits:.3}"),
            format!("{bwd_f32:.3}"),
        ]);
        relu_rows.push(format!(
            "    {{\"layer\": \"{name}\", \"batch\": 16, \"channels\": {c}, \"hw\": {hw}, \
             \"forward_ns_per_element\": {fwd_bits:.4}, \"f32_mask_forward_ns_per_element\": {fwd_f32:.4}, \
             \"backward_ns_per_element\": {bwd_bits:.4}, \"f32_mask_backward_ns_per_element\": {bwd_f32:.4}}}"
        ));
    }
    println!("{}", relu_table.render());

    // The SGD step (momentum 0.9, weight decay 5e-4) over a whole model's
    // parameters, µs per step, interleaved with the four whole-tensor
    // passes it replaced (kept here as the "before" side), which must give
    // the same bits.
    let mut sgd_rows = Vec::new();
    for (name, spec) in [
        ("vgg11", ModelSpec::scaled(Arch::Vgg11, 3, 16, 10, 1)),
        ("mlp2048", ModelSpec { width: 2048, ..ModelSpec::scaled(Arch::Mlp1, 1, 12, 10, 1) }),
    ] {
        let cfg = SgdConfig { lr: 0.05, momentum: 0.9, weight_decay: 5e-4 };
        let mut model = Model::new(spec);
        model.net_mut().visit_params_mut(&mut |p| p.grad = Tensor::randn(p.value.dims(), 1e-2, &mut rng));
        let mut params = Vec::new();
        model.net().visit_params(&mut |p| params.push((p.value.clone(), Tensor::zeros(p.value.dims()), p.grad.clone())));
        let count: usize = params.iter().map(|(w, ..)| w.numel()).sum();
        let four_passes = |params: &mut Vec<(Tensor, Tensor, Tensor)>| {
            for (w, v, g) in params.iter_mut() {
                v.scale_inplace(cfg.momentum);
                v.axpy(1.0, g);
                v.axpy(cfg.weight_decay, w);
                w.axpy(-cfg.lr, v);
            }
        };
        let state = Mutex::new((model, Sgd::new(cfg), params));
        {
            let mut guard = state.lock().expect("no step panics");
            let (model, opt, params) = &mut *guard;
            for _ in 0..3 {
                opt.step(model.net_mut());
                four_passes(params);
            }
            let mut k = 0;
            let mut same = true;
            model.net().visit_params(&mut |p| {
                same &= p.value.data().iter().zip(params[k].0.data()).all(|(a, b)| a.to_bits() == b.to_bits());
                k += 1;
            });
            assert!(same, "{name}: one-pass SGD changed a bit");
        }
        let iters = if smoke { 2 } else { 200 };
        let (one_s, four_s) = time_interleaved(
            || {
                let mut guard = state.lock().expect("no step panics");
                let (model, opt, _) = &mut *guard;
                opt.step(model.net_mut());
            },
            || {
                let mut guard = state.lock().expect("no step panics");
                four_passes(&mut guard.2);
            },
            iters,
        );
        let (one_us, four_us) = (1e6 * one_s, 1e6 * four_s);
        println!("[sgd] {name} ({count} params): one pass {one_us:.1} µs, four passes {four_us:.1} µs ({:.2}x)", four_us / one_us);
        sgd_rows.push(format!(
            "    {{\"model\": \"{name}\", \"params\": {count}, \"one_pass_us\": {one_us:.2}, \"four_passes_us\": {four_us:.2}}}"
        ));
    }

    // A convolution's bias gradient, `Σ` over each (image, filter) row of
    // the output gradient at batch 16 (`ops::row_sums`, as `Conv2d` runs
    // it): 16 rows in the lanes of a vector on AVX-512 against the row-by-
    // row loop of the scalar tier, µs per call. Both give the same bits.
    let mut bias_rows = Vec::new();
    for (name, o, hw) in [("resnet20_stage1", 4, 16), ("resnet20_stage2", 8, 8), ("resnet20_stage3", 16, 4), ("vgg11_conv8", 64, 1)] {
        let plane = hw * hw;
        let g: Vec<f32> = Tensor::randn(&[16, o, hw, hw], 1.0, &mut rng).data().to_vec();
        let mut db = vec![0.0f32; o];
        let sums = |db: &mut [f32]| {
            let mut filter = 0;
            row_sums(black_box(&g), plane, |sum| {
                db[filter] += sum;
                filter = if filter + 1 == o { 0 } else { filter + 1 };
            })
        };
        let native = {
            let mut db = vec![0.0f32; o];
            sums(&mut db);
            db
        };
        let scalar = {
            let _guard = simd::ScalarGuard::new();
            let mut db = vec![0.0f32; o];
            sums(&mut db);
            db
        };
        assert!(native.iter().zip(&scalar).all(|(a, b)| a.to_bits() == b.to_bits()), "{name}: bias gradient lanes changed a bit");
        let iters = if smoke { 2 } else { 2000 };
        let db = Mutex::new(&mut db);
        let (native_s, scalar_s) = time_interleaved(
            || sums(&mut db.lock().expect("no call panics")),
            || {
                let _guard = simd::ScalarGuard::new();
                sums(&mut db.lock().expect("no call panics"))
            },
            iters,
        );
        let (native_us, scalar_us) = (1e6 * native_s, 1e6 * scalar_s);
        println!("[bias] {name} [16, {o}, {hw}x{hw}]: lanes {native_us:.2} µs, loop {scalar_us:.2} µs ({:.2}x)", scalar_us / native_us);
        bias_rows.push(format!(
            "    {{\"layer\": \"{name}\", \"batch\": 16, \"filters\": {o}, \"hw\": {hw}, \
             \"native_us\": {native_us:.3}, \"scalar_us\": {scalar_us:.3}}}"
        ));
    }

    // The wire quantizer over the `avg_mlp_socket` MLP (317,450 f32, 256-
    // value chunks), MB/s of f32 input on the native and the scalar tier:
    // the same codes, scales and offsets.
    let quantize_row = {
        let weights = Model::new(ModelSpec { width: 2048, ..ModelSpec::scaled(Arch::Mlp1, 1, 12, 10, 1) }).weights();
        let run = || quantize(black_box(&weights), DEFAULT_CHUNK).expect("finite weights");
        let scalar_run = || {
            let _guard = simd::ScalarGuard::new();
            run()
        };
        assert!(run() == scalar_run(), "native and scalar quantize disagree");
        let iters = if smoke { 2 } else { 50 };
        let (native_s, scalar_s) = time_interleaved(
            || {
                black_box(run());
            },
            || {
                black_box(scalar_run());
            },
            iters,
        );
        let mb = 4.0 * weights.values.len() as f64 / 1e6;
        let (native_mbps, scalar_mbps) = (mb / native_s, mb / scalar_s);
        println!(
            "[quantize] mlp2048 ({} params): native {native_mbps:.0} MB/s ({:.3} ms), scalar {scalar_mbps:.0} MB/s ({:.3} ms)",
            weights.values.len(),
            1e3 * native_s,
            1e3 * scalar_s
        );
        format!(
            "    {{\"model\": \"mlp2048\", \"params\": {}, \"native_mbps\": {native_mbps:.1}, \"scalar_mbps\": {scalar_mbps:.1}, \
             \"native_ms\": {:.4}, \"scalar_ms\": {:.4}}}",
            weights.values.len(),
            1e3 * native_s,
            1e3 * scalar_s
        )
    };

    // Max pooling's forward at the planes VGG-11 (width 8) pools at batch
    // 16, through `MaxPool2` as a model runs it (every forward finds the
    // argmax a training one keeps): ns per
    // input element, beside a plain copy of the same bytes as the ceiling.
    let pools = [("vgg11_pool1", 8, 16), ("vgg11_pool2", 16, 8), ("vgg11_pool3", 32, 4), ("vgg11_pool4", 64, 2)];
    let mut pool_table = Table::new("Max pool 2x2, forward (ns per element)", &["layer", "c,hw", "ns", "copy"]);
    let mut pool_rows = Vec::new();
    for (name, c, hw) in pools {
        let x = Tensor::randn(&[16, c, hw, hw], 1.0, &mut rng);
        let layer = Mutex::new((MaxPool2::new(), Workspace::new()));
        let elems = x.numel() as f64;
        let iters = if smoke { 2 } else { 500 };
        let pool_s = time_per_call(
            || {
                let mut guard = layer.lock().expect("no pass panics");
                let (pool, ws) = &mut *guard;
                let y = pool.forward(black_box(&x), Mode::Eval, ws);
                ws.recycle_tensor(y);
            },
            iters,
        );
        let mut copy = vec![0.0f32; x.numel()];
        let copy_s = time_per_call(|| black_box(&mut copy).copy_from_slice(black_box(x.data())), iters);
        let (pool_ns, copy_ns) = (1e9 * pool_s / elems, 1e9 * copy_s / elems);
        pool_table.row(&[name.into(), format!("{c},{hw}"), format!("{pool_ns:.3}"), format!("{copy_ns:.3}")]);
        pool_rows.push(format!(
            "    {{\"layer\": \"{name}\", \"batch\": 16, \"channels\": {c}, \"hw\": {hw}, \
             \"ns_per_element\": {pool_ns:.4}, \"copy_ns_per_element\": {copy_ns:.4}, \"copy_gbps\": {:.3}}}",
            4.0 * elems / copy_s / 1e9
        ));
    }
    println!("{}", pool_table.render());

    // A model at a transmitted state — what every client, teacher,
    // student and evaluation is built as: `Model::new` + `set_state`
    // draws a Kaiming initialization and overwrites it, `from_state`
    // allocates and copies.
    let builds = [
        ("resnet20", ModelSpec::scaled(Arch::ResNet20, 3, 16, 10, 1)),
        ("vgg11", ModelSpec::scaled(Arch::Vgg11, 3, 16, 10, 1)),
        ("mlp2048", ModelSpec { width: 2048, ..ModelSpec::scaled(Arch::Mlp1, 1, 12, 10, 1) }),
    ];
    let mut build_rows = Vec::new();
    for (name, spec) in builds {
        let state = Model::new(spec).state();
        let iters = if smoke { 2 } else { 50 };
        let model_new_ms = 1e3
            * time_per_call(
                || {
                    let mut model = Model::new(spec);
                    model.set_state(black_box(&state));
                    black_box(&model);
                },
                iters,
            );
        let from_state_ms = 1e3
            * time_per_call(
                || {
                    black_box(Model::from_state(spec, black_box(&state)).expect("own state"));
                },
                iters,
            );
        println!(
            "[build] {name} ({} params): new + set_state {model_new_ms:.3} ms, from_state \
             {from_state_ms:.3} ms ({:.2}x)",
            state.params.values.len(),
            from_state_ms / model_new_ms
        );
        build_rows.push(format!(
            "    {{\"model\": \"{name}\", \"params\": {}, \"model_new_ms\": {model_new_ms:.4}, \
             \"from_state_ms\": {from_state_ms:.4}}}",
            state.params.values.len()
        ));
    }

    if smoke {
        println!("[smoke] skipping JSON write");
        return;
    }
    let json = format!(
        "{{\n  \"benchmark\": \"packed GEMM vs axpy kernel\",\n  \"unit\": \"GFLOP/s\",\n  \
         \"cpu_features\": [{}],\n  \"threads\": {},\n  \"shapes\": [\n{}\n  ],\n  \
         \"conv_lowering\": [\n{}\n  ],\n  \"crc32\": [\n{}\n  ],\n  \"par_handoff\": [\n{}\n  ],\n  \
         \"conv_backward\": [\n{}\n  ],\n  \"batch_norm\": [\n{}\n  ],\n  \"batch_norm_relu\": [\n{}\n  ],\n  \
         \"relu_mask\": [\n{}\n  ],\n  \"sgd_step\": [\n{}\n  ],\n  \"conv_bias_grad\": [\n{}\n  ],\n  \
         \"quantize\": [\n{}\n  ],\n  \"max_pool\": [\n{}\n  ],\n  \"model_build\": [\n{}\n  ]\n}}\n",
        cpu_features.iter().map(|f| format!("\"{f}\"")).collect::<Vec<_>>().join(", "),
        kemf_fl::engine::init_thread_pool(),
        json_rows.join(",\n"),
        lowering_rows.join(",\n"),
        crc_row,
        handoff_row,
        backward_rows.join(",\n"),
        norm_rows.join(",\n"),
        fused_rows.join(",\n"),
        relu_rows.join(",\n"),
        sgd_rows.join(",\n"),
        bias_rows.join(",\n"),
        quantize_row,
        pool_rows.join(",\n"),
        build_rows.join(",\n"),
    );
    let path = results_dir().join("BENCH_kernels.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("[json] {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
