//! Kernel throughput summary: packed cache-blocked GEMM vs the previous
//! axpy-style kernel, over a square stress shape and the im2col GEMM
//! shapes of the paper's model zoo (ResNet-20 / VGG-11, batch 8,
//! CIFAR-sized inputs), plus the convolution lowering (`im2col`/`col2im`
//! GB/s at the geometries the end-to-end benchmark trains, beside a plain
//! copy of the same bytes), the three products of a convolution layer at
//! those geometries side by side (`conv_backward`: forward, weight
//! gradient, input gradient with its `col2im`, all in GFLOP/s of the same
//! `2·O·patch·N·OH·OW`), and what building a model at a transmitted
//! state costs with and without the discarded initialization
//! (`model_build`). Prints tables and writes
//! `bench_results/BENCH_kernels.json` with all of it, the detected
//! `cpu_features` and `threads` — the cohort width `init_thread_pool`
//! settles on; every kernel here runs on the calling thread whatever it
//! is.
//!
//! `--smoke` runs every code path with a tiny time budget and skips the
//! JSON write — a CI liveness check, not a measurement. It also demands
//! that both gradients of every `conv_backward` geometry come out
//! bit-identical on the native kernel tier and the forced scalar one: a
//! transposing kernel that faults or runs its chains out of order fails
//! here, on the host that has it, not in a history hash three layers up.

use kemf_bench::report::{results_dir, Table};
use kemf_nn::model::Model;
use kemf_nn::models::{Arch, ModelSpec};
use kemf_tensor::conv::{col2im, im2col, input_grad, weight_grad, ConvGeom};
use kemf_tensor::gemm::{gemm_ops, NchwScatterBias, RowMajor};
use kemf_tensor::matmul::matmul_into;
use kemf_tensor::rng::seeded_rng;
use kemf_tensor::{simd, Tensor};
use std::hint::black_box;
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

    // The three products of one convolution layer, at the layers the
    // end-to-end benchmark's ResNet-20 (width 4) and VGG-11 (width 8)
    // train on 3×16×16 inputs at batch 16: forward as `Conv2d` runs it
    // (bias + NCHW scatter epilogue), weight gradient accumulated into
    // `dw`, input gradient with its `col2im`. Same FLOPs in each column.
    let layers = [
        ("resnet20_stem", conv(3, 16, 1), 4),
        ("resnet20_stage1", conv(4, 16, 1), 4),
        ("resnet20_stage2_in", conv(4, 16, 2), 8),
        ("resnet20_stage2", conv(8, 8, 1), 8),
        ("resnet20_stage3_in", conv(8, 8, 2), 16),
        ("resnet20_stage3", conv(16, 4, 1), 16),
        ("vgg11_conv1", conv(3, 16, 1), 8),
        ("vgg11_conv2", conv(8, 8, 1), 16),
        ("vgg11_conv4", conv(32, 4, 1), 32),
        ("vgg11_conv6", conv(64, 2, 1), 64),
        ("vgg11_conv8", conv(64, 1, 1), 64),
    ];
    let mut backward = Table::new(
        "Convolution layer products (GFLOP/s)",
        &["layer", "o,patch,cols", "forward", "weight grad", "input grad"],
    );
    let mut backward_rows = Vec::new();
    for (name, g, o) in layers {
        let (patch, ncols, plane) = (g.patch_len(), g.cols(), g.oh() * g.ow());
        let x = Tensor::randn(&[g.n, g.c, g.h, g.w], 1.0, &mut rng);
        let w = Tensor::randn(&[o, patch], 1.0, &mut rng);
        let bias = Tensor::randn(&[o], 1.0, &mut rng);
        let grad = Tensor::randn(&[g.n, o, g.oh(), g.ow()], 1.0, &mut rng);
        let mut cols = vec![0.0f32; patch * ncols];
        im2col(x.data(), &g, &mut cols);
        let mut scratch = cols.clone();
        let mut y = vec![0.0f32; grad.numel()];
        let mut dw = vec![0.0f32; o * patch];
        let mut gx = vec![0.0f32; x.numel()];

        // Both gradients once per kernel tier: the same bits.
        let mut gradients = || {
            dw.fill(0.0);
            weight_grad(grad.data(), o, &cols, &g, &mut dw);
            input_grad(w.data(), grad.data(), o, &g, &mut scratch, &mut gx);
            dw.iter().chain(&gx).map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        let native = gradients();
        let scalar = {
            let _guard = simd::ScalarGuard::new();
            gradients()
        };
        assert!(native == scalar, "{name}: native and scalar kernel tiers disagree on the gradients");

        let flops = 2.0 * (o * patch * ncols) as f64;
        let iters = if smoke { 2 } else { 20usize.max((2e8 / flops) as usize) };
        let gflops = |secs: f64| flops / secs / 1e9;
        let forward_gflops = gflops(time_per_call(
            || {
                gemm_ops(
                    o,
                    patch,
                    ncols,
                    &RowMajor { data: w.data(), ld: patch },
                    &RowMajor { data: black_box(&cols), ld: ncols },
                    &mut NchwScatterBias { out: &mut y, o, plane, bias: bias.data() },
                )
            },
            iters,
        ));
        let weight_grad_gflops = gflops(time_per_call(
            || weight_grad(grad.data(), o, black_box(&cols), &g, &mut dw),
            iters,
        ));
        let input_grad_gflops = gflops(time_per_call(
            || input_grad(w.data(), grad.data(), o, &g, black_box(&mut scratch), &mut gx),
            iters,
        ));
        backward.row(&[
            name.into(),
            format!("{o},{patch},{ncols}"),
            format!("{forward_gflops:.1}"),
            format!("{weight_grad_gflops:.1}"),
            format!("{input_grad_gflops:.1}"),
        ]);
        backward_rows.push(format!(
            "    {{\"layer\": \"{name}\", \"batch\": {}, \"in_channels\": {}, \"hw\": {}, \
             \"stride\": {}, \"out_channels\": {o}, \"patch\": {patch}, \"cols\": {ncols}, \
             \"forward_gflops\": {forward_gflops:.3}, \
             \"weight_grad_gflops\": {weight_grad_gflops:.3}, \
             \"input_grad_gflops\": {input_grad_gflops:.3}}}",
            g.n, g.c, g.h, g.stride
        ));
    }
    println!("{}", backward.render());

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
         \"conv_lowering\": [\n{}\n  ],\n  \"conv_backward\": [\n{}\n  ],\n  \
         \"model_build\": [\n{}\n  ]\n}}\n",
        cpu_features.iter().map(|f| format!("\"{f}\"")).collect::<Vec<_>>().join(", "),
        kemf_fl::engine::init_thread_pool(),
        json_rows.join(",\n"),
        lowering_rows.join(",\n"),
        backward_rows.join(",\n"),
        build_rows.join(",\n"),
    );
    let path = results_dir().join("BENCH_kernels.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("[json] {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
