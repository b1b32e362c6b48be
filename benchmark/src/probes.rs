//! Layer probes: the benchmark calls each layer's public functions
//! directly, on the workload's own specs, batch size, pool and cohort
//! size, and times them from outside. They run in the traced run's
//! process and never feed an end-to-end number.

use crate::metrics::Metrics;
use crate::pass::Pass;
use crate::stats::median;
use crate::workloads::{Algo, Workload, World, BATCH, EVAL_BATCH};
use kemf_core::distill::distill_ensemble;
use kemf_core::dml::{dml_step, DmlConfig};
use kemf_core::ensemble::{ensemble_forward, ensemble_forward_with_precision, ensemble_logits};
use kemf_data::partition::shard_partition;
use kemf_fl::checkpoint::{load_run, save_run, RunCheckpoint};
use kemf_fl::client_store::{ClientBlob, ClientStateStore, SpillConfig};
use kemf_fl::compress::{dequantize, quantize, ComputePrecision, QuantizedWeights, DEFAULT_CHUNK};
use kemf_fl::local::{local_train, LocalCfg};
use kemf_fl::transport::SocketTransport;
use kemf_nn::loss::{cross_entropy_ws, kl_to_target_ws, soften};
use kemf_nn::model::Model;
use kemf_nn::models::{Arch, ModelSpec};
use kemf_nn::optim::Sgd;
use kemf_nn::serialize::ModelState;
use kemf_tensor::conv::{col2im, im2col, ConvGeom};
use kemf_tensor::gemm::Store;
use kemf_tensor::matmul::{matmul_into, matmul_nt_into};
use kemf_tensor::quant;
use kemf_tensor::rng::seeded_rng;
use kemf_tensor::workspace::Workspace;
use kemf_tensor::{flops, Tensor};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// How many calls back each reported median. A probe makes `warmup`
/// untimed calls, then at most `max_calls` timed ones, stopping early
/// (but never below `min_calls`) once `budget_s` is spent — so a 200 ms
/// distillation is not called thirty times.
#[derive(Clone, Copy, Debug)]
pub struct Sampling {
    pub warmup: usize,
    pub min_calls: usize,
    pub max_calls: usize,
    pub budget_s: f64,
}

impl Sampling {
    pub const FULL: Sampling = Sampling { warmup: 3, min_calls: 5, max_calls: 30, budget_s: 0.4 };
    pub const SMOKE: Sampling = Sampling { warmup: 1, min_calls: 2, max_calls: 2, budget_s: 0.0 };
}

fn secs<T>(f: impl FnOnce() -> T) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed().as_secs_f64()
}

/// Medians of the `N` timed segments `call` reports per invocation (each
/// call times its own parts, so preparation stays outside the
/// measurement). The budget counts the segments' sum.
fn p50_segments<const N: usize>(s: Sampling, mut call: impl FnMut() -> [f64; N]) -> [f64; N] {
    for _ in 0..s.warmup {
        call();
    }
    let mut samples: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(s.max_calls));
    let (mut calls, mut spent) = (0, 0.0);
    while calls < s.min_calls || (calls < s.max_calls && spent < s.budget_s) {
        let segments = call();
        spent += segments.iter().sum::<f64>();
        for (list, dt) in samples.iter_mut().zip(segments) {
            list.push(dt);
        }
        calls += 1;
    }
    samples.map(|list| median(&list))
}

/// Median seconds of `call`, which returns the seconds of its timed part.
fn p50(s: Sampling, mut call: impl FnMut() -> f64) -> f64 {
    p50_segments(s, || [call()])[0]
}

/// One GEMM of a model's forward pass: `C[m,n] = A[m,k]·B[k,n]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GemmShape {
    pub m: usize,
    pub k: usize,
    pub n: usize,
    /// The convolution it lowers, `None` for a linear layer.
    pub conv: Option<ConvGeom>,
}

impl GemmShape {
    pub fn flops(&self) -> u64 {
        2 * (self.m * self.k * self.n) as u64
    }
}

/// The forward GEMMs of `spec` at `batch`, mirroring the topology in
/// `kemf_nn::models` (which exposes no layer geometry). Probes check the
/// sum against the library's own FLOP counter, so a topology change that
/// this table misses fails the run instead of skewing a metric.
pub fn forward_gemms(spec: &ModelSpec, batch: usize) -> Vec<GemmShape> {
    let mut out = Vec::new();
    let mut conv = |c: usize, o: usize, hw: usize, kernel: usize, stride: usize, pad: usize| {
        let g = ConvGeom { n: batch, c, h: hw, w: hw, kh: kernel, kw: kernel, stride, pad };
        out.push(GemmShape { m: o, k: g.patch_len(), n: g.cols(), conv: Some(g) });
        g.oh()
    };
    let w = spec.width;
    let linears: Vec<(usize, usize)> = match spec.arch {
        Arch::ResNet20 | Arch::ResNet32 | Arch::ResNet44 => {
            let blocks = spec.arch.resnet_blocks().expect("resnet arch");
            let mut hw = conv(spec.in_channels, w, spec.input_hw, 3, 1, 1);
            let mut in_ch = w;
            for (out_ch, first_stride) in [(w, 1), (2 * w, 2), (4 * w, 2)] {
                for b in 0..blocks {
                    let stride = if b == 0 { first_stride } else { 1 };
                    let out_hw = conv(in_ch, out_ch, hw, 3, stride, 1);
                    conv(out_ch, out_ch, out_hw, 3, 1, 1);
                    if stride != 1 || in_ch != out_ch {
                        conv(in_ch, out_ch, hw, 1, stride, 0);
                    }
                    hw = out_hw;
                    in_ch = out_ch;
                }
            }
            vec![(4 * w, spec.classes)]
        }
        Arch::Vgg11 => {
            let widths = [w, 2 * w, 4 * w, 4 * w, 8 * w, 8 * w, 8 * w, 8 * w];
            let (mut in_ch, mut hw) = (spec.in_channels, spec.input_hw);
            for (i, &out_ch) in widths.iter().enumerate() {
                conv(in_ch, out_ch, hw, 3, 1, 1);
                in_ch = out_ch;
                if [0, 1, 3, 5, 7].contains(&i) && hw >= 2 {
                    hw /= 2;
                }
            }
            vec![(8 * w, 8 * w), (8 * w, spec.classes)]
        }
        Arch::Mlp1 => {
            vec![(spec.in_channels * spec.input_hw * spec.input_hw, w), (w, spec.classes)]
        }
        Arch::Cnn2 => panic!("no workload trains {:?}", spec.arch),
    };
    out.extend(linears.into_iter().map(|(i, o)| GemmShape { m: batch, k: i, n: o, conv: None }));
    out
}

/// Everything the probes of one workload need.
pub struct ProbeInput<'a> {
    pub workload: &'a Workload,
    pub world: &'a World,
    pub seed: u64,
    /// The traced pass: its end-of-run algorithm and history feed the
    /// checkpoint probe.
    pub traced: &'a Pass,
    pub work: &'a Path,
    pub sampling: Sampling,
}

/// Run every probe that applies to the workload. Returns the failed
/// self-checks (empty when all hold).
pub fn run_probes(p: &ProbeInput<'_>, out: &mut Metrics) -> Vec<String> {
    let mut failures = Vec::new();
    let w = p.workload;
    let s = p.sampling;
    let client_spec = w.client_specs(p.seed)[0];
    let wire_spec = w.wire_spec(p.seed);
    let test = &p.world.ctx.test;
    let x = test.images.slice_rows(0, BATCH);
    let labels = &test.labels[..BATCH];
    let shard = p.world.ctx.client_shard(0);

    // ---- kemf-tensor ----------------------------------------------------
    let peak = {
        let n = 512;
        let mut rng = seeded_rng(0xbe7c);
        let a = Tensor::randn(&[n, n], 1.0, &mut rng);
        let b = Tensor::randn(&[n, n], 1.0, &mut rng);
        let mut c = vec![0.0f32; n * n];
        let t = p50(s, || secs(|| matmul_into(a.data(), b.data(), &mut c, n, n, n)));
        2.0 * (n * n * n) as f64 / t / 1e9
    };
    out.set("tensor.gemm.peak_gflops", peak);

    let gemms = forward_gemms(&client_spec, BATCH);
    {
        // Self-check: the table above must add up to what the library
        // counts for one forward pass.
        let mut model = Model::new(client_spec);
        let before = flops::total();
        let y = model.predict(&x);
        let counted = flops::total() - before;
        model.recycle(y);
        let listed: u64 = gemms.iter().map(GemmShape::flops).sum();
        if counted != listed {
            failures.push(format!(
                "forward_gemms lists {listed} FLOPs for {:?}, the library counted {counted}",
                client_spec.arch
            ));
        }
    }
    let dominant = *gemms.iter().max_by_key(|g| g.flops()).expect("model has GEMMs");
    tensor_probes(&dominant, s, out);

    // ---- kemf-nn --------------------------------------------------------
    let mut model = Model::new(client_spec);
    let mut opt = Sgd::new(p.world.ctx.cfg.sgd_at(0));
    {
        let [fwd, ce, bwd, step] = p50_segments(s, || {
            model.zero_grad();
            let t0 = Instant::now();
            let logits = model.forward(&x, true);
            let t1 = Instant::now();
            let (_, grad) = cross_entropy_ws(&logits, labels, model.ws_mut());
            let t2 = Instant::now();
            model.recycle(logits);
            let t3 = Instant::now();
            let gx = model.backward(&grad);
            let t4 = Instant::now();
            model.recycle(grad);
            model.recycle(gx);
            let t5 = Instant::now();
            opt.step(model.net_mut());
            let t6 = Instant::now();
            [t1 - t0, t2 - t1, t4 - t3, t6 - t5].map(|d| d.as_secs_f64())
        });
        out.set("nn.model.forward_s", fwd);
        out.set("nn.loss.ce_s", ce);
        out.set("nn.model.backward_s", bwd);
        out.set("nn.optim.step_s", step);
    }
    {
        // Steady state: after the warm-up above, further steps must draw
        // every buffer from the workspace pool.
        let fresh = |m: &mut Model| {
            let ws = m.ws_mut();
            ws.fresh_allocations() + ws.fresh_usize_allocations() + ws.fresh_i8_allocations()
        };
        let before = fresh(&mut model);
        let f0 = flops::total();
        let t = secs(|| {
            for _ in 0..3 {
                black_box(model.train_batch(&x, labels, &mut opt));
            }
        });
        let gflops = (flops::total() - f0) as f64 / t / 1e9;
        out.set("tensor.workspace.fresh_allocs_steady", (fresh(&mut model) - before) as f64);
        out.set("nn.model.train_gflops", gflops);
        out.set("nn.model.train_efficiency", gflops / peak);
    }
    {
        let logits = model.predict(&x);
        let target = soften(&logits, 2.0);
        let mut ws = Workspace::new();
        out.set(
            "nn.loss.kl_s",
            p50(s, || {
                let t0 = Instant::now();
                let (loss, grad) = kl_to_target_ws(&logits, &target, 2.0, &mut ws);
                let dt = t0.elapsed().as_secs_f64();
                black_box(loss);
                ws.recycle_tensor(grad);
                dt
            }),
        );
    }
    {
        let mut wire = Model::new(wire_spec);
        let eval_x = test.images.slice_rows(0, EVAL_BATCH.min(test.len()));
        out.set(
            "nn.model.predict_s",
            p50(s, || {
                let t0 = Instant::now();
                let y = wire.predict(&eval_x);
                let dt = t0.elapsed().as_secs_f64();
                wire.recycle(y);
                dt
            }),
        );
        out.set(
            "nn.serialize.state_roundtrip_s",
            p50(s, || {
                secs(|| {
                    let st = wire.state();
                    wire.set_state(&st);
                })
            }),
        );
        let states: Vec<ModelState> = (0..w.per_round)
            .map(|i| {
                Model::new(ModelSpec { seed: wire_spec.seed ^ (i as u64 + 1), ..wire_spec }).state()
            })
            .collect();
        let coeffs = vec![1.0f32; states.len()];
        out.set(
            "nn.serialize.weighted_average_s",
            p50(s, || secs(|| ModelState::weighted_average(&states, &coeffs))),
        );
    }

    // ---- kemf-data ------------------------------------------------------
    let train = p.world.task.generate(w.train_samples(), 0);
    out.set(
        "data.synth.generate_s",
        p50(s, || secs(|| p.world.task.generate(w.train_samples(), 0))),
    );
    out.set(
        "data.partition.shard_s",
        p50(s, || secs(|| shard_partition(&train.labels, w.clients, w.shards_per_client, p.seed))),
    );
    {
        let mut rng = seeded_rng(p.seed);
        out.set(
            "data.dataset.batch_gather_s",
            p50(s, || secs(|| shard.shuffled_batches(BATCH, &mut rng).count())),
        );
    }

    // ---- kemf-fl --------------------------------------------------------
    {
        let cfg = &p.world.ctx.cfg;
        let local =
            LocalCfg { epochs: cfg.local_epochs, batch: cfg.batch_size, sgd: cfg.sgd_at(0) };
        let mut m = Model::new(client_spec);
        let t = p50(s, || secs(|| local_train(&mut m, &shard, &local, p.seed, None)));
        out.set("fl.local.train_s", t);
        out.set("fl.local.samples_per_s", (shard.len() * cfg.local_epochs) as f64 / t);
    }
    {
        let weights = Model::new(wire_spec).weights();
        let mb = weights.bytes() as f64 / 1e6;
        let q = quantize(&weights, DEFAULT_CHUNK).expect("fresh weights are finite");
        let wire = q.to_wire();
        let wire_mb = wire.len() as f64 / 1e6;
        out.set(
            "fl.compress.quantize_mbps",
            mb / p50(s, || secs(|| quantize(&weights, DEFAULT_CHUNK))),
        );
        out.set("fl.compress.dequantize_mbps", mb / p50(s, || secs(|| dequantize(&q))));
        out.set("fl.compress.to_wire_mbps", wire_mb / p50(s, || secs(|| q.to_wire())));
        out.set(
            "fl.compress.from_wire_mbps",
            wire_mb / p50(s, || secs(|| QuantizedWeights::from_wire(&wire))),
        );
    }
    if let Some(cfg) = w.socket_config() {
        out.set(
            "fl.transport.pool_start_s",
            p50(Sampling { max_calls: s.max_calls.min(10), ..s }, || {
                let t0 = Instant::now();
                let pool = SocketTransport::start(&cfg, None);
                let dt = t0.elapsed().as_secs_f64();
                if let Err(e) = pool.and_then(SocketTransport::finish) {
                    failures.push(format!("socket worker pool: {e}"));
                }
                dt
            }),
        );
    }
    if let Algo::FedKemf { spill, .. } = w.algo {
        store_probes(w, p, client_spec, spill, out, &mut failures);
    }
    if matches!(w.mode, crate::workloads::Mode::Async { .. }) {
        checkpoint_probes(p, out, &mut failures);
    }

    // ---- kemf-core ------------------------------------------------------
    if let (Some(pool), Some(distill)) = (&p.world.pool, w.distill_config()) {
        let cfg = &p.world.ctx.cfg;
        let dml = DmlConfig {
            kl_weight: 0.3,
            ..DmlConfig::new(cfg.local_epochs, cfg.batch_size, cfg.sgd_at(0))
        };
        let mut local = Model::new(client_spec);
        let mut knowledge = Model::new(wire_spec);
        let (mut opt_l, mut opt_k) = (Sgd::new(dml.sgd), Sgd::new(dml.sgd));
        let step_s = p50(s, || {
            secs(|| dml_step(&mut local, &mut knowledge, &x, labels, &dml, &mut opt_l, &mut opt_k))
        });
        let plain_s = p50(s, || {
            secs(|| {
                black_box(local.train_batch(&x, labels, &mut opt_l));
                black_box(knowledge.train_batch(&x, labels, &mut opt_k));
            })
        });
        out.set("core.dml.step_s", step_s);
        out.set("core.dml.overhead_ratio", step_s / plain_s);

        // As many members as one fusion sees: the buffer in async mode,
        // the cohort otherwise.
        let members = w.async_config().map_or(w.per_round, |a| a.buffer_size);
        let mut teachers: Vec<Model> = (0..members)
            .map(|i| Model::new(ModelSpec { seed: wire_spec.seed ^ (i as u64 + 1), ..wire_spec }))
            .collect();
        let strategy = distill.strategy;
        let f32_s = p50(s, || secs(|| ensemble_forward(&mut teachers, pool, strategy)));
        let i8_s = p50(s, || {
            secs(|| {
                ensemble_forward_with_precision(
                    &mut teachers,
                    pool,
                    strategy,
                    ComputePrecision::Int8,
                )
            })
        });
        out.set("core.ensemble.forward_s", f32_s);
        out.set("core.ensemble.forward_i8_s", i8_s);
        out.set("core.ensemble.i8_speedup", f32_s / i8_s);
        let member_logits: Vec<Tensor> = teachers.iter_mut().map(|t| t.predict(pool)).collect();
        out.set(
            "core.ensemble.logits_s",
            p50(s, || secs(|| ensemble_logits(&member_logits, strategy))),
        );

        // The teacher pass exactly as `distill_ensemble` runs it (batch
        // statistics, whole pool at once); the student loop is the rest.
        let teacher_s = p50(s, || {
            secs(|| {
                let z: Vec<Tensor> =
                    teachers.iter_mut().map(|t| t.predict_batch_stats(pool)).collect();
                soften(&ensemble_logits(&z, strategy), distill.temperature)
            })
        });
        let mut student = Model::new(wire_spec);
        let mut steps = 0;
        let mut spent_flops = 0;
        let total_s = p50(s, || {
            let f0 = flops::total();
            let t0 = Instant::now();
            steps = distill_ensemble(&mut student, &mut teachers, pool, &distill, p.seed).steps;
            let dt = t0.elapsed().as_secs_f64();
            spent_flops = flops::total() - f0;
            dt
        });
        out.set("core.distill.total_s", total_s);
        out.set("core.distill.teacher_s", teacher_s);
        out.set("core.distill.student_s", total_s - teacher_s);
        out.set("core.distill.steps", steps as f64);
        out.set("core.distill.gflops", spent_flops as f64 / total_s / 1e9);
    }
    failures
}

/// GEMM throughput, im2col/col2im bandwidth and the int8 ratio at the
/// workload's dominant forward GEMM.
fn tensor_probes(g: &GemmShape, s: Sampling, out: &mut Metrics) {
    let (m, k, n) = (g.m, g.k, g.n);
    let mut rng = seeded_rng(0xd0);
    let a = Tensor::randn(&[m, k], 1.0, &mut rng);
    // Conv: B is the im2col matrix, row-major [k, n]. Linear: B is the
    // weight matrix read transposed, stored [n, k].
    let b = Tensor::randn(&[k * n], 1.0, &mut rng);
    let mut c = vec![0.0f32; m * n];
    let f32_s = p50(s, || {
        secs(|| match g.conv {
            Some(_) => matmul_into(a.data(), b.data(), &mut c, m, k, n),
            None => matmul_nt_into(a.data(), b.data(), &mut c, m, k, n),
        })
    });
    out.set("tensor.gemm.dominant_gflops", g.flops() as f64 / f32_s / 1e9);

    // Int8 at the same shape, operand quantization included: the layers'
    // Int8 path quantizes both operands on every forward.
    let mut ws = Workspace::new();
    let mut qa = ws.take_i8(quant::a_codes_len(m, k));
    let mut sa = vec![0.0f32; m];
    let mut bp = ws.take_i8(quant::b_pack_len(k, n));
    let mut sb = vec![0.0f32; n];
    let i8_s = p50(s, || {
        secs(|| {
            quant::quantize_a_rows(a.data(), m, k, &mut qa, &mut sa);
            match g.conv {
                Some(_) => quant::pack_b_rowmajor(b.data(), k, n, &mut bp, &mut sb),
                None => quant::pack_b_transposed(b.data(), n, k, &mut bp, &mut sb),
            }
            quant::gemm_i8(m, k, n, &qa, &sa, &bp, &sb, &mut Store { c: &mut c, ldc: n });
        })
    });
    out.set("tensor.quant.gemm_i8_speedup", f32_s / i8_s);

    if let Some(geom) = g.conv {
        let input = Tensor::randn(&[geom.n * geom.c * geom.h * geom.w], 1.0, &mut rng);
        let mut cols = vec![0.0f32; geom.patch_len() * geom.cols()];
        let gb = (cols.len() * 4) as f64 / 1e9;
        out.set(
            "tensor.conv.im2col_gbps",
            gb / p50(s, || secs(|| im2col(input.data(), &geom, &mut cols))),
        );
        let mut grad = vec![0.0f32; input.numel()];
        out.set(
            "tensor.conv.col2im_gbps",
            gb / p50(s, || secs(|| col2im(&cols, &geom, &mut grad))),
        );
    }
}

/// Fetch/commit of one client's deployed model through the store the
/// workload uses (spilled or in memory).
fn store_probes(
    w: &Workload,
    p: &ProbeInput<'_>,
    spec: ModelSpec,
    spill: bool,
    out: &mut Metrics,
    failures: &mut Vec<String>,
) {
    let blob = ClientBlob::new().with_model("model", Model::new(spec).state());
    let store = if spill {
        ClientStateStore::sharded(w.clients, SpillConfig::new(p.work.join("probe_spill")))
    } else {
        let mut s = ClientStateStore::in_memory(w.clients);
        s.seed_all(|_| blob.clone());
        Ok(s)
    };
    let mut store = match store {
        Ok(s) => s,
        Err(e) => return failures.push(format!("opening the probe store: {e}")),
    };
    let mut ok = true;
    // Commit at round 0, fetch at round 1: a fetch sees earlier rounds only.
    store.begin_round(0);
    out.set(
        "fl.client_store.commit_s",
        p50(p.sampling, || {
            let b = blob.clone();
            secs(|| ok &= store.commit(0, b).is_ok())
        }),
    );
    store.begin_round(1);
    out.set(
        "fl.client_store.fetch_s",
        p50(p.sampling, || {
            secs(|| ok &= store.fetch(0, |_| ClientBlob::new()).is_ok_and(|b| b == blob))
        }),
    );
    if !ok {
        failures.push("client store round trip lost the committed blob".into());
    }
}

/// Save/load of a run checkpoint holding the traced run's final state.
fn checkpoint_probes(p: &ProbeInput<'_>, out: &mut Metrics, failures: &mut Vec<String>) {
    let state = match p.traced.algo.state() {
        Ok(s) => s,
        Err(e) => return failures.push(format!("exporting algorithm state: {e}")),
    };
    let ckpt = RunCheckpoint {
        fingerprint: 0,
        next_round: p.traced.history.records.len(),
        algorithm: p.traced.algo.name(),
        sampler_check: 0,
        fault_check: 0,
        records: p.traced.history.records.clone(),
        state,
        scheduler: None,
    };
    let dir = p.work.join("probe_ckpt");
    let mut path = None;
    out.set(
        "fl.checkpoint.save_s",
        p50(p.sampling, || {
            let t0 = Instant::now();
            path = save_run(&ckpt, &dir).ok();
            t0.elapsed().as_secs_f64()
        }),
    );
    let Some(path) = path else {
        return failures.push("checkpoint save failed".into());
    };
    let mut same = true;
    out.set(
        "fl.checkpoint.load_s",
        p50(p.sampling, || {
            let t0 = Instant::now();
            let loaded = load_run(&path);
            let dt = t0.elapsed().as_secs_f64();
            same &= loaded.is_ok_and(|l| l == ckpt);
            dt
        }),
    );
    if !same {
        failures.push("checkpoint did not load back equal".into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_table_matches_the_library_flop_counter() {
        // Other tests in this process may run GEMMs concurrently, so the
        // counter is an upper bound here; the run-time self-check in
        // `run_probes` is exact.
        for (arch, ch, hw, width) in [
            (Arch::ResNet20, 3, 16, 4),
            (Arch::ResNet44, 3, 16, 4),
            (Arch::Vgg11, 3, 16, 8),
            (Arch::Mlp1, 1, 12, 64),
        ] {
            let spec = ModelSpec { width, ..ModelSpec::scaled(arch, ch, hw, 10, 1) };
            let listed: u64 = forward_gemms(&spec, 4).iter().map(GemmShape::flops).sum();
            let mut model = Model::new(spec);
            let x = Tensor::zeros(&[4, ch, hw, hw]);
            let before = flops::total();
            let _ = model.predict(&x);
            let counted = flops::total() - before;
            assert!(counted >= listed, "{arch:?}: listed {listed} > counted {counted}");
            assert!(listed > 0);
        }
    }

    #[test]
    fn p50_respects_call_limits() {
        let mut calls = 0;
        let s = Sampling { warmup: 2, min_calls: 3, max_calls: 8, budget_s: 0.0 };
        p50(s, || {
            calls += 1;
            0.001
        });
        assert_eq!(calls, 2 + 3, "a spent budget stops at min_calls");
        calls = 0;
        p50(Sampling { budget_s: 1.0, ..s }, || {
            calls += 1;
            0.001
        });
        assert_eq!(calls, 2 + 8, "an unspent budget stops at max_calls");
    }
}
