#!/usr/bin/env bash
# Local CI gate: exactly what a reviewer runs before merging.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q --workspace

# Threads do not change histories: the suites whose expected values are
# pinned constants (history hashes, golden bytes of checkpoints, socket ==
# in-process, resumed == straight) must match the same tables with every
# client trained and every server-side product run on the calling thread,
# and with two clients in flight and the server's products split in two;
# and a split layer pass must be its inline pass bit for bit. The compute
# width is settled once per process, so it takes two runs.
for width in 1 2; do
    KEMF_THREADS=$width cargo test -q --test golden_histories --test golden_bytes \
        --test async_rounds --test resume --test fault_matrix --test transport \
        --test population
    KEMF_THREADS=$width cargo test -q -p kemf-nn --test split
done

cargo clippy --workspace --all-targets -- -D warnings

# One round path: `FedAlgorithm::round` is the engine's provided
# train_cohort → fuse composition, and no algorithm may grow its own
# synchronous body again (test modules, after `#[cfg(test)]`, may).
awk 'FNR==1{t=0} /#\[cfg\(test\)\]/{t=1} !t && /^ *fn round\(/{print FILENAME":"FNR": round override"; bad=1} END{exit bad}' \
    $(ls crates/fl/src/*.rs crates/core/src/*.rs | grep -v '/engine\.rs$')

# One cohort driver, one client-model population: outside test modules,
# cohort chunking lives in cohort.rs (config.rs defines `cohort_chunk`;
# the client fan-out has its own guard below), the sharded-population
# checkpoint marker in client_store.rs, and the per-client checkpoint
# section name in client_models.rs. A new hand-rolled copy of any of them
# fails here.
awk 'FNR==1{t=0} /#\[cfg\(test\)\]/{t=1} t{next}
    function only(pat, what, allowed) {
        if (index($0, pat) && FILENAME !~ allowed) { print FILENAME":"FNR": "what; bad=1 }
    }
    { only("cohort_chunk(", "cohort chunking outside the cohort driver", "/(cohort|config)\\.rs$")
      only("\"sharded_clients\"", "population marker outside the client store", "/client_store\\.rs$")
      only("\"local.{k}\"", "client checkpoint section outside ClientModels", "/client_models\\.rs$") }
    END{exit bad}' crates/fl/src/*.rs crates/core/src/*.rs

# One byte codec: outside test modules, little-endian decoding lives in
# kemf_nn::codec (the Reader every format is read with), and the CRC-32
# polynomial and FNV-1a offset basis are each written down once. A
# seventh hand-rolled decoder, or a second checksum loop, fails here.
awk 'FNR==1{t=0} /#\[cfg\(test\)\]/{t=1} t{next}
    index($0, "from_le_bytes(") && FILENAME !~ /\/nn\/src\/codec\.rs$/ {
        print FILENAME":"FNR": little-endian decode outside kemf_nn::codec"; bad=1 }
    index($0, "0xEDB8_8320") { crc++ }
    index($0, "0xcbf2_9ce4_8422_2325") { fnv++ }
    END{ if (crc != 1) { print "CRC-32 polynomial written " crc+0 " times, want 1"; bad=1 }
         if (fnv != 1) { print "FNV-1a offset basis written " fnv+0 " times, want 1"; bad=1 }
         exit bad }' crates/nn/src/*.rs crates/fl/src/*.rs crates/core/src/*.rs
# ... and one CRC dispatch: outside test modules, the carry-less-multiply
# kernel is called only by `codec::crc32`, which decides between it and
# the table (tier, host, length) — a second caller would checksum without
# the scalar tier's override or the table's tail.
awk 'FNR==1{t=0} /#\[cfg\(test\)\]/{t=1} t{next}
    index($0, "crc32_pclmul(") && !index($0, "fn crc32_pclmul(") && FILENAME !~ /\/nn\/src\/codec\.rs$/ {
        print FILENAME":"FNR": CRC kernel called outside codec::crc32"; bad=1 }
    END{exit bad}' crates/*/src/*.rs crates/*/src/bin/*.rs

# Typed GEMM operands: outside test modules, layers hand the engine
# `RowMajor`/`ColMajor`/`NchwGather` views (`gemm_ops`), which pack by
# slice copies and let it read a row-major B in place. An element-accessor
# operand (`FnOp`) or the closure entry point (`gemm(`) coming back would
# put an indirect call and an index division on every packed element.
awk 'FNR==1{t=0} /#\[cfg\(test\)\]/{t=1} t{next}
    /(^|[^_A-Za-z0-9])(FnOp|gemm)\(/ {
        print FILENAME":"FNR": closure GEMM operand outside kemf_tensor tests"; bad=1 }
    END{exit bad}' crates/nn/src/*.rs crates/core/src/*.rs crates/fl/src/*.rs

# One training step, one forward path, one parallel region: outside test
# modules, no layer grows a second (`_ws`) spelling of its passes, and
# optimizers are stepped by `Model::train_step` — under kemf-fl/kemf-core
# only deep mutual learning, which crosses two networks' logits inside
# one step, steps them itself. Threads are started in two places:
# `kemf_tensor::par`, whose parked helpers run every fork-join (a
# cohort's clients, the teacher pass) and every split product (layers
# called outside a share), nested calls inline; and the socket
# transport's worker pool. The vendored `rayon` is the width registry
# only `par::width` consults. A hand-copied step loop, the allocating
# twin of a pass, or a second parallel region coming back fails here.
awk 'FNR==1{t=0} /#\[cfg\(test\)\]/{t=1} t{next}
    FILENAME ~ /\/nn\/src\// && /fn (forward|backward)_ws/ {
        print FILENAME":"FNR": second spelling of a layer pass"; bad=1 }
    /thread::(scope|spawn|Builder)/ && FILENAME !~ /\/(tensor\/src\/par|fl\/src\/transport)\.rs$/ {
        print FILENAME":"FNR": thread started outside kemf_tensor::par and the socket transport"; bad=1 }
    /rayon::/ && FILENAME !~ /\/tensor\/src\/par\.rs$/ {
        print FILENAME":"FNR": rayon outside the width registry"; bad=1 }
    FILENAME ~ /\/(fl|core)\/src\// && FILENAME !~ /\/core\/src\/dml\.rs$/ && index($0, ".step(") {
        print FILENAME":"FNR": optimizer step outside Model::train_step"; bad=1 }
    END{exit bad}' crates/nn/src/*.rs crates/tensor/src/*.rs crates/fl/src/*.rs crates/core/src/*.rs

# One int8 route: outside test modules, kemf-fl/kemf-core switch a model's
# compute format only inside `ensemble_forward_with_precision` (the server
# distils in f32; the frozen benchmark's int8 probes call that function),
# and the AVX2 int8 tier and group norm, which no artefact ran, stay gone.
awk 'FNR==1{t=0} /#\[cfg\(test\)\]/{t=1} t{next}
    FILENAME ~ /\/(fl|core)\/src\// && FILENAME !~ /\/core\/src\/ensemble\.rs$/ && index($0, "set_precision(") {
        print FILENAME":"FNR": compute format switched outside ensemble_forward_with_precision"; bad=1 }
    /GroupNorm|NormKind|gemm_i8_block_avx2|quant_interleave4_avx2/ {
        print FILENAME":"FNR": deleted int8 tier or group norm"; bad=1 }
    END{exit bad}' crates/*/src/*.rs crates/*/src/bin/*.rs

# One byte ledger, one link field, one finish-time rule: outside test
# modules, a run's bytes live in its History (no tracker re-summing them),
# async links are one `AsyncConfig.network` field with no uniform-profile
# or per-plan pricing twin beside it, the socket transport keeps no knob
# that changes nothing, and a client's download → delay → upload sum is
# written once, in network.rs's `client_finish_time`.
awk 'FNR==1{t=0} /#\[cfg\(test\)\]/{t=1} t{next}
    /(^|[^_A-Za-z0-9])(CommTracker|lifecycle_round_time_planned|is_uniform|carry_model|filler_only)([^_A-Za-z0-9]|$)/ {
        print FILENAME":"FNR": deleted byte ledger, pricing twin or transport knob"; bad=1 }
    FILENAME ~ /\/fl\/src\// && index($0, "attempts as f64 *") { fin++ }
    END{ if (fin != 1) { print "client finish time written " fin+0 " times under crates/fl/src, want 1"; bad=1 }
         exit bad }' crates/*/src/*.rs crates/*/src/bin/*.rs

# The frozen benchmark package links the library's public API; build it
# here so a broken signature fails in CI, not in the bench pipeline, and
# run its smoke pass (2+2 rounds per workload, writes no files) so its own
# correctness checks — traced == untraced history, socket == in-process
# records, GEMM-table FLOPs == the library counter — fail here too.
CARGO_TARGET_DIR=target/bench_e2e \
    cargo build --release --offline --manifest-path benchmark/Cargo.toml
CARGO_TARGET_DIR=target/bench_e2e benchmark/run.sh --smoke

# Kernel smoke: run every bench_kernels code path (GEMM shapes, lowering,
# convolution products, model builds) with a tiny time budget (no JSON
# write). Catches dispatch-tier crashes — e.g. an AVX-512
# path that faults on the CI host — that unit tests under a forced tier
# would miss, and asserts that both gradients of a convolution come out
# bit-identical on the native and the scalar tier at every ResNet-20 /
# VGG-11 geometry: a transposing kernel that runs its FMA chains out of
# order fails here, not in a golden hash three layers up. (The property
# suite behind it, crates/tensor/tests/props.rs, runs with the workspace
# tests above; it starts no cohort, so it is not in the width loop.)
cargo run --release -p kemf-bench --bin bench_kernels -- --smoke

# Population smoke: equal 1000-client cohorts sampled from 100k- and
# 50k-client populations must peak at the same RSS (memory is O(cohort),
# not O(population)), and FedKEMF with client models spilled to disk
# must be bit-identical to the eager in-memory run. Asserts internally.
cargo run --release -p kemf-bench --bin bench_population -- --smoke

# Async smoke: the buffered-round equivalence anchor (buffer == cohort +
# zero delay reproduces the synchronous history bit-for-bit) plus one
# genuinely buffered straggler run that must advance the virtual clock.
# Asserts internally.
cargo run --release -p kemf-bench --bin bench_async -- --smoke

# Experiments smoke: the one driver must write, byte for byte, the CSVs
# the ten per-artefact binaries it replaced wrote at the same flags
# (crates/bench/golden holds their output at the last commit that had
# them), and must train each distinct run once: of the 156 histories the
# artefacts ask for at the default grid, 87 are distinct.
rm -rf target/exp_smoke
KEMF_RESULTS_DIR=target/exp_smoke cargo run --release -p kemf-bench --bin experiments -- \
    --rounds 2 --spc 24 --seed 7
diff -r -x experiments_manifest.json crates/bench/golden target/exp_smoke
grep -q '"histories_requested": 156' target/exp_smoke/experiments_manifest.json
grep -q '"histories_trained": 87' target/exp_smoke/experiments_manifest.json

# Native-tuned build: the runtime SIMD dispatch must not conflict with
# target-cpu=native codegen (the autovectorizer emitting wider ops around
# the explicit kernels). Build and run the fast test suite in a separate
# target dir so the default cache stays warm.
RUSTFLAGS="-C target-cpu=native" CARGO_TARGET_DIR=target/native \
    cargo test -q --release

# Smoke-run the fault-injection example: exercises the client lifecycle
# (drops, stragglers, upload retries, quorum aborts) end to end.
cargo run --release --example unreliable_clients

# Socket-transport smoke: a small federation over real localhost TCP
# with two spawned worker processes and the fault storm on — broadcasts
# carry the actual quantized model, drops arrive as corrupted/truncated
# frames, and the example asserts the wire accounting matches the
# simulator. bench_transport additionally pins faults-off byte-identity
# between the socket and in-process runs.
cargo run --release --example socket_federation
cargo run --release -p kemf-bench --bin bench_transport -- --smoke

# Server-larger-than-client smoke: FedRolex's windowed per-client
# downlink must be well under the full wide-MLP model at nonzero
# accuracy, one FedRolex federation must run over real localhost TCP
# byte-identically to the simulator, and FedGEMS must learn through a
# ≥2× server while billing logit-sized payloads. Asserts internally.
cargo run --release -p kemf-bench --bin bench_rolex -- --smoke

# Trace smoke: a recorded run must export round-lifecycle JSONL with one
# span per phase. The example itself asserts the export round-trips and
# every round is complete; here we check the artifact landed.
trace_file=target/trace_smoke.jsonl
rm -f "$trace_file"
KEMF_TRACE="$trace_file" cargo run --release --example quickstart
test -s "$trace_file" || { echo "trace smoke: $trace_file empty or missing"; exit 1; }
for phase in sample broadcast local_update fusion upload eval round; do
    grep -q "\"phase\":\"$phase\"" "$trace_file" \
        || { echo "trace smoke: missing $phase spans"; exit 1; }
done
echo "trace smoke: $(wc -l < "$trace_file") spans in $trace_file"

# Resume smoke: a run checkpointed, killed at round 3 of 6, and resumed
# must produce a history byte-identical to an uninterrupted 6-round run.
ckpt_dir=target/resume_smoke_ckpts
hist_straight=target/resume_smoke_straight.json
hist_resumed=target/resume_smoke_resumed.json
rm -rf "$ckpt_dir" "$hist_straight" "$hist_resumed"
KEMF_ROUNDS=6 KEMF_HISTORY="$hist_straight" cargo run --release --example quickstart
KEMF_ROUNDS=3 KEMF_CHECKPOINT="$ckpt_dir" cargo run --release --example quickstart
KEMF_ROUNDS=6 KEMF_CHECKPOINT="$ckpt_dir" KEMF_HISTORY="$hist_resumed" \
    cargo run --release --example quickstart
cmp "$hist_straight" "$hist_resumed" \
    || { echo "resume smoke: resumed history differs from straight run"; exit 1; }
echo "resume smoke: straight and resumed histories are byte-identical"
