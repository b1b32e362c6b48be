#!/usr/bin/env bash
# The one command of the benchmark: builds bench_e2e from source and runs it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one contract run (what BENCHMARK.json's "command" is called with)
#   benchmark/run.sh [--seed N] [--repeat 2] [--smoke] [--assert-bands] [--out-prefix P]
#       every workload, untraced then traced; prints `workload metric value unit`
#       and exits non-zero on any failure
#
# See benchmark/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Build and run from the checkout root: cargo then finds .cargo/config.toml
# (target-cpu=native, like the repository's own build) and a relative
# CARGO_TARGET_DIR means the same directory for cargo and for us.
cd "$here/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
# Cargo's progress goes to stderr; stdout carries only the benchmark's lines.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml 1>&2
exec "$target/release/bench_e2e" "$@"
