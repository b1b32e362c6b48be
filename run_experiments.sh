#!/bin/bash
# Regenerate every table and figure of the paper (quick scale); flags go
# to the driver (`--only fig4,table1`, `--rounds 100`, `--write-docs true`).
cd "$(dirname "$0")"
exec cargo run --release -p kemf-bench --bin experiments -- "$@"
