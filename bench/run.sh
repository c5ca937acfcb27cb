#!/usr/bin/env bash
# The one command: builds the benchmark, runs all five workloads untraced
# (end-to-end metrics) and then traced (per-layer metrics, span dumps), and
# writes bench/out/. Usage: bench/run.sh [seed]   (default seed 1)
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
spine() {
    cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- "$@"
}
cargo build --release --offline --manifest-path bench/Cargo.toml
mkdir -p bench/out
# The run shape is fixed: 2 s warm-up + 15 windows of 1 s per workload.
spine --workload all --seed "$seed" --trace 0 --out bench/out/end_to_end.json
spine --workload all --seed "$seed" --trace 1 --out bench/out/trace.json
echo "bench/out/end_to_end.json  bench/out/trace.json  bench/out/trace.<workload>.spans.json"
