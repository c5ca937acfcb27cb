#!/usr/bin/env bash
# Short-query throughput benchmark: the persistent work-stealing pool at
# 1/2/4/8 configured threads.
#
# Run from the repository root:
#   bash scripts/bench.sh
#
# Writes BENCH_pool.json at the repo root (q/s per configured thread
# count) and echoes the human-readable lines to stderr. Scale with
# ETSQP_BENCH_QUERIES (queries per cell, default 1000).
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo build --release -p etsqp-bench --bin pool_bench"
cargo build --release -p etsqp-bench --bin pool_bench

echo "==> pool_bench (ETSQP_BENCH_QUERIES=${ETSQP_BENCH_QUERIES:-1000}) -> BENCH_pool.json"
./target/release/pool_bench > BENCH_pool.json

echo "==> BENCH_pool.json"
cat BENCH_pool.json

# Nightly fuzz throughput profile: a longer deterministic fuzz run in
# release mode, reported as execs/sec (BENCH_fuzz.json). The gating
# 20k-iteration debug run lives in scripts/ci.sh; this one tracks the
# harness's throughput trajectory. Scale with ETSQP_FUZZ_BENCH_ITERS.
FUZZ_ITERS="${ETSQP_FUZZ_BENCH_ITERS:-100000}"
echo "==> cargo build --release -p xtask"
cargo build --release -p xtask

echo "==> xtask fuzz --iters ${FUZZ_ITERS} (release) -> BENCH_fuzz.json"
FUZZ_CORPUS="$(mktemp -d)"
FUZZ_LINE="$(./target/release/xtask fuzz --iters "${FUZZ_ITERS}" --seed 7 --corpus "${FUZZ_CORPUS}" | tail -1)"
rm -rf "${FUZZ_CORPUS}"
# "fuzz OK: <iters> iters, <targets> targets, <secs>s, <rate> execs/sec"
echo "${FUZZ_LINE}" | awk '{
    if ($2 != "OK:") { print "{\"error\": \"fuzz run failed\"}"; exit 1 }
    gsub(/,/, "", $3); gsub(/,/, "", $5); gsub(/s,?/, "", $7);
    printf "{\"iters\": %s, \"targets\": %s, \"seconds\": %s, \"execs_per_sec\": %s, \"seed\": 7}\n", $3, $5, $7, $8
}' > BENCH_fuzz.json

echo "==> BENCH_fuzz.json"
cat BENCH_fuzz.json

# Live-ingestion throughput: sharded hot-chunk store, 8 writers racing
# 8 query threads (BENCH_ingest.json: points/sec per shard count plus
# the sharded-vs-single-lock speedup). Non-gating; scale with
# ETSQP_BENCH_INGEST_POINTS (points per writer, default 200000).
echo "==> cargo build --release -p etsqp-bench --bin ingest_bench"
cargo build --release -p etsqp-bench --bin ingest_bench

echo "==> ingest_bench (ETSQP_BENCH_INGEST_POINTS=${ETSQP_BENCH_INGEST_POINTS:-200000}) -> BENCH_ingest.json"
./target/release/ingest_bench > BENCH_ingest.json

echo "==> BENCH_ingest.json"
cat BENCH_ingest.json

# Decode throughput per codec × SIMD backend (BENCH_decode.json): every
# integer codec through decode_column, the float codecs, the raw Stream
# VByte quad kernel, and the FastLanes/SBoost baselines, measured once
# per backend (scalar, and avx2 where the CPU has it) via child
# re-exec. Non-gating; scale with ETSQP_BENCH_DECODE_INTS (column
# length, default 262144).
echo "==> cargo build --release -p etsqp-bench --bin decode_bench"
cargo build --release -p etsqp-bench --bin decode_bench

echo "==> decode_bench (ETSQP_BENCH_DECODE_INTS=${ETSQP_BENCH_DECODE_INTS:-262144}) -> BENCH_decode.json"
./target/release/decode_bench > BENCH_decode.json

echo "==> BENCH_decode.json"
cat BENCH_decode.json

# Network service load (BENCH_serve.json): closed-loop client fleets at
# 1/64/1024 connections (qps + p99), plus a 2x-overload cell measuring
# the typed shed rate and the p99 of accepted queries beside the
# uncontended p99 — shedding, not queueing, absorbs the overload.
# Non-gating; scale with ETSQP_BENCH_SERVE_QUERIES (total
# queries per cell, default 2000) and ETSQP_BENCH_SERVE_MAX_CLIENTS
# (fleet-size cap, default 1024).
echo "==> cargo build --release -p etsqp-bench --bin serve_bench"
cargo build --release -p etsqp-bench --bin serve_bench

echo "==> serve_bench (ETSQP_BENCH_SERVE_QUERIES=${ETSQP_BENCH_SERVE_QUERIES:-2000}) -> BENCH_serve.json"
./target/release/serve_bench > BENCH_serve.json

echo "==> BENCH_serve.json"
cat BENCH_serve.json

# Bucketed aggregation + partial cache (BENCH_bucket.json): fused
# single-bucket pages vs the straddling decode path, and P95 / bucketed
# SUM with the per-page partial cache cold vs warm. The headline
# p95_warm_speedup is the ISSUE 9 acceptance number (warm >= 5x cold).
# Non-gating; scale with ETSQP_BENCH_BUCKET_REPS (reps per cell,
# default 30).
echo "==> cargo build --release -p etsqp-bench --bin bucket_bench"
cargo build --release -p etsqp-bench --bin bucket_bench

echo "==> bucket_bench (ETSQP_BENCH_BUCKET_REPS=${ETSQP_BENCH_BUCKET_REPS:-30}) -> BENCH_bucket.json"
./target/release/bucket_bench > BENCH_bucket.json

echo "==> BENCH_bucket.json"
cat BENCH_bucket.json
