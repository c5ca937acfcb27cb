#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
#
# Run from the repository root:
#   bash scripts/ci.sh
#
# The differential oracle sweep (tests/differential.rs) runs as part of
# `cargo test` and is the strongest check here — several thousand
# engine-vs-oracle cases across every codec, dataset and pipeline
# configuration.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Repo-specific static analysis (crates/xtask): SAFETY comments on every
# unsafe, no panics in engine hot paths, no lossy kernel casts, no
# wrapping kernel accumulators, ingest lock-order, no sleep-poll loops
# in the serve layer, one walker over packed deltas in core, one page
# re-hash site in core, one coverage rule in the physical IR, float
# values mapped to ordered keys only at the append and the range filter
# (core and storage), crate hygiene attributes. Prints one `rule: count`
# summary line on failure.
echo "==> cargo run -p xtask -- lint"
cargo run -q -p xtask -- lint

# Physical-plan IR verifier (crates/xtask + crates/core/src/physical/
# verify.rs): compiles every query shape x codec x dataset x pipeline
# config cell, checks the structural invariants (DESIGN.md §13) on each
# plan, and asserts that mutated/corrupted plans are rejected with typed
# violations.
echo "==> cargo run -p xtask -- verify-plans"
cargo run -q -p xtask -- verify-plans

# Deterministic decoder fuzzing (crates/xtask), 16 targets: the nine
# integer and three float codecs, `page`, `tsfile`, `proto` and
# `decode_fold`. Mutated codec streams, page images, tsfile images and
# network wire frames must never panic a decoder or break round-trip
# consistency, and mutated TS2DIFF / Sprintz
# / Stream VByte / Delta-RLE / Gorilla columns must take `decode_column`
# (the walker's write sink, or the serial fallback), the fold cursor
# and, for Delta-RLE, the ungated run-space walk to the values and the
# state of the codec crate's serial decoder (the `decode_fold` target) —
# the same typed error is the only acceptable failure.
# Runs in debug mode on purpose: overflow/shift panics are live there.
# Scale with ETSQP_FUZZ_ITERS (default 20000, the gating profile).
echo "==> cargo run -p xtask -- fuzz --iters ${ETSQP_FUZZ_ITERS:-20000} --seed 5"
cargo run -q -p xtask -- fuzz --iters "${ETSQP_FUZZ_ITERS:-20000}" --seed 5

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# The second of the two kernel backends: the run above takes the CPUID
# pick (AVX2 on the CI host), this one forces the scalar twin through
# the same kernel, codec and engine suites.
echo "==> ETSQP_FORCE_SCALAR=1 cargo test -q -p etsqp-simd -p etsqp-encoding -p etsqp-core"
ETSQP_FORCE_SCALAR=1 cargo test -q -p etsqp-simd -p etsqp-encoding -p etsqp-core
# ... and through the oracle sweep, whose decode-and-fold blocks must
# give the rows the AVX2 run gave (both are held to the same oracle).
echo "==> ETSQP_FORCE_SCALAR=1 cargo test -q --test differential"
ETSQP_FORCE_SCALAR=1 cargo test -q --test differential

# Release-profile semantics: debug builds run the plan verifier inside
# `pipe::compile` and trap integer overflow, so without this step no
# gating test executes what a release build executes when either would
# have objected. The oracle sweep, the Strategy x window x filter shape
# matrix, the decode-and-fold matrix with its gate-rejection block and
# the unbucketable-window rejection (all in tests/differential.rs) run
# again with both switched off.
echo "==> cargo test -q --release --test differential"
cargo test -q --release --test differential

# The benchmark package (bench/, a workspace of its own that the steps
# above never compile) calls `pub` items of crates/{simd,encoding,
# storage,core,serve}: build it, so a signature change that breaks it
# fails here and not in the next benchmark run. Build only.
echo "==> cargo build --release --offline --manifest-path bench/Cargo.toml"
cargo build --release --offline --manifest-path bench/Cargo.toml

# The float example asserts that its three codecs agree and that SQL's
# GROUP BY TIME answers what the `aggregate_f64` shim answers, bit for
# bit, on a 200 000-point series per codec.
echo "==> cargo run --release -q --example float_sensors"
cargo run --release -q --example float_sensors >/dev/null

# The binary-operator example: Union, Join, JoinExpr, DOT and CORR over
# two sensors with unflushed tails; it asserts every answer equals the
# oracle's.
echo "==> cargo run --release -q --example sensor_join"
cargo run --release -q --example sensor_join >/dev/null

# The Fig. 14 ablations live in crates/bench, outside the engine: run the
# binary at a small scale so its arms keep compiling, keep running, and
# keep asserting that every arm (decode then sum, Delta, Delta+Repeat,
# two-phase slices, SBoost's chain) gives the same SUM.
echo "==> ETSQP_BENCH_ROWS=20000 cargo run --release -q -p etsqp-bench --bin fig14"
ETSQP_BENCH_ROWS=20000 cargo run --release -q -p etsqp-bench --bin fig14 >/dev/null

# Deterministic interleaving model checks (shims/loom/tests/pool_model.rs):
# a submit racing a worker's untimed wait on the pool queue (and a seeded
# lost-wakeup variant that must fail), and the pool latch shutdown/panic
# protocol with a claim cursor, explored over bounded schedule permutations.
echo "==> cargo test -q -p loom --test pool_model"
cargo test -q -p loom --test pool_model

# The same checker over the segment publish (crates/storage/tests/
# segment_model.rs): two folds publish a segment memo, or set a segment's
# quantile digest, while the epoch bumps and a corrupted page is swapped
# in; no interleaving may expose a memo from a mixed epoch, a digest set
# before the last bump, or either over an unverified page.
echo "==> cargo test -q -p etsqp-storage --features model --test segment_model"
cargo test -q -p etsqp-storage --features model --test segment_model

# Runtime lock-order tracking (shims/parking_lot lockdep feature): the
# storage suite plus tests/lockdep.rs run with classed locks recording
# acquisition edges; an inversion of the declared shard -> series order
# panics deterministically instead of deadlocking under load.
echo "==> cargo test -q -p etsqp-storage --features lockdep"
cargo test -q -p etsqp-storage --features lockdep

# Non-gating serve smoke: start the network server over a generated
# dataset, run three queries through the wire client, then shut down via
# the stdin `quit` line and confirm the graceful drain reported. Client
# exit codes follow the README "Exit codes" table.
echo "==> serve smoke (non-gating)"
serve_smoke() (
    set -euo pipefail
    cargo build -q --bin etsqp-serve
    dir="$(mktemp -d)"
    trap 'rm -rf "${dir}"' EXIT
    mkfifo "${dir}/ctl"
    # Hold a read-write fd on the fifo so the server's stdin stays open
    # between control lines.
    exec 3<>"${dir}/ctl"
    ./target/debug/etsqp-serve --listen 127.0.0.1:0 --gen sine 20000 \
        <"${dir}/ctl" >"${dir}/out" 2>"${dir}/err" &
    srv=$!
    addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/^listening on //p' "${dir}/out" | head -1)"
        [ -n "${addr}" ] && break
        sleep 0.1
    done
    [ -n "${addr}" ] || { echo "server never came up"; exit 1; }
    for sql in "SELECT COUNT(sine_sine0) FROM sine_sine0" \
               "SELECT SUM(sine_sine1) FROM sine_sine1" \
               "SELECT AVG(sine_sine2) FROM sine_sine2"; do
        ./target/debug/etsqp-serve query --addr "${addr}" "${sql}" >/dev/null
    done
    echo quit >&3
    wait "${srv}"
    grep -q "drained:" "${dir}/err"
)
serve_smoke || echo "WARN: serve smoke failed (non-gating)"

# Non-gating: Miri over the scalar decode paths (UB detection on the
# bit-level codecs) and the scalar kernel twins, the decode-and-fold
# block among them (Miri reports no AVX2, so every backend resolves to
# the scalar twin). Skipped gracefully where the miri component is not
# installed.
if cargo miri --version >/dev/null 2>&1; then
    echo "==> cargo miri test -p etsqp-encoding (non-gating)"
    MIRIFLAGS="-Zmiri-disable-isolation" cargo miri test -q -p etsqp-encoding \
        || echo "WARN: miri run failed (non-gating)"
    echo "==> cargo miri test -p etsqp-simd --lib scalar (non-gating)"
    MIRIFLAGS="-Zmiri-disable-isolation" cargo miri test -q -p etsqp-simd --lib scalar \
        || echo "WARN: miri run failed (non-gating)"
else
    echo "==> miri unavailable, skipping (non-gating)"
fi

# Non-gating: a fresh untraced benchmark run (seed 1, all five workloads,
# about two minutes) against the committed baseline
# results/spine/set-A.json. A `worse` or `unresolved` row is a signal to
# look at, not a failure: another host, or a busy hour on this one, reads
# differently (bench/README.md "What compare.sh decides").
echo "==> bench/compare.sh results/spine/set-A.json <fresh run> (non-gating)"
bench_compare() (
    set -euo pipefail
    mkdir -p bench/out
    cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- \
        --workload all --seed 1 --trace 0 --out bench/out/ci.json >/dev/null
    bash bench/compare.sh results/spine/set-A.json bench/out/ci.json
)
bench_compare || echo "WARN: benchmark drifted from results/spine/set-A.json (non-gating)"

# Non-gating: the scoreboard (non-test code lines).
echo "==> scripts/loc.sh (non-gating)"
bash scripts/loc.sh || echo "WARN: loc.sh failed (non-gating)"

# Non-gating: the cold-page profile (crates/bench/src/bin/cold.rs, a few
# seconds): ns/value of a memo-cold SUM per codec, page size and thread
# count, bare cursor against IotDb::query, with the per-page intercept
# fitted. Its build is gated above by the workspace build and clippy.
echo "==> cold --quick (non-gating)"
cargo run --release -q -p etsqp-bench --bin cold -- --quick \
    || echo "WARN: cold profile failed (non-gating)"

echo "CI OK"
