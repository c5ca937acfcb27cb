#!/usr/bin/env bash
# Usage: bench/compare.sh A.json B.json
# One row per (workload, end-to-end metric): both medians, B/A and its base,
# `worse` beyond the metric's bound, `unresolved` when a side's quartile
# spread exceeds the bound; one more row per workload for failed operations,
# `worse` whenever B has any. Exits non-zero on any `worse`, and when B
# lacks a workload or metric that A has.
set -euo pipefail
if [ "$#" -ne 2 ]; then
    echo "usage: $0 A.json B.json" >&2
    exit 2
fi
exec cargo run --release --offline --quiet \
    --manifest-path "$(dirname "$0")/Cargo.toml" -- compare "$1" "$2"
