#!/usr/bin/env bash
# Non-test code lines per crate (ROADMAP item 9 scoreboard): lines under
# crates/{simd,core,storage,serve}/src that are neither blank nor
# comment-only and come before the file's `#[cfg(test)] mod`.
#
#   bash scripts/loc.sh [repo-root]
set -euo pipefail

cd "${1:-$(dirname "$0")/..}"

for c in simd core storage serve; do
    find "crates/${c}/src" -name '*.rs' -print0 | xargs -0 awk -v crate="${c}" '
        FNR == 1 { in_tests = 0; attr = 0 }
        in_tests { next }
        attr && /^[[:space:]]*(pub )?mod / { in_tests = 1; next }
        attr { n++; attr = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { attr = 1; next }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { printf "%-8s %d\n", crate, n }'
done
