#!/usr/bin/env bash
# Prints the non-test lines of each crate: every crates/<crate>/src/**/*.rs
# counted up to (not including) its first line that is exactly
# `#[cfg(test)]` at column 0, or whole if it has none. Largest first, then
# the total.
#
#   scripts/nontest-lines.sh [repo-root]
set -euo pipefail
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
for src in "$root"/crates/*/src; do
    crate="$(basename "$(dirname "$src")")"
    n=$(find "$src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { on = 1 } /^#\[cfg\(test\)\]$/ { on = 0 } on { n++ } END { print n + 0 }')
    printf '%s %s\n' "$n" "$crate"
done | sort -k1,1nr -k2 | awk '{ printf "%-10s %6d\n", $2, $1; t += $1 } END { printf "%-10s %6d\n", "total", t }'
