#!/bin/sh
# Non-test Go lines per package before and after a change: loc.sh on a
# git archive of BASE and on the working tree, side by side with the
# delta, packages present on either side, the total last. `make
# loc-diff BASE=<commit>`.
#   usage: loc_diff.sh BASE
set -eu
base=${1:?usage: loc_diff.sh BASE}
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/tree"
git archive "$base" | tar -x -C "$tmp/tree"
./scripts/loc.sh "$tmp/tree" >"$tmp/before"
./scripts/loc.sh >"$tmp/after"

awk 'NR == FNR { before[$2] = $1; seen[$2] = 1; next }
    { after[$2] = $1; seen[$2] = 1 }
    END {
        printf "%8s %8s %8s  %s\n", "before", "after", "delta", "package"
        for (pkg in seen)
            if (pkg != "total")
                printf "%8d %8d %+8d  %s\n", before[pkg], after[pkg], after[pkg] - before[pkg], pkg | "sort -k4"
        close("sort -k4")
        printf "%8d %8d %+8d  %s\n", before["total"], after["total"], after["total"] - before["total"], "total"
    }' "$tmp/before" "$tmp/after"
