#!/bin/sh
# Non-test Go lines (blank and comment lines included) outside bench/,
# per top-level package and in total: the "net LOC of non-test code"
# every PR reports (ROADMAP aim 2). Counts the tree at DIR, by default
# this repository. Run from anywhere; `make loc`.
#   usage: loc.sh [DIR]
set -eu
cd "${1:-$(dirname "$0")/..}"

find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.*' -exec wc -l {} + |
    awk '$2 != "total" {
        n = split($2, p, "/")             # ./internal/core/detect.go
        pkg = n > 3 ? p[2] "/" p[3] : "."  # internal/core; "." for the root
        lines[pkg] += $1
        total += $1
    }
    END {
        for (pkg in lines) printf "%7d  %s\n", lines[pkg], pkg | "sort -k2"
        close("sort -k2")
        printf "%7d  total\n", total
    }'
