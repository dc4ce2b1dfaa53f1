#!/bin/sh
# Exported functions and methods under internal/ that no non-test file
# of internal/, cmd/, examples/ or bench/ refers to: what only tests
# still reach (or nothing does). Informational, never failing — a
# listing for a reviewer to judge entry by entry; `make testonly`.
#
# Matching is by identifier, not by type: Type.Name counts as referenced
# when the word Name occurs anywhere in non-test code outside its own
# declaration and outside comments, so the listing errs towards silence
# (a method sharing its name with a used one is not shown). Methods that
# satisfy standard-library interfaces are called through them and
# skipped by name.
set -eu
cd "$(dirname "$0")/.."

IFACE='String|Error|Read|Write|Close|Len|Less|Swap|ServeHTTP|Unwrap|MarshalJSON|UnmarshalJSON'
DECL='^func (\([A-Za-z_]+ \*?[A-Z][A-Za-z0-9_]*(\[[^]]*\])?\) )?[A-Z][A-Za-z0-9_]*[[(]'

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Every capitalised word of non-test code, with comments and each
# declaration's own name cut away (a one-line body stays).
find internal cmd examples bench -name '*.go' ! -name '*_test.go' -exec cat {} + |
    sed -E -e 's,//.*$,,' -e 's/^func (\([^)]*\) )?[A-Za-z0-9_]+//' |
    grep -oE '[A-Z][A-Za-z0-9_]*' | sort -u >"$tmp/used"

find internal -name '*.go' ! -name '*_test.go' -exec grep -HE "$DECL" {} + |
    sed -E 's,^(internal/[^/]+)/[^:]*:func (\([A-Za-z_]+ \*?([A-Z][A-Za-z0-9_]*)[^)]*\) )?([A-Z][A-Za-z0-9_]*).*$,\1 \3 \4,' |
    sort -u |
    awk -v iface="^($IFACE)\$" '
        NR == FNR { used[$1] = 1; next }
        {
            name = $NF
            if (name in used || (NF == 3 && name ~ iface)) next
            printf "%-22s %s\n", $1, (NF == 3 ? $2 "." name : name)
            n++
        }
        END { printf "%d exported functions and methods referenced from no non-test file\n", n }
    ' "$tmp/used" -
