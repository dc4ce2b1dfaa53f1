#!/bin/sh
# Exported functions and methods under internal/ that no non-test file
# of internal/, cmd/, examples/ or bench/ refers to: what only tests
# still reach (or nothing does); `make testonly`. A ratchet: every entry
# must be judged in scripts/testonly_allowlist.txt (one line each, with
# its reason), and the script exits 1 on an entry the allowlist lacks or
# an allowlist line that no longer matches an entry.
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
ALLOW=scripts/testonly_allowlist.txt

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
            print $1, (NF == 3 ? $2 "." name : name)
        }
    ' "$tmp/used" - >"$tmp/listing"

awk '
    FILENAME == ARGV[1] {
        if ($0 ~ /^#/ || NF == 0) next
        if (NF < 3) { printf "%s:%d: no reason given for %s %s\n", FILENAME, FNR, $1, $2; bad++ }
        allowed[$1 " " $2] = 1
        next
    }
    {
        listed[$0] = 1
        n++
        if ($0 in allowed) { printf "%-22s %s\n", $1, $2; next }
        printf "%-22s %s   NOT ALLOWLISTED: delete it, or add it to %s with a reason\n", $1, $2, ARGV[1]
        bad++
    }
    END {
        for (k in allowed) if (!(k in listed)) {
            printf "%s   STALE: allowlisted but no longer test-only; remove the line from %s\n", k, ARGV[1]
            bad++
        }
        printf "%d exported functions and methods referenced from no non-test file\n", n
        exit (bad > 0)
    }
' "$ALLOW" "$tmp/listing"
