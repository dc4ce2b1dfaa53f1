#!/bin/sh
# Black-box smoke test of dnsampdetect, attackgen, experiments and
# evalrun: build the binaries, run them, and assert their output and
# exit status. Every
# command is asserted; refusals are written `! cmd || false` and
# followed by a check of the exit status. Mirrored by the cli-smoke CI
# job and `make cli-smoke`.
#
#   - `-scale 0.02 -v` prints the committed golden byte for byte;
#   - `-concurrency 1` (serial) prints what `-concurrency 0` prints;
#   - a `-snapshot-out` run and a `-snapshot-in` run of its snapshot
#     print the same, and the snapshot, written at `-concurrency 0` and
#     at `-concurrency 1`, is cmd/dnsampdetect/testdata/snapshot.sha256
#     byte for byte;
#   - one `attackgen` wire stream written as an sFlow log and as a pcap
#     replays through `-replay-sflow -v` and `-replay-pcap -v` with the
#     same ingested-frame count and the same stdout, which is
#     cmd/dnsampdetect/testdata/replay-v.golden byte for byte; the log
#     with one datagram body corrupted in place still replays, reporting
#     one skipped datagram, and no longer prints that golden;
#   - an unknown flag (`-cache-days`) exits 2, two replay
#     flags exit 1, and a missing input file exits 1;
#   - dnsampdetect, attackgen, experiments and evalrun each refuse a
#     `-scale` of 0, -1, NaN and 2 (outside (0, 1]) with exit 2 before
#     planning, and evalrun `-days 0` the same;
#   - attackgen's wire exports are byte-identical to
#     cmd/attackgen/testdata/wire.sha256: the campaign's at `-scale 0.02
#     -wire-days 2`, and every `-list-scenarios` entry's at `-wire-days
#     8`, each as an sFlow log and a pcap;
#   - attackgen refuses `-scenario` without an output, an unknown
#     scenario, and `-wire-days 0` with an output: exit 2, no file;
#   - `experiments -scale 0.02` prints
#     cmd/experiments/testdata/scale0.02.golden byte for byte;
#     `-run table2` prints the one table, the same bytes twice (ties
#     broken by TLD), and an unknown `-run` exits 1 before the campaign
#     is planned, printing nothing;
#   - `evalrun` lists attackgen's catalog, scores two scenarios at the
#     eval-smoke parameters as the golden table's rows for them, and
#     refuses a stray argument, a bad grid value, an empty grid and an
#     unknown scenario: exit 1, no output file.
#
# The goldens and the digests change only with an intended output
# change; regenerate them deliberately with
#   go run ./cmd/dnsampdetect -scale 0.02 -v > cmd/dnsampdetect/testdata/scale0.02-v.golden
#   go run ./cmd/experiments -scale 0.02 > cmd/experiments/testdata/scale0.02.golden
# and, in a directory holding this script's exports (the commands
# below), `sha256sum * > cmd/attackgen/testdata/wire.sha256` and
#   dnsampdetect -scale 0.02 -v -replay-sflow campaign.sflowlog > cmd/dnsampdetect/testdata/replay-v.golden
# and, in a directory holding `dnsampdetect -scale 0.02 -snapshot-out
# study.snap`, `sha256sum study.snap > cmd/dnsampdetect/testdata/snapshot.sha256`.
set -eu

cd "$(dirname "$0")/.."
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
BIN="$WORK/dnsampdetect"
GOLDEN=cmd/dnsampdetect/testdata/scale0.02-v.golden
REPLAY_GOLDEN=cmd/dnsampdetect/testdata/replay-v.golden

fail() {
    echo "cli smoke: FAIL: $*" >&2
    exit 1
}

# run CMD...: run CMD with stdout in $WORK/out and stderr in $WORK/err;
# leave its exit status in RC and return it.
run() {
    RC=0
    "$@" >"$WORK/out" 2>"$WORK/err" || RC=$?
    return "$RC"
}

# refuses_scale CMD...: CMD -scale V exits 2 for every V outside (0, 1],
# before planning and printing nothing on stdout.
refuses_scale() {
    for v in 0 -1 NaN 2; do
        ! run "$@" -scale "$v" || false
        [ "$RC" -eq 2 ] || fail "$(basename "$1") -scale $v exited $RC, want 2: $(cat "$WORK/err")"
        grep -q 'outside (0, 1\]' "$WORK/err" || fail "$(basename "$1") -scale $v: no refusal: $(cat "$WORK/err")"
        [ ! -s "$WORK/out" ] || fail "$(basename "$1") -scale $v printed to stdout"
    done
}

# same FILE WANT WHAT: FILE must equal WANT byte for byte.
same() {
    cmp -s "$1" "$2" || {
        diff -u "$2" "$1" | head -40 >&2
        fail "$3"
    }
}

go build -o "$BIN" ./cmd/dnsampdetect

echo "== -scale 0.02 -v prints the golden"
"$BIN" -scale 0.02 -v -concurrency 0 >"$WORK/all.out"
same "$WORK/all.out" "$GOLDEN" "stdout differs from $GOLDEN"

echo "== -concurrency 1 prints the same"
"$BIN" -scale 0.02 -v -concurrency 1 >"$WORK/serial.out"
same "$WORK/serial.out" "$WORK/all.out" "-concurrency 1 stdout differs from -concurrency 0"

echo "== -snapshot-out, then -snapshot-in, print the same"
"$BIN" -scale 0.02 -v -snapshot-out "$WORK/study.snap" >"$WORK/snapout.out"
[ -s "$WORK/study.snap" ] || fail "-snapshot-out wrote no snapshot"
"$BIN" -scale 0.02 -v -snapshot-in "$WORK/study.snap" >"$WORK/snapin.out"
same "$WORK/snapin.out" "$WORK/snapout.out" "-snapshot-in stdout differs from the -snapshot-out run"
same "$WORK/snapout.out" "$WORK/all.out" "-snapshot-out stdout differs from the synthetic run"

echo "== the snapshot's bytes match their digest, at -concurrency 1 too"
SNAPSUM="$PWD/cmd/dnsampdetect/testdata/snapshot.sha256"
(cd "$WORK" && sha256sum -c --quiet "$SNAPSUM") >&2 || fail "study.snap differs from $SNAPSUM"
mkdir "$WORK/serial"
"$BIN" -scale 0.02 -concurrency 1 -snapshot-out "$WORK/serial/study.snap" >/dev/null
(cd "$WORK/serial" && sha256sum -c --quiet "$SNAPSUM") >&2 || fail "the -concurrency 1 snapshot differs from $SNAPSUM"
# One flipped byte must fail the check: it reads the file it names.
printf '\377' | dd of="$WORK/serial/study.snap" bs=1 seek=100 conv=notrunc 2>/dev/null
! (cd "$WORK/serial" && sha256sum -c --status "$SNAPSUM") || false
rm -r "$WORK/serial"

echo "== attackgen wire exports match their digests"
go build -o "$WORK/attackgen" ./cmd/attackgen
SUMS="$PWD/cmd/attackgen/testdata/wire.sha256"
mkdir "$WORK/wire"
"$WORK/attackgen" -scale 0.02 -summary -wire-days 2 \
    -sflow-out "$WORK/wire/campaign.sflowlog" -pcap-out "$WORK/wire/campaign.pcap" 2>"$WORK/gen.err"
for sc in $("$WORK/attackgen" -list-scenarios | awk '{print $1}'); do
    "$WORK/attackgen" -scale 0.02 -wire-days 8 -scenario "$sc" \
        -sflow-out "$WORK/wire/$sc.sflowlog" -pcap-out "$WORK/wire/$sc.pcap" 2>"$WORK/gen.err" ||
        fail "attackgen -scenario $sc exited non-zero: $(cat "$WORK/gen.err")"
done
[ "$(ls "$WORK/wire" | wc -l)" -eq "$(wc -l <"$SUMS")" ] || fail "$(ls "$WORK/wire" | wc -l) exports, $(wc -l <"$SUMS") digests"
(cd "$WORK/wire" && sha256sum -c --quiet "$SUMS") >&2 || fail "an export differs from $SUMS"
mv "$WORK/wire/campaign.sflowlog" "$WORK/wire.sflowlog"
mv "$WORK/wire/campaign.pcap" "$WORK/wire.pcap"
rm -r "$WORK/wire"

echo "== attackgen refusals"
! run "$WORK/attackgen" -scenario pulse-wave || false
[ "$RC" -eq 2 ] || fail "-scenario without an output exited $RC, want 2"
! run "$WORK/attackgen" -scenario no-such-scenario -sflow-out "$WORK/refused.sflowlog" || false
[ "$RC" -eq 2 ] || fail "an unknown scenario exited $RC, want 2"
! run "$WORK/attackgen" -wire-days 0 -sflow-out "$WORK/refused.sflowlog" || false
[ "$RC" -eq 2 ] || fail "-wire-days 0 -sflow-out exited $RC, want 2"
[ ! -e "$WORK/refused.sflowlog" ] || fail "a refused attackgen run wrote its output"

echo "== -replay-sflow -v and -replay-pcap -v of one wire stream print the golden"
# ingested FILE: the frame count and skip count dnsampdetect reported.
ingested() {
    sed -n 's/^ingested \([0-9]*\) frames from .*skipped: \([0-9]*\))$/\1 \2/p' "$1"
}
run "$BIN" -scale 0.02 -v -replay-sflow "$WORK/wire.sflowlog" || fail "-replay-sflow exited $RC: $(cat "$WORK/err")"
SFLOW="$(ingested "$WORK/err")"
mv "$WORK/out" "$WORK/replay-sflow.out"
run "$BIN" -scale 0.02 -v -replay-pcap "$WORK/wire.pcap" || fail "-replay-pcap exited $RC: $(cat "$WORK/err")"
PCAP="$(ingested "$WORK/err")"
[ -n "$SFLOW" ] && [ "${SFLOW% 0}" != "$SFLOW" ] || fail "-replay-sflow reported '$SFLOW', want '<frames> 0'"
[ "$PCAP" = "$SFLOW" ] || fail "-replay-pcap ingested '$PCAP', -replay-sflow '$SFLOW'"
same "$WORK/out" "$WORK/replay-sflow.out" "-replay-pcap -v stdout differs from -replay-sflow -v"
same "$WORK/replay-sflow.out" "$REPLAY_GOLDEN" "-replay-sflow -v stdout differs from $REPLAY_GOLDEN"
# The first datagram's version field: past the 12-byte log header and
# the 12-byte entry header.
printf '\377\377' | dd of="$WORK/wire.sflowlog" bs=1 seek=24 conv=notrunc 2>/dev/null
run "$BIN" -scale 0.02 -v -replay-sflow "$WORK/wire.sflowlog" || fail "a corrupt datagram body exited $RC: $(cat "$WORK/err")"
CORRUPT="$(ingested "$WORK/err")"
[ "${CORRUPT#* }" = 1 ] || fail "a corrupt datagram body reported '$CORRUPT', want one skipped datagram"
! cmp -s "$WORK/out" "$REPLAY_GOLDEN" || false

echo "== refusals"
! run "$BIN" -cache-days 1 || false
[ "$RC" -eq 2 ] || fail "-cache-days 1 exited $RC, want 2 (unknown flag)"
! run "$BIN" -replay-sflow "$WORK/study.snap" -snapshot-in "$WORK/study.snap" || false
[ "$RC" -eq 1 ] || fail "two replay flags exited $RC, want 1"
grep -q 'mutually exclusive' "$WORK/err" || fail "two replay flags: no 'mutually exclusive' error: $(cat "$WORK/err")"
! run "$BIN" -snapshot-in "$WORK/missing.snap" || false
[ "$RC" -eq 1 ] || fail "a missing snapshot exited $RC, want 1"
! run "$BIN" -replay-pcap "$WORK/missing.pcap" || false
[ "$RC" -eq 1 ] || fail "a missing pcap exited $RC, want 1"
refuses_scale "$BIN"
refuses_scale "$WORK/attackgen" -summary

echo "== experiments prints the golden"
go build -o "$WORK/experiments" ./cmd/experiments
"$WORK/experiments" -scale 0.02 >"$WORK/experiments.out" 2>"$WORK/err" ||
    fail "experiments -scale 0.02 exited non-zero: $(cat "$WORK/err")"
same "$WORK/experiments.out" cmd/experiments/testdata/scale0.02.golden \
    "experiments -scale 0.02 stdout differs from cmd/experiments/testdata/scale0.02.golden"

echo "== experiments -run"
run "$WORK/experiments" -scale 0.02 -run table2 || fail "experiments -run table2 exited $RC: $(cat "$WORK/err")"
[ "$(grep -c '^== ' "$WORK/out")" -eq 1 ] || fail "-run table2 printed $(grep -c '^== ' "$WORK/out") reports, want 1"
grep -q '^== table2: ' "$WORK/out" || fail "-run table2 did not print table2"
T2SUM="$(md5sum <"$WORK/out")"
run "$WORK/experiments" -scale 0.02 -run table2 || fail "the second -run table2 exited $RC: $(cat "$WORK/err")"
[ "$(md5sum <"$WORK/out")" = "$T2SUM" ] || fail "two -run table2 runs printed different bytes"
! run "$WORK/experiments" -scale 0.02 -run nosuch || false
[ "$RC" -eq 1 ] || fail "an unknown -run exited $RC, want 1"
grep -q 'no experiment matches "nosuch"' "$WORK/err" || fail "an unknown -run: no refusal: $(cat "$WORK/err")"
if grep -q planning "$WORK/err"; then fail "an unknown -run planned the campaign before refusing"; fi
[ ! -s "$WORK/out" ] || fail "an unknown -run printed a report"
refuses_scale "$WORK/experiments"
if grep -q planning "$WORK/err"; then fail "a refused -scale planned the campaign"; fi

echo "== evalrun"
go build -o "$WORK/evalrun" ./cmd/evalrun
run "$WORK/evalrun" -list || fail "evalrun -list exited $RC: $(cat "$WORK/err")"
"$WORK/attackgen" -list-scenarios >"$WORK/scenarios"
same "$WORK/out" "$WORK/scenarios" "evalrun -list differs from attackgen -list-scenarios"
EVAL_GOLDEN=internal/eval/testdata/golden_catalog.txt
"$WORK/evalrun" -days 6 -scale 0.03 -procedural-names 20000 -campaign-seed 1 -traffic-seed 11 -seed 42 \
    -scenario pulse-wave,slow-drip -out "$WORK/eval.txt" -json "$WORK/eval.json" 2>"$WORK/err" ||
    fail "evalrun -scenario pulse-wave,slow-drip exited non-zero: $(cat "$WORK/err")"
grep -E '^(#|scenario |pulse-wave |slow-drip )' "$EVAL_GOLDEN" >"$WORK/eval.want"
grep -v '^$' "$WORK/eval.txt" >"$WORK/eval.got"
same "$WORK/eval.got" "$WORK/eval.want" "two scenarios' rows differ from $EVAL_GOLDEN"
[ "$(head -c 1 "$WORK/eval.json")" = "{" ] || fail "-json wrote no JSON object"
! run "$WORK/evalrun" -out "$WORK/refused.txt" stray || false
[ "$RC" -eq 1 ] && grep -q 'unexpected arguments' "$WORK/err" || fail "a stray argument exited $RC: $(cat "$WORK/err")"
! run "$WORK/evalrun" -shares 2 -out "$WORK/refused.txt" || false
[ "$RC" -eq 1 ] && grep -q 'bad -shares value "2"' "$WORK/err" || fail "-shares 2 exited $RC: $(cat "$WORK/err")"
! run "$WORK/evalrun" -minpkts , -out "$WORK/refused.txt" || false
[ "$RC" -eq 1 ] && grep -q 'empty thresholds grid' "$WORK/err" || fail "-minpkts , exited $RC: $(cat "$WORK/err")"
! run "$WORK/evalrun" -scenario no-such-scenario -out "$WORK/refused.txt" || false
[ "$RC" -eq 1 ] || fail "an unknown scenario exited $RC, want 1"
refuses_scale "$WORK/evalrun" -out "$WORK/refused.txt"
! run "$WORK/evalrun" -days 0 -out "$WORK/refused.txt" || false
[ "$RC" -eq 2 ] && grep -q -- '-days 0: want at least 1' "$WORK/err" || fail "-days 0 exited $RC: $(cat "$WORK/err")"
[ ! -e "$WORK/refused.txt" ] || fail "a refused evalrun run wrote its output"

echo "cli smoke: OK"
