#!/bin/sh
# Daemon smoke test: drive the real ixpmon binary through both of its
# modes and assert every step, the refusals included. Start it on
# -listen, replay a generated sFlow log into it over UDP, check each
# endpoint of the control surface, check that a second daemon cannot
# take the held port and that contradictory flags exit 2, shut down on
# SIGTERM; then the same recording through -serve -tail; then through
# the one-shot -sflow, which must end by itself with the -tail leg's
# summary; then the -tail leg resumed twice after its log was rotated
# to a shorter recording while it was down and then grown, which must
# count every entry once; and -sflow must exit 1 at once on a missing
# log. Mirrored by the daemon-smoke CI job and `make daemon-smoke`.
set -eu

WORK="$(mktemp -d)"
UDP_PORT="${UDP_PORT:-16343}"
HTTP_PORT="${HTTP_PORT:-18080}"
HTTP_PORT2=$((HTTP_PORT + 1))
BASE="http://127.0.0.1:$HTTP_PORT"
SERVE_PID=""

cleanup() {
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
    echo "daemon smoke: FAIL: $*" >&2
    [ -f "$WORK/serve.log" ] && sed 's/^/  serve: /' "$WORK/serve.log" >&2
    exit 1
}

# expect_exit N CMD...: CMD must exit with status N.
expect_exit() {
    want="$1"
    shift
    rc=0
    "$@" >"$WORK/refused.log" 2>&1 || rc=$?
    [ "$rc" -eq "$want" ] || fail "'$*' exited $rc, want $want: $(cat "$WORK/refused.log")"
}

# wait_up: the control surface answers, and the daemon is still alive.
wait_up() {
    i=0
    until curl -fsS "$BASE/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -le 50 ] || fail "control surface never came up"
        kill -0 "$SERVE_PID" 2>/dev/null || fail "service exited early"
        sleep 0.2
    done
}

# wait_drained: something was received and all of it consumed. Leaves
# the scrape in $METRICS.
wait_drained() {
    i=0
    while :; do
        METRICS="$(curl -fsS "$BASE/metrics")" || fail "scraping /metrics"
        RECEIVED="$(printf '%s\n' "$METRICS" | awk '$1 == "ixpmon_datagrams_received_total" {print $2}')"
        CONSUMED="$(printf '%s\n' "$METRICS" | awk '$1 == "ixpmon_datagrams_consumed_total" {print $2}')"
        [ "${RECEIVED:-0}" -gt 0 ] && [ "$RECEIVED" = "$CONSUMED" ] && break
        i=$((i + 1))
        [ "$i" -le 100 ] || fail "consumer never drained (received=$RECEIVED consumed=$CONSUMED)"
        sleep 0.2
    done
    echo "   $RECEIVED datagrams received and consumed"
}

# stop_daemon: SIGTERM, clean exit, summary with detections.
stop_daemon() {
    kill -TERM "$SERVE_PID"
    i=0
    while kill -0 "$SERVE_PID" 2>/dev/null; do
        i=$((i + 1))
        [ "$i" -le 100 ] || fail "service did not exit after SIGTERM"
        sleep 0.2
    done
    wait "$SERVE_PID" 2>/dev/null || fail "service exited non-zero"
    SERVE_PID=""
    grep -q 'shutting down' "$WORK/serve.log" || fail "no shutdown log line"
    grep -q '^detections: [1-9]' "$WORK/serve.log" || fail "shutdown summary reported no detections"
}

# wait_cursor SIZE: the input row's cursor reaches SIZE (the whole log
# read). Leaves the scrape in $SOURCES.
wait_cursor() {
    i=0
    while :; do
        SOURCES="$(curl -fsS "$BASE/sources")" || fail "scraping /sources"
        [ "$(input_field cursor)" = "$1" ] && break
        i=$((i + 1))
        [ "$i" -le 100 ] || fail "tail cursor $(input_field cursor) never reached the file size $1"
        sleep 0.2
    done
}

# datagrams FILE: how many datagrams a log holds, as the one-shot
# -sflow summary counts them.
datagrams() {
    "$WORK/ixpmon" -sflow "$1" -window 2 2>&1 >/dev/null |
        sed -n 's/^ixpmon: \([0-9]*\) datagrams received.*/\1/p'
}

# input_field NAME: the value of one field of the (single) input row of
# /sources; collector rows have no field of these names.
input_field() {
    printf '%s\n' "$SOURCES" | sed -n "s/^ *\"$1\": \"\{0,1\}\([^\",]*\)\"\{0,1\},\{0,1\}\$/\1/p" | tail -n 1
}

echo "== building =="
go build -o "$WORK/ixpmon" ./cmd/ixpmon
go build -o "$WORK/attackgen" ./cmd/attackgen

echo "== generating 2 days of sampled wire traffic =="
"$WORK/attackgen" -scale 0.02 -wire-days 2 -sflow-out "$WORK/traffic.sflow" -summary >/dev/null 2>&1
[ -s "$WORK/traffic.sflow" ] || fail "attackgen produced no sFlow log"
LOG_SIZE="$(wc -c <"$WORK/traffic.sflow" | tr -d ' ')"

echo "== contradictory flags exit 2 =="
expect_exit 2 "$WORK/ixpmon" -policy arrival
expect_exit 2 "$WORK/ixpmon" -input udp://127.0.0.1:0
expect_exit 2 "$WORK/ixpmon" -serve -tail "$WORK/traffic.sflow" -timestamps uptime
expect_exit 2 "$WORK/ixpmon" -serve -policy arrival
expect_exit 2 "$WORK/ixpmon" -serve -resume
expect_exit 2 "$WORK/ixpmon" -follow
expect_exit 2 "$WORK/ixpmon" -serve -sflow "$WORK/traffic.sflow"
expect_exit 2 "$WORK/ixpmon" -sflow "$WORK/traffic.sflow" -scale 0.1
expect_exit 2 "$WORK/ixpmon" -sflow "$WORK/traffic.sflow" -days 3
expect_exit 2 "$WORK/ixpmon" -serve -input "replay:$WORK/traffic.sflow" -policy backlog
grep -q 'want round-robin or arrival' "$WORK/refused.log" || fail "-policy backlog: the refusal names no policies: $(cat "$WORK/refused.log")"

echo "== starting service mode on -listen =="
"$WORK/ixpmon" -serve -listen "127.0.0.1:$UDP_PORT" -http "127.0.0.1:$HTTP_PORT" \
    -window 2 -timestamps uptime >"$WORK/serve.log" 2>&1 &
SERVE_PID=$!
wait_up

echo "== a second daemon cannot take the held UDP port =="
rc=0
timeout 2 "$WORK/ixpmon" -serve -listen "127.0.0.1:$UDP_PORT" -http "127.0.0.1:$HTTP_PORT2" \
    >"$WORK/clash.log" 2>&1 || rc=$?
[ "$rc" -ne 0 ] || fail "a second -serve -listen on the held port exited 0"
[ "$rc" -ne 124 ] || fail "a second -serve -listen on the held port was still running after 2 s"
grep -q "udp://127.0.0.1:$UDP_PORT" "$WORK/clash.log" || fail "bind failure does not name the input: $(cat "$WORK/clash.log")"

echo "== replaying the log over UDP =="
"$WORK/ixpmon" -send "$WORK/traffic.sflow" -to "127.0.0.1:$UDP_PORT" 2>&1
wait_drained

echo "== checking /metrics =="
printf '%s\n' "$METRICS" | grep -q '^# TYPE ixpmon_datagrams_received_total counter$' \
    || fail "/metrics is not well-formed Prometheus text"
printf '%s\n' "$METRICS" | grep -q "^ixpmon_source_datagrams_total{input=\"udp://127.0.0.1:$UDP_PORT\",agent=\"192.0.2.1\",subagent=\"0\"} " \
    || fail "/metrics lacks per-source counters"
printf '%s\n' "$METRICS" | grep -q "^ixpmon_input_state{input=\"udp://127.0.0.1:$UDP_PORT\"} 1\$" \
    || fail "/metrics does not show the udp input healthy"
printf '%s\n' "$METRICS" | grep -q '^ixpmon_stage_seconds_total{stage="observe"} ' \
    || fail "/metrics lacks per-stage timings"
! printf '%s\n' "$METRICS" | grep -v '^#' | sed 's/ [^ ]*$//' | sort | uniq -d | grep . || false

echo "== checking /detections =="
DETS="$(curl -fsS "$BASE/detections")" || fail "scraping /detections"
# Day 1 has closed (the log spans 2 days), so detections must be a
# non-empty JSON array with the expected fields.
printf '%s\n' "$DETS" | grep -q '"victim":' || fail "/detections empty or malformed: $DETS"
printf '%s\n' "$DETS" | grep -q '"share":' || fail "/detections rows lack share: $DETS"

echo "== checking /sources, /stages, /window, /healthz, /checkpoint =="
SOURCES="$(curl -fsS "$BASE/sources")" || fail "scraping /sources"
printf '%s\n' "$SOURCES" | grep -q '"agent": "192.0.2.1"' || fail "/sources lacks the replaying collector"
[ "$(input_field id)" = "udp://127.0.0.1:$UDP_PORT" ] || fail "/sources input row id = $(input_field id)"
[ "$(input_field addr)" = "127.0.0.1:$UDP_PORT" ] || fail "/sources input row addr = $(input_field addr)"
[ "$(input_field state)" = "healthy" ] || fail "/sources input row state = $(input_field state)"
curl -fsS "$BASE/stages" | grep -q '"stage": "observe"' || fail "/stages lacks the observe stage"
curl -fsS "$BASE/stages" | grep -q '"stage": "parse"' || fail "/stages lacks the parse stage"
curl -fsS "$BASE/window" | grep -q '"closedDays": 1' || fail "/window does not show day 1 closed"
[ "$(curl -fsS "$BASE/healthz")" = "ok" ] || fail "/healthz is not ok"
! curl -fsS -X POST "$BASE/checkpoint" >/dev/null 2>&1 || false # no -state: refused
! curl -fsS "$BASE/nosuch" >/dev/null 2>&1 || false

echo "== SIGTERM: graceful shutdown =="
stop_daemon

echo "== service mode on -tail: the same recording as a tail: input =="
"$WORK/ixpmon" -serve -tail "$WORK/traffic.sflow" -http "127.0.0.1:$HTTP_PORT" \
    -window 2 -state "$WORK/state" >"$WORK/serve.log" 2>&1 &
SERVE_PID=$!
wait_up
wait_cursor "$LOG_SIZE"
wait_drained # the cursor is the newest entry read; the queue behind it drains next
TAIL_RECEIVED="$RECEIVED"
[ "$(input_field id)" = "tail:$WORK/traffic.sflow" ] || fail "/sources input row id = $(input_field id)"
[ "$(input_field state)" = "healthy" ] || fail "tail input state = $(input_field state), want healthy (idle at end of log)"
[ "$(input_field epoch)" = "0" ] || fail "tail input reopened an untouched log: epoch $(input_field epoch)"
[ "$(curl -fsS "$BASE/detections")" = "$DETS" ] || fail "tail leg detections differ from the UDP leg's over the same recording"
curl -fsS -X POST "$BASE/checkpoint" | grep -q '"checkpoint": ' || fail "POST /checkpoint with -state returned no path"
! curl -fsS "$BASE/checkpoint" >/dev/null 2>&1 || false # GET: 405
stop_daemon
ls "$WORK/state"/checkpoint-*.ckpt >/dev/null || fail "no checkpoint written to -state"
sed -n '/^day /,$p' "$WORK/serve.log" >"$WORK/tail.summary"

echo "== one-shot -sflow: the same recording as a replay: input, ending by itself =="
rc=0
timeout 60 "$WORK/ixpmon" -sflow "$WORK/traffic.sflow" -window 2 >"$WORK/oneshot.summary" 2>"$WORK/oneshot.log" || rc=$?
[ "$rc" -eq 0 ] || fail "one-shot run exited $rc (124: still running after 60 s): $(cat "$WORK/oneshot.log")"
grep '^20' "$WORK/oneshot.summary" | cut -d' ' -f1 >"$WORK/oneshot.days"
[ "$(wc -l <"$WORK/oneshot.days")" -ge 2 ] || fail "fewer day rows than the recording has days: $(cat "$WORK/oneshot.summary")"
sort -c -u "$WORK/oneshot.days" || fail "day rows repeat a date or run backwards: $(cat "$WORK/oneshot.days")"
grep -q '^detections: [1-9]' "$WORK/oneshot.summary" || fail "one-shot summary reported no detections"
diff "$WORK/tail.summary" "$WORK/oneshot.summary" || fail "one-shot day rows and detections differ from the -serve -tail leg's"

echo "== -tail -resume after the log was rotated to a shorter one while down =="
"$WORK/attackgen" -scale 0.02 -wire-days 1 -sflow-out "$WORK/short.sflow" -summary >/dev/null 2>&1
"$WORK/attackgen" -scale 0.005 -wire-days 1 -traffic-seed 2 -sflow-out "$WORK/more.sflow" -summary >/dev/null 2>&1
SHORT_N="$(datagrams "$WORK/short.sflow")"
MORE_N="$(datagrams "$WORK/more.sflow")"
[ "${SHORT_N:-0}" -gt 0 ] && [ "${MORE_N:-0}" -gt 0 ] || fail "could not count the rotation recordings' datagrams"
SHORT_SIZE="$(wc -c <"$WORK/short.sflow" | tr -d ' ')"
[ "$SHORT_SIZE" -lt "$LOG_SIZE" ] || fail "the rotated log ($SHORT_SIZE bytes) is not shorter than the old one ($LOG_SIZE)"
mv "$WORK/short.sflow" "$WORK/traffic.sflow"
"$WORK/ixpmon" -serve -tail "$WORK/traffic.sflow" -http "127.0.0.1:$HTTP_PORT" \
    -window 2 -state "$WORK/state" -resume >"$WORK/serve.log" 2>&1 &
SERVE_PID=$!
wait_up
wait_cursor "$SHORT_SIZE"
wait_drained
[ "$RECEIVED" -eq $((TAIL_RECEIVED + SHORT_N)) ] ||
    fail "first resume received $RECEIVED datagrams in all, want $TAIL_RECEIVED + $SHORT_N"
stop_daemon

echo "== -tail -resume again after the rotated log grew: each entry once =="
tail -c +13 "$WORK/more.sflow" >>"$WORK/traffic.sflow" # the entries, without the log header
GROWN_SIZE="$(wc -c <"$WORK/traffic.sflow" | tr -d ' ')"
"$WORK/ixpmon" -serve -tail "$WORK/traffic.sflow" -http "127.0.0.1:$HTTP_PORT" \
    -window 2 -state "$WORK/state" -resume >"$WORK/serve.log" 2>&1 &
SERVE_PID=$!
wait_up
wait_cursor "$GROWN_SIZE"
wait_drained
stop_daemon
WANT=$((TAIL_RECEIVED + SHORT_N + MORE_N))
grep -q "^ixpmon: $WANT datagrams received, $WANT consumed," "$WORK/serve.log" ||
    fail "summary does not count each entry once ($WANT): $(grep '^ixpmon: .* datagrams received' "$WORK/serve.log")"

echo "== one-shot on a missing log fails at once =="
rc=0
timeout 2 "$WORK/ixpmon" -sflow "$WORK/nosuch.sflow" >"$WORK/missing.log" 2>&1 || rc=$?
[ "$rc" -eq 1 ] || fail "-sflow on a missing log exited $rc, want 1 (124: still retrying after 2 s)"
grep -q "input replay:$WORK/nosuch.sflow failed" "$WORK/missing.log" || fail "the failure does not name the input: $(cat "$WORK/missing.log")"

echo "daemon smoke: OK"
