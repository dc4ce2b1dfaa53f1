# Targets mirror .github/workflows/ci.yml so local runs and CI stay in
# lockstep: `make ci` is what a PR's jobs run (the non-race alloc guards
# as part of `test`; `loc`, which only prints, left out).

GO ?= go

.PHONY: all build test race test-cpu test-cpu1 bench bench-e2e-smoke bench-pairs bench-report fuzz fmt vet loc loc-diff testonly daemon-smoke cli-smoke chaos-smoke eval-smoke ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The stateful layers again at GOMAXPROCS 1 and 2: their tests wait on
# goroutines (supervisors, the consumer, tailers), so a wait that only
# holds with cores to spare shows here. core, names and par ride along:
# their contract is single writers over one shared name table. stats and
# ecosystem too: Generator.Day runs as concurrent slices over a shared
# atomic size cache and shared Zipf tables. pipeline too: its barrier
# sorts the shards concurrently, and serial == parallel must hold on
# one core. experiments too: the study merges one shard at -cpu 1 and
# two at -cpu 2, so the tracked rows' re-keying at the barrier and the
# reports' candidate column run under both. source and ixp too: a
# source must serve DayFor and DayFlows concurrently, and the capture
# point's per-address AS cache must answer the same on one core as on
# two. zonedb and dnssec too: concurrent day slices read the bulk-name
# parser behind the table's range, the DNSSEC size arithmetic and the
# key material of response templates. scenario and eval too: the
# pipeline's concurrent workers stream one Built scenario's days and
# read its env's shared name table, which builds extend.
test-cpu:
	$(GO) test -count=1 -cpu 1,2 ./internal/server ./internal/ingest ./internal/sflow \
		./internal/core ./internal/names ./internal/par ./internal/stats ./internal/ecosystem \
		./internal/pipeline ./internal/experiments ./internal/source ./internal/ixp \
		./internal/zonedb ./internal/dnssec ./internal/scenario ./internal/eval

# Every package at GOMAXPROCS 1 (about 35 s): a test that only passes
# with a second core to run a goroutine it waits on fails here, in the
# packages test-cpu leaves out too.
test-cpu1:
	$(GO) test -count=1 -cpu 1 ./...

# Layer benchmarks: every benchmark beside its code compiles and runs
# once, with allocation counts reported. To measure one, give it time:
# go test -run '^$' -bench ParseDatagram -benchmem ./internal/sflow
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x ./...

# End-to-end benchmark smoke: the repository benchmark (bench/,
# BENCHMARK.json) at smoke size — all five workloads once, every
# correctness gate (detections equal the offline reference, nothing
# lost, accounting closed), no timing claim. CI's bench-check job runs
# `bench` and this on every PR, and `go run ./bench -check` (the timed
# suite twice, medians held against the bounds) on pushes to main.
bench-e2e-smoke:
	$(GO) run ./bench -smoke

# Benchmark pairs: two commits on the repository benchmark, compared in
# alternating pairs (scripts/benchpoint). Both are exported with git
# archive and their ./bench built once; every workload runs once per
# seed on each side, the side that goes first alternating. It prints
# each end-to-end metric's median, quartiles and pairs won, and with
# POINT=n writes the same table to BENCH_n.json. About 35 s per pair and
# workload; run nothing else meanwhile. For example:
#   make bench-pairs BASE=HEAD~1 WORKLOADS=serve-coarse SEEDS=501-510 POINT=31
BASE ?= HEAD~1
HEAD ?= HEAD
SEEDS ?= 501-510
WORKLOADS ?=
POINT ?= 0
bench-pairs:
	$(GO) run ./scripts/benchpoint -base "$(BASE)" -head "$(HEAD)" -seeds "$(SEEDS)" -workloads "$(WORKLOADS)" -point $(POINT)

# Benchmark report: the trajectory the committed BENCH_<n>.json points
# make, one table per workload. Each row is one point: per end-to-end
# metric, its head median over its base median and the pairs the head
# won; the last row chains those ratios from the first point. Absolute
# medians are never compared across points (each point's base
# calibrates its own session), and a point whose base is not the
# previous point's head is flagged. It runs no benchmark.
bench-report:
	$(GO) run ./scripts/benchpoint -report

# Fuzz smoke: short coverage-guided runs of the byte-level parsers
# (DNS wire format, sFlow v5 datagrams, pcap records, the checkpoint
# and batch-snapshot decoders, input specs and their IDs), of sFlow log
# ingestion (frames and drops add up, repeatably), of the pcap datagram reader against the pcap reader (same
# packets, per-second batches, resumable cursors), of the sample
# scanner against the parser, of the bounded
# selector ranking against the full-sort reference, of the aggregator
# (observe, batch, split, merge, reset, release, snapshot) against a
# naive map model, of the name table
# (interning, release and a procedural range) against a map + slice
# reference, of the bulk-name parser against the formatter, and of the
# Zipf's guided search against the binary search. Targets are named
# exactly: go test refuses -fuzz patterns that match more than one
# target in a package. -fuzzminimizetime 1s caps the shrinking of each
# new input (60 s by default), which otherwise eats the 10 s budget.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/dnswire
	$(GO) test -run '^$$' -fuzz '^FuzzScanMatchesParse$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/dnswire
	$(GO) test -run '^$$' -fuzz FuzzParseDatagram -fuzztime 10s -fuzzminimizetime 1s ./internal/sflow
	$(GO) test -run '^$$' -fuzz FuzzReader -fuzztime 10s -fuzzminimizetime 1s ./internal/pcap
	$(GO) test -run '^$$' -fuzz FuzzPCAPDatagrams -fuzztime 10s -fuzzminimizetime 1s ./internal/sflow
	$(GO) test -run '^$$' -fuzz FuzzTopN -fuzztime 10s -fuzzminimizetime 1s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzAggregator -fuzztime 10s -fuzzminimizetime 1s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzTable -fuzztime 10s -fuzzminimizetime 1s ./internal/names
	$(GO) test -run '^$$' -fuzz FuzzZipf -fuzztime 10s -fuzzminimizetime 1s ./internal/stats
	$(GO) test -run '^$$' -fuzz '^FuzzProceduralName$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/zonedb
	$(GO) test -run '^$$' -fuzz FuzzLoadCheckpoint -fuzztime 10s -fuzzminimizetime 1s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzOpenSnapshot$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/source
	$(GO) test -run '^$$' -fuzz '^FuzzIngestSFlowLog$$' -fuzztime 10s -fuzzminimizetime 1s ./internal/source
	$(GO) test -run '^$$' -fuzz FuzzParseSpec -fuzztime 10s -fuzzminimizetime 1s ./internal/ingest

# Daemon smoke: service-mode ixpmon fed a generated sFlow log over
# UDP (-listen) and then through -tail must serve a well-formed
# control surface, refuse a held port and contradictory flags, and
# exit cleanly on SIGTERM; the one-shot `ixpmon -sflow` over the same
# log must end by itself with the -tail leg's summary, and exit 1 at
# once on a missing log.
daemon-smoke:
	./scripts/daemon_smoke.sh

# CLI smoke: the dnsampdetect binary, black box. `-scale 0.02 -v` must
# print the committed golden (cmd/dnsampdetect/testdata) byte for byte,
# serial and all-core runs and a snapshot round trip must print the
# same, one attackgen wire stream must replay as a log and as a pcap
# with the same frame count (and as a log with a corrupt datagram, one
# skipped), and an unknown flag, two replay flags and a missing input
# file must be refused with their exit statuses. `experiments -run
# table2` must print the same bytes twice and an unknown -run be
# refused before the study is planned; `evalrun` must score two
# scenarios as the golden table does and refuse bad arguments without
# writing its output.
cli-smoke:
	./scripts/cli_smoke.sh

# Chaos smoke: the crash-recovery and fault-injection suite,
# race-enabled. Replay through deterministic faults (fixed seed) must
# match the clean run's detections; a lossy fault storm must leave
# every datagram accounted for and /healthz back at ok; and the
# multi-source scheduler must keep two healthy sources byte-exact
# while a third is corrupted, wedged, or panicking (three sources,
# one faulty, fixed seed), surviving checkpoint/resume and log
# rotation without double-counting a sample.
chaos-smoke:
	$(GO) test -race -count=1 -run 'TestServiceChaos|TestServiceCrashRecovery|TestTailServiceResume|TestMultiSource|TestTailRotateCheckpointResume' ./internal/server/ ./internal/faults/

# Eval smoke: the scenario-catalog evaluation at the fixed golden
# params/seed/grid must reproduce the committed score table byte for
# byte (internal/eval/testdata/golden_catalog.txt), and the semantic
# contrast expectations must hold. A detector change that shifts any
# precision/recall/time-to-detect cell fails the diff; regenerate the
# golden deliberately with `go test ./internal/eval -run Golden -update`.
# The table goes to a mktemp file (set TMPDIR to move it), removed after
# the diff.
eval-smoke:
	out=$$(mktemp) && trap 'rm -f "$$out"' EXIT && \
	$(GO) run ./cmd/evalrun -days 6 -scale 0.03 -procedural-names 20000 \
		-campaign-seed 1 -traffic-seed 11 -seed 42 -out "$$out" && \
	diff -u internal/eval/testdata/golden_catalog.txt "$$out"
	$(GO) test -count=1 -run 'TestGoldenExpectations' ./internal/eval/

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Non-test Go lines outside bench/, per package and in total: the net
# LOC figure every PR quotes before and after (ROADMAP aim 2).
loc:
	@./scripts/loc.sh

# The same count on a git archive of BASE and on the working tree, per
# package: before, after and delta, the figure a PR quotes. Not part of
# `loc`: CI's shallow checkout has no parent commit to count.
#   make loc-diff BASE=HEAD~1
loc-diff:
	@./scripts/loc_diff.sh "$(BASE)"

# Functions and methods under internal/ that no program reaches (only
# tests, or nothing), by the linker's own reachability over every main
# (cmd/*, examples/*, bench). A ratchet: fails on an entry that
# scripts/testonly_allowlist.txt does not judge, or a stale line there.
testonly:
	@$(GO) run ./scripts/unreached

ci: build fmt vet testonly test race test-cpu test-cpu1 fuzz bench bench-e2e-smoke daemon-smoke cli-smoke chaos-smoke eval-smoke
