package main

import (
	"bytes"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dnsamp/internal/ingest"
	"dnsamp/internal/server"
	"dnsamp/internal/simclock"
)

func specs(t *testing.T, ss ...string) []ingest.Spec {
	t.Helper()
	var out []ingest.Spec
	for _, s := range ss {
		sp, err := ingest.ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sp)
	}
	return out
}

// TestServeInputs tables every accept and reject row of the flag →
// source-list mapping. explicit lists the flags "on the command line";
// listen always carries a value, as the flag has a default.
func TestServeInputs(t *testing.T) {
	const defListen = "127.0.0.1:6343"
	base := serveFlags{serve: true, listen: defListen, timestamps: "wall"}
	with := func(edit func(*serveFlags)) serveFlags {
		f := base
		edit(&f)
		return f
	}
	for _, c := range []struct {
		name     string
		explicit []string
		flags    serveFlags
		want     []string // source IDs in order; nil with wantErr
		wantErr  string
	}{
		// Accepts.
		{"bare -serve listens on the default address", nil, base,
			[]string{"udp://" + defListen}, ""},
		{"-listen is udp://ADDR", []string{"listen"}, with(func(f *serveFlags) { f.listen = "0.0.0.0:7000" }),
			[]string{"udp://0.0.0.0:7000"}, ""},
		{"-tail is tail:PATH, and no UDP listener appears", []string{"tail"}, with(func(f *serveFlags) { f.tail = "a.log" }),
			[]string{"tail:a.log"}, ""},
		{"-input alone: the default -listen stays out", []string{"input"}, with(func(f *serveFlags) { f.inputs = specs(t, "replay:r.log") }),
			[]string{"replay:r.log"}, ""},
		{"explicit -listen beside -input adds a source", []string{"input", "listen"},
			with(func(f *serveFlags) { f.inputs = specs(t, "replay:r.log") }),
			[]string{"replay:r.log", "udp://" + defListen}, ""},
		{"-tail beside -input adds a source", []string{"input", "tail"},
			with(func(f *serveFlags) { f.inputs = specs(t, "udp://:9000"); f.tail = "a.log" }),
			[]string{"udp://:9000", "tail:a.log"}, ""},
		{"order: -inputs file, then -input, then -listen, then -tail", []string{"inputs", "input", "listen", "tail", "policy"},
			with(func(f *serveFlags) {
				f.inputsFile, f.fromFile = "srcs.txt", specs(t, "pcap:f1.pcap", "replay:f2.log")
				f.inputs = specs(t, "replay:i1.log", "synthetic")
				f.tail, f.policy = "t.log", ingest.PolicyArrival
			}),
			[]string{"pcap:f1.pcap", "replay:f2.log", "replay:i1.log", "synthetic:scale=0.05,days=1,seed=11", "udp://" + defListen, "tail:t.log"}, ""},
		{"an empty -inputs file is fine when -input configures a source", []string{"inputs", "input"},
			with(func(f *serveFlags) { f.inputsFile = "empty.txt"; f.inputs = specs(t, "udp://:9000") }),
			[]string{"udp://:9000"}, ""},
		{"-policy with one -input", []string{"input", "policy"},
			with(func(f *serveFlags) { f.inputs = specs(t, "replay:r.log"); f.policy = ingest.PolicyArrival }),
			[]string{"replay:r.log"}, ""},
		{"uptime timestamps on UDP inputs", []string{"timestamps", "input"},
			with(func(f *serveFlags) { f.timestamps = "uptime"; f.inputs = specs(t, "udp://:9000") }),
			[]string{"udp://:9000"}, ""},
		{"without -serve: one synthetic input from -scale/-days; -listen and -tail are inert", []string{"listen", "tail", "scale", "days"},
			serveFlags{listen: "x", tail: "a.log", timestamps: "wall", scale: 0.02, days: 3},
			[]string{"synthetic:scale=0.02,days=3,seed=11"}, ""},
		{"-sflow is replay:FILE", []string{"sflow"}, serveFlags{timestamps: "wall", sflow: "r.log", scale: 0.05, days: 14},
			[]string{"replay:r.log"}, ""},
		{"-sflow -follow is tail:FILE", []string{"sflow", "follow"}, serveFlags{timestamps: "wall", sflow: "r.log", follow: true, scale: 0.05, days: 14},
			[]string{"tail:r.log"}, ""},

		// Rejects.
		{"-input without -serve", []string{"input"}, serveFlags{inputs: specs(t, "udp://:9000")}, nil, "-input has no effect without -serve"},
		{"-inputs without -serve", []string{"inputs"}, serveFlags{inputsFile: "srcs.txt"}, nil, "-inputs has no effect without -serve"},
		{"-policy without -serve", []string{"policy"}, serveFlags{policy: ingest.PolicyArrival}, nil, "-policy has no effect without -serve"},
		{"an -inputs file that configures nothing", []string{"inputs"},
			with(func(f *serveFlags) { f.inputsFile = "empty.txt" }), nil, "configures no sources"},
		{"-policy with only the default listener", []string{"policy"},
			with(func(f *serveFlags) { f.policy = ingest.PolicyArrival }), nil, "-policy needs -input or -inputs"},
		{"-policy with only -tail", []string{"policy", "tail"},
			with(func(f *serveFlags) { f.policy = ingest.PolicyArrival; f.tail = "a.log" }), nil, "-policy needs -input or -inputs"},
		{"an unknown -policy", []string{"policy", "input"},
			with(func(f *serveFlags) { f.policy = "fifo"; f.inputs = specs(t, "udp://:9000") }), nil, `-policy "fifo"`},
		{"the deleted backlog policy", []string{"policy", "input"},
			with(func(f *serveFlags) { f.policy = "backlog"; f.inputs = specs(t, "replay:r.log") }), nil, `-policy "backlog": want round-robin or arrival`},
		{"a -listen value that is no address", []string{"listen"},
			with(func(f *serveFlags) { f.listen = "nope" }), nil, "udp://nope"},
		{"uptime timestamps on -tail", []string{"tail", "timestamps"},
			with(func(f *serveFlags) { f.tail = "a.log"; f.timestamps = "uptime" }), nil, "contradicts durable input tail:a.log"},
		{"uptime timestamps on a durable -input", []string{"input", "timestamps"},
			with(func(f *serveFlags) { f.inputs = specs(t, "udp://:9000", "replay:r.log"); f.timestamps = "uptime" }), nil, "contradicts durable input replay:r.log"},
		{"an unknown -timestamps", []string{"timestamps"},
			with(func(f *serveFlags) { f.timestamps = "gps" }), nil, "-timestamps must be wall or uptime"},
		{"-follow without -sflow", []string{"follow"}, serveFlags{timestamps: "wall", follow: true, scale: 0.05, days: 14}, nil, "-follow needs -sflow"},
		{"-follow without -sflow, under -serve", []string{"follow"}, with(func(f *serveFlags) { f.follow = true }), nil, "-follow needs -sflow"},
		{"-sflow with -serve", []string{"sflow"}, with(func(f *serveFlags) { f.sflow = "r.log" }), nil, "-sflow has no effect with -serve"},
		{"-scale with -sflow", []string{"sflow", "scale"}, serveFlags{timestamps: "wall", sflow: "r.log", scale: 0.1, days: 14}, nil, "-scale and -days have no effect with -sflow"},
		{"-days with -sflow", []string{"sflow", "days"}, serveFlags{timestamps: "wall", sflow: "r.log", scale: 0.05, days: 3}, nil, "-scale and -days have no effect with -sflow"},
		{"a synthetic input of no days", []string{"days"}, serveFlags{timestamps: "wall", scale: 0.05}, nil, "scale and days must be positive"},
		{"uptime timestamps on the one-shot input", []string{"timestamps"}, serveFlags{timestamps: "uptime", scale: 0.05, days: 14}, nil, "contradicts durable input synthetic:"},
	} {
		explicit := map[string]bool{}
		for _, name := range c.explicit {
			explicit[name] = true
		}
		got, err := serveInputs(explicit, c.flags)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s: err = %v (specs %v), want one containing %q", c.name, err, got, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		var ids []string
		for _, sp := range got {
			ids = append(ids, sp.ID)
		}
		if !slices.Equal(ids, c.want) {
			t.Errorf("%s: sources %v, want %v", c.name, ids, c.want)
		}
	}
}

// TestOneShotClosesEachDayOnce runs ixpmon's path without -serve over a
// synthetic input whose day batches carry next-day spill: it must come
// back by itself with one summary row per calendar day — consecutive
// dates from the first day of the stream, never one twice — whose victim
// counts are the per-day counts of the detections printed below them.
func TestOneShotClosesEachDayOnce(t *testing.T) {
	inputs, err := serveInputs(nil, serveFlags{timestamps: "wall", scale: 0.02, days: 3})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	cfg := server.Config{HTTPAddr: "127.0.0.1:0", Window: server.WindowConfig{Days: 7}, Inputs: inputs}
	if err := runServe(cfg, false, &out); err != nil {
		t.Fatal(err)
	}
	table, dets, ok := strings.Cut(out.String(), "detections: ")
	if !ok {
		t.Fatalf("summary has no detections block:\n%s", out.String())
	}
	perDay := map[string]int{}
	for _, line := range strings.Split(dets, "\n")[1:] {
		if f := strings.Fields(line); len(f) > 0 {
			perDay[f[0]]++
		}
	}
	if len(perDay) == 0 {
		t.Fatal("no detections: the victim counts would be compared with nothing")
	}
	var rows, victims int
	for _, line := range strings.Split(table, "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || !strings.HasPrefix(f[0], "20") {
			continue // header and mean lines
		}
		if want := simclock.MeasurementStart.Add(simclock.Days(rows)).Date(); f[0] != want {
			t.Errorf("row %d is %s, want %s", rows, f[0], want)
		}
		if n, _ := strconv.Atoi(f[1]); n != perDay[f[0]] {
			t.Errorf("%s: %s victims in the day row, %d detections of that day", f[0], f[1], perDay[f[0]])
		}
		victims += perDay[f[0]]
		rows++
	}
	// The last day's spill may open one more calendar day, not more.
	if rows != 3 && rows != 4 {
		t.Errorf("%d day rows for a 3-day stream:\n%s", rows, table)
	}
	if strings.Count(dets, "\n")-1 != victims {
		t.Errorf("detections outside the summarised days:\n%s", out.String())
	}
}

// TestOneShotInputFailureIsFinal: without -serve a missing log ends the
// stream at its first error — no backoff rounds — and the error names the
// input and what went wrong.
func TestOneShotInputFailureIsFinal(t *testing.T) {
	inputs, err := serveInputs(nil, serveFlags{timestamps: "wall", sflow: filepath.Join(t.TempDir(), "nosuch.sflow")})
	if err != nil {
		t.Fatal(err)
	}
	err = runServe(server.Config{HTTPAddr: "127.0.0.1:0", Inputs: inputs}, false, new(bytes.Buffer))
	for _, want := range []string{inputs[0].ID, "1 consecutive failures", "no such file"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want it to contain %q", err, want)
		}
	}
}
