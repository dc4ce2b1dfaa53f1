package main

import (
	"slices"
	"strings"
	"testing"

	"dnsamp/internal/ingest"
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
			with(func(f *serveFlags) { f.inputs = specs(t, "replay:r.log"); f.policy = ingest.PolicyBacklog }),
			[]string{"replay:r.log"}, ""},
		{"uptime timestamps on UDP inputs", []string{"timestamps", "input"},
			with(func(f *serveFlags) { f.timestamps = "uptime"; f.inputs = specs(t, "udp://:9000") }),
			[]string{"udp://:9000"}, ""},
		{"without -serve the service flags are inert", []string{"listen", "tail", "timestamps"},
			serveFlags{listen: "x", tail: "a.log", timestamps: "bogus"}, nil, ""},

		// Rejects.
		{"-input without -serve", []string{"input"}, serveFlags{inputs: specs(t, "udp://:9000")}, nil, "-input has no effect without -serve"},
		{"-inputs without -serve", []string{"inputs"}, serveFlags{inputsFile: "srcs.txt"}, nil, "-inputs has no effect without -serve"},
		{"-policy without -serve", []string{"policy"}, serveFlags{policy: ingest.PolicyArrival}, nil, "-policy has no effect without -serve"},
		{"an -inputs file that configures nothing", []string{"inputs"},
			with(func(f *serveFlags) { f.inputsFile = "empty.txt" }), nil, "configures no sources"},
		{"-policy with only the default listener", []string{"policy"},
			with(func(f *serveFlags) { f.policy = ingest.PolicyArrival }), nil, "-policy needs -input or -inputs"},
		{"-policy with only -tail", []string{"policy", "tail"},
			with(func(f *serveFlags) { f.policy = ingest.PolicyBacklog; f.tail = "a.log" }), nil, "-policy needs -input or -inputs"},
		{"an unknown -policy", []string{"policy", "input"},
			with(func(f *serveFlags) { f.policy = "fifo"; f.inputs = specs(t, "udp://:9000") }), nil, `-policy "fifo"`},
		{"a -listen value that is no address", []string{"listen"},
			with(func(f *serveFlags) { f.listen = "nope" }), nil, "udp://nope"},
		{"uptime timestamps on -tail", []string{"tail", "timestamps"},
			with(func(f *serveFlags) { f.tail = "a.log"; f.timestamps = "uptime" }), nil, "contradicts durable input tail:a.log"},
		{"uptime timestamps on a durable -input", []string{"input", "timestamps"},
			with(func(f *serveFlags) { f.inputs = specs(t, "udp://:9000", "replay:r.log"); f.timestamps = "uptime" }), nil, "contradicts durable input replay:r.log"},
		{"an unknown -timestamps", []string{"timestamps"},
			with(func(f *serveFlags) { f.timestamps = "gps" }), nil, "-timestamps must be wall or uptime"},
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
