package main

import (
	"strings"
	"testing"
)

// TestChainBreakWithoutHistory: in a tree without the history no
// point's recording commit is known, and a base that is not the
// previous head is not flagged, while with history an uncommitted
// previous point still is.
func TestChainBreakWithoutHistory(t *testing.T) {
	pt := func(base, head, by string) recorded {
		r := recorded{file: "BENCH_" + head + ".json", by: by}
		r.Base.Commit, r.Head.Commit = base, head
		return r
	}
	prev := pt("a", "b-wip", "")
	for _, c := range []struct {
		name    string
		cur     recorded
		history bool
		want    string
	}{
		{"base is the previous head", pt("b-wip", "c", ""), false, ""},
		{"no history", pt("b", "c", ""), false, ""},
		{"history, previous point uncommitted", pt("b", "c", ""), true, "which is not committed"},
		{"history, base is the previous head", pt("b-wip", "c", ""), true, ""},
	} {
		got := chainBreak(prev, c.cur, c.history)
		if (c.want == "") != (got == "") || !strings.Contains(got, c.want) {
			t.Errorf("%s: chainBreak = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestTouchesCode: a range that changes only documentation, the
// allowlist or the committed points measures the same program; any Go
// file or module file breaks the chain.
func TestTouchesCode(t *testing.T) {
	for _, c := range []struct {
		paths []string
		want  bool
	}{
		{nil, false},
		{[]string{"ROADMAP.md"}, false},
		{[]string{"docs/ARCHITECTURE.md", "BENCH_45.json", "scripts/testonly_allowlist.txt", "internal/dnswire/testdata/fuzz/FuzzParse/x"}, false},
		{[]string{"README.md", "internal/server/server.go"}, true},
		{[]string{"internal/server/runs_test.go"}, true},
		{[]string{"go.mod"}, true},
		{[]string{"go.sum"}, true},
		{[]string{"docs/go.mod.md"}, false},
	} {
		if got := touchesCode(c.paths); got != c.want {
			t.Errorf("touchesCode(%q) = %v, want %v", c.paths, got, c.want)
		}
	}
}
