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
