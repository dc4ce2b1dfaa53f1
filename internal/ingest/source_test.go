package ingest

import (
	"bytes"
	"testing"

	"dnsamp/internal/sflow"
	"dnsamp/internal/simclock"
)

// drainAll pulls a started scheduler's whole stream through Next.
func drainAll(s *Scheduler) []Item {
	var items []Item
	for run := make([]Item, 0, RunLen); ; {
		if run = s.Next(run); len(run) == 0 {
			return items
		}
		items = append(items, run...)
	}
}

// TestSyntheticTimeOrderedAcrossMidnight: a generation day's records
// that run past its midnight are delivered among the next day's, so the
// stream's capture times never decrease; and a restart at a mid-stream
// cursor delivers exactly the rest of it.
func TestSyntheticTimeOrderedAcrossMidnight(t *testing.T) {
	sp, err := ParseSpec("synthetic:scale=0.02,days=6,seed=3")
	if err != nil {
		t.Fatal(err)
	}
	run := func(cursor int64) []Item {
		s, err := New(Config{Specs: []Spec{sp}, Cursors: map[string]int64{sp.ID: cursor}})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Stop()
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		return drainAll(s)
	}
	items := run(0)

	// The input must spill, or the order check proves nothing.
	gen := syntheticGenerator(sp)
	spilled := 0
	day := simclock.MeasurementStart
	for d := 0; d < sp.Days-1; d++ {
		next := day.Add(simclock.Day)
		for _, tr := range gen.WireDay(day).IXP {
			if !tr.Rec.Time.Before(next) {
				spilled++
			}
		}
		day = next
	}
	if spilled == 0 {
		t.Fatal("no generation day runs past its midnight: pick an input that spills")
	}

	if len(items) < 2 {
		t.Fatalf("%d datagrams delivered", len(items))
	}
	for i := 1; i < len(items); i++ {
		if items[i].At.Before(items[i-1].At) {
			t.Fatalf("datagram %d at %v after %v (%d records spill past a midnight)", i, items[i].At, items[i-1].At, spilled)
		}
		if items[i].Cursor <= items[i-1].Cursor {
			t.Fatalf("datagram %d: cursor %d after %d", i, items[i].Cursor, items[i-1].Cursor)
		}
	}

	mid := len(items) / 2
	rest := run(items[mid].Cursor)
	want := items[mid+1:]
	if len(rest) != len(want) {
		t.Fatalf("restart at cursor %d delivered %d datagrams, want %d", items[mid].Cursor, len(rest), len(want))
	}
	for i := range rest {
		g, w := rest[i], want[i]
		if g.At != w.At || g.Cursor != w.Cursor || !bytes.Equal(sflow.EncodeDatagram(g.Datagram()), sflow.EncodeDatagram(w.Datagram())) {
			t.Fatalf("restart datagram %d: at %v cursor %d, want at %v cursor %d (or its bytes differ)", i, g.At, g.Cursor, w.At, w.Cursor)
		}
	}
}
