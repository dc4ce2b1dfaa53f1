package metrics

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

func TestWriteText(t *testing.T) {
	r := NewRegistry(nil)
	r.Register("svc_datagrams_total", "Datagrams received per source.", Counter, func(emit Emit) {
		emit(41, "agent", "192.0.2.1", "subagent", "0")
		emit(1.5, "agent", "192.0.2.2", "subagent", "1")
	})
	r.Register("svc_window_days", "Sliding window width.", Gauge, func(emit Emit) {
		emit(7)
	})

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	want := `# HELP svc_datagrams_total Datagrams received per source.
# TYPE svc_datagrams_total counter
svc_datagrams_total{agent="192.0.2.1",subagent="0"} 41
svc_datagrams_total{agent="192.0.2.2",subagent="1"} 1.5
# HELP svc_window_days Sliding window width.
# TYPE svc_window_days gauge
svc_window_days 7
`
	if b.String() != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestCollectAtScrape(t *testing.T) {
	n := 0.0
	r := NewRegistry(nil)
	r.Register("live_value", "Reads current state at every render.", Gauge, func(emit Emit) {
		emit(n)
	})
	render := func() string {
		var b strings.Builder
		if err := r.WriteText(&b); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		return b.String()
	}
	if got := render(); !strings.Contains(got, "live_value 0\n") {
		t.Fatalf("first render missing zero sample:\n%s", got)
	}
	n = 3
	if got := render(); !strings.Contains(got, "live_value 3\n") {
		t.Fatalf("second render did not re-collect:\n%s", got)
	}
}

func TestEscaping(t *testing.T) {
	r := NewRegistry(nil)
	r.Register("esc", "help with \\ and\nnewline", Gauge, func(emit Emit) {
		emit(1, "k", "quote\" slash\\ nl\n")
	})
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		`# HELP esc help with \\ and\nnewline`,
		`esc{k="quote\" slash\\ nl\n"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRegisterPanics(t *testing.T) {
	r := NewRegistry(nil)
	r.Register("ok_name", "", Gauge, func(Emit) {})
	for _, tc := range []struct{ name, reason string }{
		{"ok_name", "duplicate"},
		{"9starts_with_digit", "bad first char"},
		{"has-dash", "bad char"},
		{"", "empty"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%q) did not panic (%s)", tc.name, tc.reason)
				}
			}()
			r.Register(tc.name, "", Gauge, func(Emit) {})
		}()
	}
}

// TestPrepareOncePerRender pins the hook's contract: it runs exactly
// once per WriteText, before the first collector, and every family of
// that render reads the snapshot it stored — also when renders run
// concurrently (they are serialized; run under -race).
func TestPrepareOncePerRender(t *testing.T) {
	state := 0 // the shared state a real hook would lock to read
	prepared, snap := 0, 0
	r := NewRegistry(func() {
		prepared++
		state++
		snap = state
	})
	for _, name := range []string{"fam_a", "fam_b", "fam_c"} {
		r.Register(name, "Reads the per-render snapshot.", Gauge, func(emit Emit) {
			emit(float64(snap))
		})
	}
	render := func() string {
		var b strings.Builder
		if err := r.WriteText(&b); err != nil {
			t.Errorf("WriteText: %v", err)
		}
		return b.String()
	}
	for want := 1; want <= 2; want++ {
		got := render()
		if prepared != want {
			t.Fatalf("render %d: hook ran %d times in total, want %d", want, prepared, want)
		}
		if n := strings.Count(got, fmt.Sprintf(" %d\n", want)); n != 3 {
			t.Fatalf("render %d: %d of 3 families read snapshot %d:\n%s", want, n, want, got)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				lines := strings.Split(strings.TrimSpace(render()), "\n")
				a, b, c := lines[2], lines[5], lines[8] // HELP, TYPE, sample per family
				if strings.TrimPrefix(a, "fam_a") != strings.TrimPrefix(b, "fam_b") ||
					strings.TrimPrefix(a, "fam_a") != strings.TrimPrefix(c, "fam_c") {
					t.Errorf("families of one render read different snapshots: %q %q %q", a, b, c)
					return
				}
			}
		}()
	}
	wg.Wait()
	if prepared != 2+4*50 {
		t.Errorf("hook ran %d times over %d renders", prepared, 2+4*50)
	}
}

// BenchmarkWriteText renders a registry the size of the service's: 48
// single-sample families and 12 with one labelled sample for each of
// three inputs, as one /metrics scrape does.
func BenchmarkWriteText(b *testing.B) {
	r := NewRegistry(nil)
	for i := 0; i < 48; i++ {
		v := float64(i) * 1234.5
		r.Register(fmt.Sprintf("svc_scalar_%d_total", i), "One process-wide counter.", Counter, func(emit Emit) {
			emit(v)
		})
	}
	for i := 0; i < 12; i++ {
		r.Register(fmt.Sprintf("svc_source_%d", i), "One gauge per input and agent.", Gauge, func(emit Emit) {
			for _, in := range []string{"replay:a.sflowlog", "replay:b.sflowlog", "udp://127.0.0.1:6343"} {
				emit(float64(len(in)), "input", in, "agent", "198.51.100.7", "subagent", "0")
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.WriteText(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
