//go:build !race

// Compiled out under the race detector, whose instrumentation allocates
// (the convention of internal/core's alloc guards).

package ingest_test

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"dnsamp/internal/ecosystem"
	"dnsamp/internal/ingest"
	"dnsamp/internal/server"
	"dnsamp/internal/sflow"
	"dnsamp/internal/simclock"
	"dnsamp/internal/topology"
)

// TestServiceAllocPerDatagram guards the live path end to end, beside
// TestDispatchZeroAllocSteadyState's hand-off: the whole service — a
// replay: input's reader and decode, the chunk hand-off, admission,
// the queue and the consumer's Process and Observe — over one sampled
// day, written twice. The first copy warms the window up (every client
// day and name it will hold); over the second, the service may allocate
// at most 0.02 objects per datagram. No checkpoints, no scrapes. The
// input's stream holds the second copy back until the baseline is read,
// so the measurement covers exactly that copy however the consumer is
// scheduled.
func TestServiceAllocPerDatagram(t *testing.T) {
	cfg := ecosystem.DefaultCampaignConfig(0.01)
	cfg.Zones.ProceduralNames = 20_000
	cfg.Topology = topology.Config{Members: 24, ASesPerClass: 40, Seed: 1}
	recs := ecosystem.NewGenerator(ecosystem.NewCampaign(cfg), 7).WireDay(simclock.MeasurementStart).IXP
	slices.SortStableFunc(recs, func(a, b ecosystem.TaggedRecord) int {
		return int(a.Rec.Time.Sub(b.Rec.Time))
	})

	var log bytes.Buffer
	lw, err := sflow.NewLogWriter(&log, [4]byte{192, 0, 2, 1}, sflow.DefaultRate)
	if err != nil {
		t.Fatal(err)
	}
	datagrams, firstCopy := 0, 0
	for range 2 {
		for _, tr := range recs {
			if err := lw.Add(tr.Rec, tr.Ingress); err != nil {
				t.Fatal(err)
			}
		}
		if err := lw.Flush(); err != nil {
			t.Fatal(err)
		}
		if datagrams == 0 {
			datagrams, firstCopy = countEntries(t, log.Bytes()), log.Len()
		}
	}
	if total := countEntries(t, log.Bytes()); total != 2*datagrams {
		t.Fatalf("log holds %d datagrams, want the day's %d twice", total, datagrams)
	}
	path := filepath.Join(t.TempDir(), "day.sflowlog")
	if err := os.WriteFile(path, log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	sp, err := ingest.ParseSpec("replay:" + path)
	if err != nil {
		t.Fatal(err)
	}
	second := make(chan struct{})
	svc := server.NewService(server.Config{
		Inputs: []ingest.Spec{sp},
		WrapReader: func(_ string, r io.Reader) io.Reader {
			return &gatedReader{r: r, left: int64(firstCopy), open: second}
		},
		TimeFromUptime:  true,
		CheckpointEvery: -1,
		Window:          server.WindowConfig{Days: 2, Refresh: simclock.Day},
	})
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer svc.Shutdown(t.Context())

	waitConsumed := func(n uint64) {
		deadline := time.Now().Add(time.Minute)
		for svc.Consumed() < n {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d datagrams consumed after a minute", svc.Consumed(), n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	var m0, m1 runtime.MemStats
	waitConsumed(uint64(datagrams))
	runtime.ReadMemStats(&m0)
	c0 := svc.Consumed()
	close(second)
	<-svc.Done()
	runtime.ReadMemStats(&m1)
	c1 := svc.Consumed()
	if c1 != uint64(2*datagrams) {
		t.Fatalf("consumed %d datagrams, want %d", c1, 2*datagrams)
	}
	per := float64(m1.Mallocs-m0.Mallocs) / float64(c1-c0)
	t.Logf("%d datagrams measured: %.4f allocations per datagram", c1-c0, per)
	if per > 0.02 {
		t.Errorf("the service allocates %.3f objects per datagram after warm-up, want ≤ 0.02", per)
	}
}

// gatedReader hands out r's first left bytes, then blocks until open
// is closed and passes the rest through.
type gatedReader struct {
	r    io.Reader
	left int64 // bytes still to hand out before the gate; -1 once open
	open chan struct{}
}

func (g *gatedReader) Read(p []byte) (int, error) {
	if g.left == 0 {
		<-g.open
		g.left = -1
	}
	if g.left > 0 && int64(len(p)) > g.left {
		p = p[:g.left]
	}
	n, err := g.r.Read(p)
	if g.left > 0 {
		g.left -= int64(n)
	}
	return n, err
}

// countEntries counts a datagram log's entries.
func countEntries(t *testing.T, b []byte) int {
	t.Helper()
	lr, err := sflow.NewLogReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var dg sflow.Datagram
	n := 0
	for {
		if _, err := lr.NextInto(&dg); err != nil {
			return n
		}
		n++
	}
}
