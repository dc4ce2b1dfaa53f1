package analysis

import (
	"testing"

	"dnsamp/internal/core"
	"dnsamp/internal/ecosystem"
	"dnsamp/internal/topology"
)

func TestAnalyzeMitigation(t *testing.T) {
	topo := topology.Generate(topology.Config{Members: 20, ASesPerClass: 30, Seed: 1})
	pool := ecosystem.NewPool(10_000, topo)

	// Build records whose amplifiers are real pool endpoints.
	var fwd, rec2 []*ecosystem.Amplifier
	for i := 0; i < pool.Len(); i++ {
		a := pool.Get(i)
		if a.Upstream >= 0 {
			fwd = append(fwd, a)
		} else {
			rec2 = append(rec2, a)
		}
		if len(fwd) >= 40 && len(rec2) >= 5 {
			break
		}
	}
	if len(fwd) < 40 || len(rec2) < 2 {
		t.Fatalf("pool composition unexpected: %d forwarders, %d others", len(fwd), len(rec2))
	}

	r := &core.AttackRecord{
		Packets:    100,
		ANYPackets: 100,
		Names:      map[string]int{"doj.gov.": 100},
		Amplifiers: map[[4]byte]int{},
		TXIDs:      map[uint16]int{},
		ReqIngress: map[uint32]int{},
		ReqTTLs:    map[uint8]int{},
	}
	for _, a := range fwd[:40] {
		r.Amplifiers[a.Addr.As4()] = 2
	}
	for _, a := range rec2[:2] {
		r.Amplifiers[a.Addr.As4()] = 2
	}

	mit := AnalyzeMitigation([]*core.AttackRecord{r}, pool)
	if mit.ANYShare != 1 {
		t.Errorf("ANY share = %v, want 1", mit.ANYShare)
	}
	wantFwd := float64(40*2) / float64(42*2)
	if mit.ForwarderResponseShare < wantFwd-0.01 || mit.ForwarderResponseShare > wantFwd+0.01 {
		t.Errorf("forwarder share = %v, want %.2f", mit.ForwarderResponseShare, wantFwd)
	}
	if mit.Upstreams == 0 {
		t.Fatal("no upstreams identified")
	}
	// Coverage must be monotone, ending at 1.
	prev := 0.0
	for _, v := range mit.UpstreamCurve {
		if v < prev {
			t.Fatal("coverage curve not monotone")
		}
		prev = v
	}
	if prev < 0.999 {
		t.Errorf("full coverage = %v, want 1", prev)
	}
	if mit.CoverageAt(0) != 0 {
		t.Error("CoverageAt(0) should be 0")
	}
	if mit.CoverageAt(mit.Upstreams+10) < 0.999 {
		t.Error("CoverageAt beyond range should saturate")
	}
	if mit.TopUpstreamForwarders < 1 {
		t.Error("top upstream should serve at least one forwarder")
	}
}

func TestMitigationEmpty(t *testing.T) {
	topo := topology.Generate(topology.Config{Members: 10, ASesPerClass: 5, Seed: 1})
	pool := ecosystem.NewPool(100, topo)
	mit := AnalyzeMitigation(nil, pool)
	if mit.ANYShare != 0 || mit.Upstreams != 0 {
		t.Errorf("empty input: %+v", mit)
	}
}
