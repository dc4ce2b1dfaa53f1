package scanner

import (
	"testing"

	"dnsamp/internal/ecosystem"
	"dnsamp/internal/simclock"
	"dnsamp/internal/topology"
)

func testPool() *ecosystem.Pool {
	topo := topology.Generate(topology.Config{Members: 20, ASesPerClass: 30, Seed: 1})
	return ecosystem.NewPool(20_000, topo)
}

func TestCoverage(t *testing.T) {
	pool := testPool()
	idx := Build(pool, simclock.EntityPeriod())
	share := float64(len(idx.hist)) / float64(pool.Len())
	// coverageProb 0.95 minus short-lived endpoints that died before
	// any scan caught them.
	if share < 0.80 || share > 0.96 {
		t.Errorf("indexed share = %.2f", share)
	}
}

func TestHistoryBounds(t *testing.T) {
	pool := testPool()
	w := simclock.EntityPeriod()
	idx := Build(pool, w)
	checked := 0
	for i := 0; i < pool.Len(); i++ {
		a := pool.Get(i)
		h, ok := idx.Lookup(a.Addr)
		if !ok {
			continue
		}
		checked++
		if h.FirstSeen.Before(a.Born) {
			t.Fatalf("amp %d first seen %s before born %s", i, h.FirstSeen.Date(), a.Born.Date())
		}
		if h.LastSeen.After(a.Died) {
			t.Fatalf("amp %d last seen %s after died %s", i, h.LastSeen.Date(), a.Died.Date())
		}
		if h.LastSeen.Before(h.FirstSeen) {
			t.Fatalf("amp %d last < first", i)
		}
		if h.Kind != a.Kind {
			t.Fatalf("kind mismatch")
		}
	}
	if checked < 1000 {
		t.Fatalf("too few indexed: %d", checked)
	}
}

func TestDiscoveryLag(t *testing.T) {
	pool := testPool()
	idx := Build(pool, simclock.EntityPeriod())
	// Mean discovery lag should reflect the detection probability
	// (geometric with p=0.9 -> mean ~0.11 days).
	var lagSum, n float64
	for i := 0; i < pool.Len(); i++ {
		a := pool.Get(i)
		if h, ok := idx.Lookup(a.Addr); ok {
			lagSum += float64(h.FirstSeen.Sub(a.Born) / simclock.Day)
			n++
		}
	}
	mean := lagSum / n
	if mean > 0.5 {
		t.Errorf("mean discovery lag = %.2f days, want < 0.5", mean)
	}
}

func TestDeterminism(t *testing.T) {
	pool := testPool()
	a := Build(pool, simclock.EntityPeriod())
	b := Build(pool, simclock.EntityPeriod())
	if len(a.hist) != len(b.hist) {
		t.Fatal("index sizes differ")
	}
	for i := 0; i < pool.Len(); i++ {
		addr := pool.Get(i).Addr
		ha, oka := a.Lookup(addr)
		hb, okb := b.Lookup(addr)
		if oka != okb || ha != hb {
			t.Fatal("histories differ between equal-seed builds")
		}
	}
}

func TestUnknownAddr(t *testing.T) {
	pool := testPool()
	idx := Build(pool, simclock.EntityPeriod())
	var unknown = [4]byte{9, 9, 9, 9}
	if _, ok := idx.Lookup(ecosystem.AddrFromKey(unknown)); ok {
		t.Error("out-of-pool address should be unknown")
	}
}
