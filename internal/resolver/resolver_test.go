package resolver

import (
	"net/netip"
	"testing"

	"dnsamp/internal/dnswire"
	"dnsamp/internal/simclock"
	"dnsamp/internal/zonedb"
)

// Cached reports whether (name, qtype) is live in the cache at t.
func (r *Resolver) Cached(name string, qtype dnswire.Type, t simclock.Time) bool {
	if r.Kind == Forwarder && r.Upstream != nil {
		return r.Upstream.Cached(name, qtype, t)
	}
	e, ok := r.cache[cacheKey{dnswire.CanonicalName(name), qtype}]
	return ok && t.Before(e.expires)
}

var testDB = zonedb.New(zonedb.Config{ProceduralNames: 10_000})

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestRecursiveCacheHitDecrementsTTL(t *testing.T) {
	r := New(addr("192.0.2.1"), Recursive, testDB)
	t0 := simclock.MeasurementStart
	res1 := r.Handle("doj.gov", dnswire.TypeANY, t0)
	if !res1.Answered || res1.CacheHit {
		t.Fatalf("first query should miss: %+v", res1)
	}
	if res1.TTL != res1.DefaultTTL {
		t.Errorf("miss TTL %d != default %d", res1.TTL, res1.DefaultTTL)
	}
	res2 := r.Handle("doj.gov", dnswire.TypeANY, t0.Add(100))
	if !res2.CacheHit {
		t.Fatal("second query should hit")
	}
	if res2.TTL != res2.DefaultTTL-100 {
		t.Errorf("hit TTL = %d, want %d", res2.TTL, res2.DefaultTTL-100)
	}
	if res2.Size != res1.Size {
		t.Errorf("cached size %d != original %d", res2.Size, res1.Size)
	}
}

func TestCacheExpiry(t *testing.T) {
	r := New(addr("192.0.2.1"), Recursive, testDB)
	t0 := simclock.MeasurementStart
	r.Handle("doj.gov", dnswire.TypeA, t0)
	z, _ := testDB.Zone("doj.gov")
	after := t0.Add(simclock.Duration(z.TTL) + 1)
	res := r.Handle("doj.gov", dnswire.TypeA, after)
	if res.CacheHit {
		t.Error("expired entry should miss")
	}
	if r.Cached("doj.gov", dnswire.TypeA, after.Add(simclock.Duration(z.TTL)+1)) {
		t.Error("Cached should report false after expiry")
	}
}

func TestForwarderInheritsUpstreamCache(t *testing.T) {
	up := New(addr("192.0.2.1"), Recursive, testDB)
	fw := New(addr("198.51.100.1"), Forwarder, testDB)
	fw.Upstream = up
	t0 := simclock.MeasurementStart
	up.Handle("nsf.gov", dnswire.TypeANY, t0)
	res := fw.Handle("nsf.gov", dnswire.TypeANY, t0.Add(50))
	if !res.CacheHit {
		t.Error("forwarder should relay upstream cache hit")
	}
	if res.TTL >= res.DefaultTTL {
		t.Error("forwarder should inherit decremented TTL")
	}
}

func TestForwarderWithoutUpstream(t *testing.T) {
	fw := New(addr("198.51.100.1"), Forwarder, testDB)
	if res := fw.Handle("nsf.gov", dnswire.TypeA, 0); res.Answered {
		t.Error("orphan forwarder should not answer")
	}
}

func TestAuthoritativeScope(t *testing.T) {
	z, _ := testDB.Zone("doj.gov")
	r := New(addr("192.0.2.53"), Authoritative, testDB)
	r.Zones = []*zonedb.Zone{z}
	t0 := simclock.MeasurementStart

	res := r.Handle("doj.gov", dnswire.TypeANY, t0)
	if !res.Answered || res.RCode != dnswire.RCodeNoError {
		t.Fatalf("in-zone query failed: %+v", res)
	}
	if res.Size < 3000 {
		t.Errorf("authoritative ANY size = %d, want large", res.Size)
	}
	// Out-of-zone: REFUSED, small.
	res = r.Handle("example.net", dnswire.TypeA, t0)
	if res.RCode != dnswire.RCodeRefused {
		t.Errorf("out-of-zone rcode = %v, want REFUSED", res.RCode)
	}
	if res.Size > 100 {
		t.Errorf("REFUSED size = %d, want tiny", res.Size)
	}
}

// TestMinimalANY: an authoritative server answers ANY for a zone that
// refuses it (RFC 8482) with a minimal response, and other types in
// full.
func TestMinimalANY(t *testing.T) {
	z, _ := testDB.Zone("facebook.com")
	if z.AllowANY {
		t.Fatal("facebook.com should refuse ANY")
	}
	r := New(addr("192.0.2.53"), Authoritative, testDB)
	r.Zones = []*zonedb.Zone{z}
	res := r.Handle("facebook.com", dnswire.TypeANY, simclock.MeasurementStart)
	if !res.Answered || !res.Minimal {
		t.Fatalf("expected a minimal ANY answer: %+v", res)
	}
	if res.Size > 200 {
		t.Errorf("minimal ANY size = %d", res.Size)
	}
	res = r.Handle("facebook.com", dnswire.TypeA, simclock.MeasurementStart)
	if res.Minimal {
		t.Error("A query should not be minimal")
	}
}

func TestWarmAndSnoopSignal(t *testing.T) {
	r := New(addr("192.0.2.1"), Recursive, testDB)
	t0 := simclock.MeasurementStart
	r.Warm("peacecorps.gov", dnswire.TypeANY, t0.Add(-600))
	res := r.Handle("peacecorps.gov", dnswire.TypeANY, t0)
	if !res.CacheHit {
		t.Fatal("warmed entry should hit")
	}
	if res.TTL >= res.DefaultTTL {
		t.Error("snooping signal lost: TTL not decremented")
	}
}

func TestWarmThroughForwarder(t *testing.T) {
	up := New(addr("192.0.2.1"), Recursive, testDB)
	fw := New(addr("198.51.100.1"), Forwarder, testDB)
	fw.Upstream = up
	fw.Warm("doj.gov", dnswire.TypeA, 0)
	if !up.Cached("doj.gov", dnswire.TypeA, 1) {
		t.Error("Warm via forwarder should populate the upstream")
	}
}

func TestAmplificationFactor(t *testing.T) {
	r := New(addr("192.0.2.1"), Recursive, testDB)
	af := r.AmplificationFactor("bigcorp.com", dnswire.TypeANY, simclock.MeasurementStart)
	// bigcorp.com ANY is ~10 kB; the query is ~40 B: expect > 100x.
	if af < 50 {
		t.Errorf("amplification factor = %v, want large", af)
	}
	small := r.AmplificationFactor("facebook.com", dnswire.TypeANY, simclock.MeasurementStart)
	if small >= af {
		t.Errorf("RFC 8482 zone amplification %v should be below %v", small, af)
	}
}

func TestProceduralNamesResolve(t *testing.T) {
	r := New(addr("192.0.2.1"), Recursive, testDB)
	res := r.Handle(testDB.ProceduralName(42), dnswire.TypeA, simclock.MeasurementStart)
	if !res.Answered || res.Size < 40 {
		t.Errorf("procedural lookup failed: %+v", res)
	}
}

func TestKindString(t *testing.T) {
	if Recursive.String() != "recursive" || Forwarder.String() != "forwarder" || Authoritative.String() != "authoritative" {
		t.Error("kind names wrong")
	}
}
