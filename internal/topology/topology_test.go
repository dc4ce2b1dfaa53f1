package topology

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func testTopo() *Topology {
	return Generate(Config{Members: 20, ASesPerClass: 30, Seed: 42})
}

func TestGenerateCounts(t *testing.T) {
	topo := testTopo()
	if len(topo.Members) != 20 {
		t.Fatalf("members = %d, want 20", len(topo.Members))
	}
	// 20 members + 6 classes * 30.
	if len(topo.ASes) != 20+6*30 {
		t.Fatalf("ASes = %d, want %d", len(topo.ASes), 20+6*30)
	}
	for _, m := range topo.Members {
		if !topo.ASes[m].IXPMember {
			t.Errorf("member %d not flagged", m)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := Generate(Config{Members: 10, ASesPerClass: 5, Seed: 7})
	b := Generate(Config{Members: 10, ASesPerClass: 5, Seed: 7})
	if len(a.ASes) != len(b.ASes) {
		t.Fatal("AS count differs")
	}
	for asn, as1 := range a.ASes {
		as2, ok := b.ASes[asn]
		if !ok {
			t.Fatalf("ASN %d missing in second run", asn)
		}
		if len(as1.Prefixes) != len(as2.Prefixes) || as1.Transit != as2.Transit {
			t.Fatalf("ASN %d differs between runs", asn)
		}
		for i := range as1.Prefixes {
			if as1.Prefixes[i] != as2.Prefixes[i] {
				t.Fatalf("ASN %d prefix %d differs", asn, i)
			}
		}
	}
}

func TestOriginASRoundTrip(t *testing.T) {
	topo := testTopo()
	rng := rand.New(rand.NewSource(5))
	for asn := range topo.ASes {
		addr, ok := topo.RandomAddrIn(rng, asn)
		if !ok {
			t.Fatalf("no address for AS%d", asn)
		}
		if got := topo.OriginAS(addr); got != asn {
			t.Errorf("OriginAS(%v) = %d, want %d", addr, got, asn)
		}
	}
}

func TestOriginASUnknown(t *testing.T) {
	topo := testTopo()
	if got := topo.OriginAS(netip.MustParseAddr("8.8.8.8")); got != 0 {
		t.Errorf("unallocated space mapped to AS%d", got)
	}
	if got := topo.OriginAS(netip.MustParseAddr("2001:db8::1")); got != 0 {
		t.Errorf("IPv6 mapped to AS%d", got)
	}
}

func TestPeerHop(t *testing.T) {
	topo := testTopo()
	rng := rand.New(rand.NewSource(6))
	memberSet := map[uint32]bool{}
	for _, m := range topo.Members {
		memberSet[m] = true
	}
	for asn, as := range topo.ASes {
		addr, _ := topo.RandomAddrIn(rng, asn)
		hop := topo.PeerHopAS(addr)
		if !memberSet[hop] {
			t.Fatalf("peer hop %d of AS%d is not a member", hop, asn)
		}
		if as.IXPMember && hop != asn {
			t.Errorf("member %d should be its own hop, got %d", asn, hop)
		}
		if !as.IXPMember && hop != as.Transit {
			t.Errorf("AS%d hop %d != transit %d", asn, hop, as.Transit)
		}
	}
}

func TestConeSizes(t *testing.T) {
	topo := testTopo()
	total := 0
	for _, m := range topo.Members {
		total += topo.ConeSize(m)
	}
	if total != len(topo.ASes) {
		t.Errorf("cone sizes sum to %d, want %d (every AS in exactly one cone)", total, len(topo.ASes))
	}
}

func TestPrefixesDisjoint(t *testing.T) {
	topo := testTopo()
	var all []netip.Prefix
	for _, as := range topo.ASes {
		all = append(all, as.Prefixes...)
	}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if all[i].Overlaps(all[j]) {
				t.Fatalf("prefixes overlap: %v and %v", all[i], all[j])
			}
		}
	}
}

func TestASesOfType(t *testing.T) {
	topo := testTopo()
	access := topo.ASesOfType(ASAccess)
	if len(access) == 0 {
		t.Fatal("no access ASes")
	}
	for _, asn := range access {
		if topo.ASes[asn].Type != ASAccess {
			t.Errorf("AS%d wrong type", asn)
		}
	}
	// Sorted?
	for i := 1; i < len(access); i++ {
		if access[i-1] >= access[i] {
			t.Fatal("ASesOfType not sorted")
		}
	}
}

func TestRandomAddrInBounds(t *testing.T) {
	topo := testTopo()
	rng := rand.New(rand.NewSource(9))
	f := func(pick uint16) bool {
		asns := make([]uint32, 0, len(topo.ASes))
		for asn := range topo.ASes {
			asns = append(asns, asn)
		}
		asn := asns[int(pick)%len(asns)]
		addr, ok := topo.RandomAddrIn(rng, asn)
		if !ok {
			return false
		}
		for _, p := range topo.ASes[asn].Prefixes {
			if p.Contains(addr) {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRandomAddrInMissing(t *testing.T) {
	topo := testTopo()
	rng := rand.New(rand.NewSource(1))
	if _, ok := topo.RandomAddrIn(rng, 999999); ok {
		t.Error("expected failure for unknown ASN")
	}
}

func TestPrefixHelpers(t *testing.T) {
	a := netip.MustParseAddr("11.22.33.44")
	if Prefix24(a).String() != "11.22.33.0/24" {
		t.Errorf("Prefix24 = %v", Prefix24(a))
	}
}

func TestLongestPrefixMatchPrecedence(t *testing.T) {
	rt := newRouteTable()
	rt.insert(netip.MustParsePrefix("11.0.0.0/8"), 100)
	rt.insert(netip.MustParsePrefix("11.1.0.0/16"), 200)
	rt.insert(netip.MustParsePrefix("11.1.1.0/24"), 300)
	cases := []struct {
		addr string
		want uint32
	}{
		{"11.1.1.5", 300},
		{"11.1.2.5", 200},
		{"11.2.0.1", 100},
		{"12.0.0.1", 0},
	}
	for _, c := range cases {
		if got := rt.lookup(netip.MustParseAddr(c.addr)); got != c.want {
			t.Errorf("lookup(%s) = %d, want %d", c.addr, got, c.want)
		}
	}
}

func TestASTypeString(t *testing.T) {
	if ASAccess.String() != "access" || ASTransit.String() != "transit" {
		t.Error("type names wrong")
	}
}
