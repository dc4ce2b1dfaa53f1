package stats

import (
	"math"
	"math/rand"
	"testing"
)

// searchRank is the binary search Zipf.Draw used before the guide
// table, kept as the reference: one plus the smallest index i with
// cdf[i] >= u, capped at n.
func searchRank(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// TestZipfMatchesBinarySearch holds the guided search to the binary
// search at every place they could part: each CDF value and its float
// neighbours (where cdf[i] >= u flips; cdf[headRanks-1] is where the
// head guide hands over to the tail estimate), each head bucket edge,
// a grid of n points, and both ends of [0, 1). Past the head it also
// bounds the walk: at every exponent probed, among them the two the
// generator draws with (s = 1 for names, 1.05 for clients), the tail
// estimate starts at most one index from the answer.
//
// One thinning keeps it fast. A head draw walks its bucket, and buckets
// are equally likely, so a draw costs one step on average; but probing
// every entry of a crowded bucket costs the square of its size, and at
// s = 2, n = 8 192 the last bucket holds thousands of ranks. CDF values
// more than 4 096 entries past their walk's start are probed every
// 512th entry.
func TestZipfMatchesBinarySearch(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 3600, headRanks, headRanks + 1, 120_000, 200_000} {
		for _, s := range []float64{0.5, 1, 1.05, 2} {
			z := NewZipf(n, s)
			probes := []float64{0, 1 - 0x1p-53}
			for i, c := range z.cdf {
				if walk := i - z.start(c); walk > 4096 && i%512 != 0 {
					continue
				}
				probes = append(probes, c, math.Nextafter(c, 0), math.Nextafter(c, 2))
			}
			for j := range n {
				probes = append(probes, float64(j)/float64(n))
			}
			for j := range len(z.head) {
				u := float64(j) / float64(len(z.head)-1) * z.headEnd
				probes = append(probes, u, math.Nextafter(u, 0), math.Nextafter(u, 2))
			}
			for _, u := range probes {
				if u < 0 || u >= 1 {
					continue // rng.Float64 never returns these
				}
				want := searchRank(z.cdf, u)
				if got := z.rank(u); got != want {
					t.Fatalf("n=%d s=%v u=%v: rank %d, binary search %d", n, s, u, got, want)
				}
				if d := z.start(u) - (want - 1); u >= z.headEnd && (d < -1 || d > 1) {
					t.Fatalf("n=%d s=%v u=%v: tail estimate %d indices from the answer %d", n, s, u, d, want-1)
				}
			}
		}
	}
}

// TestZipfRoundingStepsBack covers a probe no Zipf table above meets:
// u just below 5/6 with u*6 rounding up to 5, so the search starts in
// the next bucket, past a CDF value equal to u. Only the step back
// finds it.
func TestZipfRoundingStepsBack(t *testing.T) {
	u := math.Nextafter(5.0/6, 0)
	if int(u*6) != 5 {
		t.Fatalf("u*6 = %v no longer rounds up to 5", u*6)
	}
	z := indexCDF([]float64{u, u, u, u, u, 1})
	if got, want := z.rank(u), searchRank(z.cdf, u); got != want {
		t.Fatalf("rank %d, binary search %d", got, want)
	}
}

// FuzzZipf compares the guided search with the binary search at fuzzed
// sizes, exponents and draws. Seeds include the hand-over from the head
// guide to the tail estimate (u at cdf[headRanks-1] and its float
// neighbours) at s = 1 and s != 1, and the smallest Zipf with a tail,
// n = headRanks+1, whose tail is its last rank.
func FuzzZipf(f *testing.F) {
	f.Add(uint16(7), 1.0, 0.5)
	f.Add(uint16(3600), 1.05, 0.999)
	f.Add(uint16(0), 2.0, 0.0)
	for _, n := range []int{20_000, headRanks + 1} {
		for _, s := range []float64{1.0, 0.5, 1.05, 2} {
			end := NewZipf(n, s).headEnd
			for _, u := range []float64{end, math.Nextafter(end, 0), math.Nextafter(end, 2)} {
				f.Add(uint16(n-1), s, u)
			}
		}
	}
	f.Add(uint16(headRanks), 1.05, 1-0x1p-53)
	f.Fuzz(func(t *testing.T, n uint16, s, u float64) {
		if math.IsNaN(s) || math.IsInf(s, 0) || math.IsNaN(u) || math.IsInf(u, 0) {
			t.Skip()
		}
		s = math.Mod(math.Abs(s), 4)
		u = math.Abs(math.Mod(u, 1))
		z := NewZipf(int(n)+1, s)
		if got, want := z.rank(u), searchRank(z.cdf, u); got != want {
			t.Fatalf("n=%d s=%v u=%v: rank %d, binary search %d", int(n)+1, s, u, got, want)
		}
	})
}

// BenchmarkZipfDraw is one draw from the generator's two Zipf tables:
// the background name Zipf (200 000 ranks, s = 1) and the client Zipf
// at scale 0.03 (3 600 ranks, s = 1.05).
func BenchmarkZipfDraw(b *testing.B) {
	for _, c := range []struct {
		name string
		n    int
		s    float64
	}{{"names", 200_000, 1.0}, {"clients", 3600, 1.05}} {
		b.Run(c.name, func(b *testing.B) {
			z := NewZipf(c.n, c.s)
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for range b.N {
				z.Draw(rng)
			}
		})
	}
}
