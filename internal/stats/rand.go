package stats

import (
	"math"
	"math/rand"
	"sync"
)

// Binomial draws from Binomial(n, p) using rng. For large n it uses a
// normal approximation (with continuity correction) which is both accurate
// and O(1); for small n it sums Bernoulli trials exactly. This is the
// "binomial thinning" primitive behind the 1:16k sFlow sampler: instead of
// materialising n packets and sampling each, we draw how many of the n
// would have been sampled.
func Binomial(rng *rand.Rand, n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	// Exact for small n or very small expected counts.
	if n <= 64 {
		k := 0
		for i := 0; i < n; i++ {
			if rng.Float64() < p {
				k++
			}
		}
		return k
	}
	mean := float64(n) * p
	if mean < 32 {
		// Poisson-like regime: inversion by sequential search on the
		// binomial pmf is exact and fast because k stays small.
		return binomialInversion(rng, n, p)
	}
	// Normal approximation with continuity correction.
	sd := math.Sqrt(float64(n) * p * (1 - p))
	k := int(math.Round(rng.NormFloat64()*sd + mean))
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	return k
}

// binomialInversion draws Binomial(n,p) by inverting the CDF with a
// sequential pmf recurrence. Intended for n*p < ~32 where it terminates
// quickly.
func binomialInversion(rng *rand.Rand, n int, p float64) int {
	q := 1 - p
	// pmf(0) = q^n computed in log space to avoid underflow.
	logPMF := float64(n) * math.Log(q)
	pmf := math.Exp(logPMF)
	u := rng.Float64()
	k := 0
	cdf := pmf
	for u > cdf && k < n {
		// pmf(k+1) = pmf(k) * (n-k)/(k+1) * p/q
		pmf *= float64(n-k) / float64(k+1) * p / q
		k++
		cdf += pmf
		if pmf < 1e-300 { // numerical floor; tail mass negligible
			break
		}
	}
	return k
}

// Zipf draws ranks 1..n with exponent s by inverting a precomputed CDF.
// It is a small deterministic alternative to rand.Zipf that permits
// s <= 1 and re-seeding per draw site.
//
// A draw maps one rng.Float64() u to the smallest index i with
// cdf[i] >= u (capped at n-1). It finds it through a guide table (Chen
// and Asau's indexed search), not a binary search: guide[j] is the
// smallest i with cdf[i] >= j/n, so the search starts at u's bucket
// j = int(u*n) and steps back while cdf[i-1] >= u, then forward while
// cdf[i] < u. cdf is non-decreasing (a running sum of positive terms
// divided by one positive constant), so those steps end on that
// smallest index from any start, including a bucket off by the float
// rounding of u*n: draws are exactly a binary search's. The walk is
// bounded by its bucket's size, and the n buckets are equally likely,
// so a draw takes one step on average whatever the exponent.
//
// Over more than headRanks ranks, a u below cdf[headRanks-1] starts
// from a second guide table, head, over that stretch of u alone (j =
// int(u*headRanks/cdf[headRanks-1])). The answer lies in the first
// headRanks ranks, so the draw reads only head and those ranks' CDF
// values, which stay in cache where the whole guide cannot; the steps
// above make the start's exact value irrelevant to the rank. Most draws
// land there: at s = 1 over 200 000 ranks, 75 % do. The tables are
// built at construction: concurrent callers share a Zipf read-only.
type Zipf struct {
	cdf   []float64
	guide []int32 // n+1 entries: u*n may round up to n

	head      []int32 // headRanks+1 entries; nil when n <= headRanks
	headEnd   float64 // cdf[headRanks-1]: head serves u < headEnd
	headScale float64 // headRanks / headEnd
}

// headRanks is the number of ranks the head guide covers: its table and
// their CDF values take 96 KiB. It was chosen on the batch study's
// profile, where 8 192 beat 4 096, 16 384 and 65 536.
const headRanks = 8192

// NewZipf prepares a Zipf distribution over ranks 1..n with exponent s.
func NewZipf(n int, s float64) *Zipf {
	cdf := make([]float64, n)
	var sum float64
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), s)
		cdf[i-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return indexCDF(cdf)
}

// indexCDF builds the guide tables over a non-decreasing CDF.
func indexCDF(cdf []float64) *Zipf {
	z := &Zipf{cdf: cdf, guide: guideTable(cdf, len(cdf), 1)}
	if len(cdf) > headRanks {
		z.headEnd = cdf[headRanks-1]
		z.headScale = headRanks / z.headEnd
		z.head = guideTable(cdf[:headRanks], headRanks, z.headEnd)
	}
	return z
}

// guideTable returns the buckets+1 entries over cdf whose entry j is
// the smallest i with cdf[i] >= j/buckets*end, capped at len(cdf)-1.
func guideTable(cdf []float64, buckets int, end float64) []int32 {
	guide := make([]int32, buckets+1)
	i := 0
	for j := range guide {
		t := float64(j) / float64(buckets) * end
		for i < len(cdf)-1 && cdf[i] < t {
			i++
		}
		guide[j] = int32(i)
	}
	return guide
}

// Draw returns a rank in [1, n].
func (z *Zipf) Draw(rng *rand.Rand) int { return z.rank(rng.Float64()) }

// rank maps u in [0, 1) to its rank: one plus the smallest index i with
// cdf[i] >= u, capped at n.
func (z *Zipf) rank(u float64) int {
	var i int
	if u < z.headEnd {
		i = int(z.head[int(u*z.headScale)])
	} else {
		i = int(z.guide[int(u*float64(len(z.cdf)))])
	}
	for i > 0 && z.cdf[i-1] >= u {
		i--
	}
	for i < len(z.cdf)-1 && z.cdf[i] < u {
		i++
	}
	return i + 1
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }

// Pareto draws a bounded Pareto-distributed float in [lo, hi] with shape
// alpha. Used for heavy-tailed attack durations and intensities.
func Pareto(rng *rand.Rand, lo, hi, alpha float64) float64 {
	if lo <= 0 || hi <= lo {
		return lo
	}
	u := rng.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}

// Pick returns a uniformly chosen element of xs.
func Pick[T any](rng *rand.Rand, xs []T) T {
	return xs[rng.Intn(len(xs))]
}

// Shuffle permutes xs in place.
func Shuffle[T any](rng *rand.Rand, xs []T) {
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// SampleWithoutReplacement returns k distinct elements of xs chosen
// uniformly. If k >= len(xs) a shuffled copy of xs is returned.
//
// Below that it runs a partial Fisher-Yates: k swaps over a pooled
// identity permutation of xs's indices, undone before the permutation
// goes back to the pool, so a call costs O(k), not O(len(xs)).
func SampleWithoutReplacement[T any](rng *rand.Rand, xs []T, k int) []T {
	n := len(xs)
	if k >= n {
		out := append([]T(nil), xs...)
		Shuffle(rng, out)
		return out
	}
	out := make([]T, 0, k)
	p, _ := permPool.Get().(*perm)
	if p == nil {
		p = new(perm)
	}
	for i := len(p.idx); i < n; i++ {
		p.idx = append(p.idx, i)
	}
	idx, swaps := p.idx[:n], p.swaps[:0]
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
		swaps = append(swaps, j)
		out = append(out, xs[idx[i]])
	}
	for i := k - 1; i >= 0; i-- {
		j := swaps[i]
		idx[i], idx[j] = idx[j], idx[i]
	}
	p.swaps = swaps
	permPool.Put(p)
	return out
}

// permPool holds SampleWithoutReplacement's permutations.
var permPool sync.Pool // of *perm

// perm is an identity permutation (idx[i] == i whenever it is in the
// pool) and the swap list that restores it.
type perm struct {
	idx, swaps []int
}
