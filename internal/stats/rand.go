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
// cdf[i] >= u (capped at n-1). It starts from an estimate of that index
// and steps back while cdf[i-1] >= u, then forward while cdf[i] < u.
// cdf is non-decreasing (a running sum of positive terms divided by one
// positive constant), so those steps end on that smallest index from
// any start: draws are exactly a binary search's, and the estimate only
// sets how many steps a draw takes.
//
// Over the first m = min(n, headRanks) ranks, where u < headEnd =
// cdf[m-1], the estimate comes from a guide table (Chen and Asau's
// indexed search): head[j] is the smallest i with cdf[i] >= j/m*headEnd,
// read at u's bucket j = int(u*m/headEnd); a bucket off by the float
// rounding of that product only costs a step. The walk is bounded by
// its bucket's size, and the m buckets are equally likely, so a draw
// takes one step on average. The table and those ranks' CDF values take
// 96 KiB at most and stay in cache. With n <= headRanks every draw is
// served there (headEnd is 1).
//
// Past them, u >= headEnd, the estimate is the midpoint-rule inverse of
// the CDF from rank K = headRanks: the sum of i^-s over ranks K+1..k is
// close to the integral of x^-s from K+1/2 to k+1/2, which solved for k
// gives
//
//	k = (K+1/2)·exp(S·(u-headEnd)) - 1/2                  (s = 1)
//	k = ((K+1/2)^(1-s) + (1-s)·S·(u-headEnd))^(1/(1-s)) - 1/2
//
// with S the sum of i^-s over all n ranks. The rule's error falls like
// 1/K², so the estimate lands within a rank of the answer, and no table
// over the n ranks is built or read. At s = 1 over 200 000 ranks, 75 %
// of draws land in the head. The tables are built at construction:
// concurrent callers share a Zipf read-only.
type Zipf struct {
	cdf []float64

	head      []int32 // m+1 entries: u*headScale may round up to m
	headEnd   float64 // cdf[m-1]: head serves u < headEnd
	headScale float64 // m / headEnd

	// The tail estimate's constants: the exponent, S, K+1/2 and
	// (K+1/2)^(1-s).
	s, sum, mid, midPow float64
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
	z := indexCDF(cdf)
	z.s, z.sum = s, sum
	z.mid = float64(len(z.head)-1) + 0.5
	z.midPow = math.Pow(z.mid, 1-s)
	return z
}

// indexCDF builds the head guide over a non-decreasing CDF.
func indexCDF(cdf []float64) *Zipf {
	m := min(len(cdf), headRanks)
	z := &Zipf{cdf: cdf, headEnd: cdf[m-1]}
	z.headScale = float64(m) / z.headEnd
	z.head = guideTable(cdf[:m], m, z.headEnd)
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
	i := z.start(u)
	for i > 0 && z.cdf[i-1] >= u {
		i--
	}
	for i < len(z.cdf)-1 && z.cdf[i] < u {
		i++
	}
	return i + 1
}

// start is the index a draw of u walks from: the head guide's entry,
// or past the head the tail estimate. It stays small enough to inline
// into rank, so a head draw calls nothing.
func (z *Zipf) start(u float64) int {
	if u < z.headEnd {
		return int(z.head[int(u*z.headScale)])
	}
	return z.tailStart(u)
}

// tailStart is the tail estimate for u >= headEnd, clamped to the CDF
// (an estimate that is not a number starts at the last index).
func (z *Zipf) tailStart(u float64) int {
	x := z.sum * (u - z.headEnd)
	var k float64
	if z.s == 1 {
		k = z.mid * math.Exp(x)
	} else {
		k = math.Pow(z.midPow+(1-z.s)*x, 1/(1-z.s))
	}
	if i := k - 0.5; i >= 0 && i < float64(len(z.cdf)-1) {
		return int(i)
	}
	return len(z.cdf) - 1
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
