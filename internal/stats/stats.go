// Package stats provides the small statistical toolkit used throughout the
// reproduction: empirical CDFs, quantiles and deciles, Jaccard similarity,
// histograms, and deterministic sampling helpers.
//
// Everything here is allocation-conscious and deterministic: no global
// random state, no wall-clock reads.
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// ECDF is an empirical cumulative distribution function over float64
// samples. The zero value is an empty distribution; add samples with Add
// and call Sort (or any query method, which sorts lazily) before querying.
type ECDF struct {
	samples []float64
	sorted  bool
}

// Add appends one sample.
func (e *ECDF) Add(v float64) {
	e.samples = append(e.samples, v)
	e.sorted = false
}

// AddInt appends one integer sample.
func (e *ECDF) AddInt(v int) { e.Add(float64(v)) }

// Len reports the number of samples.
func (e *ECDF) Len() int { return len(e.samples) }

// Sort orders the underlying samples; queries call it implicitly.
func (e *ECDF) Sort() {
	if !e.sorted {
		slices.Sort(e.samples)
		e.sorted = true
	}
}

// P returns the fraction of samples <= v, i.e. F(v). It returns 0 for an
// empty distribution.
func (e *ECDF) P(v float64) float64 {
	if len(e.samples) == 0 {
		return 0
	}
	e.Sort()
	idx := sort.SearchFloat64s(e.samples, math.Nextafter(v, math.Inf(1)))
	return float64(idx) / float64(len(e.samples))
}

// Quantile returns the q-quantile (0 <= q <= 1) using the nearest-rank
// method. It panics if the distribution is empty or q is out of range.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.samples) == 0 {
		panic("stats: Quantile of empty ECDF")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of [0,1]", q))
	}
	e.Sort()
	if q == 0 {
		return e.samples[0]
	}
	rank := int(math.Ceil(q*float64(len(e.samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(e.samples) {
		rank = len(e.samples) - 1
	}
	return e.samples[rank]
}

// Max returns the largest sample.
func (e *ECDF) Max() float64 { return e.Quantile(1) }

// Points returns up to n evenly spaced (x, F(x)) pairs suitable for
// plotting the CDF. With n <= 0 every distinct sample is emitted.
func (e *ECDF) Points(n int) []Point {
	e.Sort()
	m := len(e.samples)
	if m == 0 {
		return nil
	}
	if n <= 0 || n > m {
		n = m
	}
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		idx := (i + 1) * m / n
		if idx > m {
			idx = m
		}
		x := e.samples[idx-1]
		pts = append(pts, Point{X: x, Y: float64(idx) / float64(m)})
	}
	return pts
}

// Point is a generic (x, y) pair used by plotting-oriented outputs.
type Point struct {
	X, Y float64
}

// DecileRank maps a value to its decile rank 1..10 within the
// distribution: the decile of the smallest samples is 1, of the largest 10.
func (e *ECDF) DecileRank(v float64) int {
	p := e.P(v)
	d := int(math.Ceil(p * 10))
	if d < 1 {
		d = 1
	}
	if d > 10 {
		d = 10
	}
	return d
}

// Jaccard returns the Jaccard index |a∩b| / |a∪b| of two string sets.
// Two empty sets have index 1 by convention.
func Jaccard(a, b map[string]bool) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for k := range a {
		if b[k] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// JaccardDistance returns 1 - Jaccard(a, b).
func JaccardDistance(a, b map[string]bool) float64 { return 1 - Jaccard(a, b) }

// SetOf builds a set from a slice.
func SetOf(items []string) map[string]bool {
	s := make(map[string]bool, len(items))
	for _, it := range items {
		s[it] = true
	}
	return s
}

// MultiJaccard returns the Jaccard index of the intersection and union of
// k >= 2 sets: |∩ sets| / |∪ sets|. It is the "selector consensus" metric
// from §4.1 of the paper.
func MultiJaccard(sets ...map[string]bool) float64 {
	if len(sets) == 0 {
		return 1
	}
	union := make(map[string]bool)
	for _, s := range sets {
		for k := range s {
			union[k] = true
		}
	}
	if len(union) == 0 {
		return 1
	}
	inter := 0
outer:
	for k := range union {
		for _, s := range sets {
			if !s[k] {
				continue outer
			}
		}
		inter++
	}
	return float64(inter) / float64(len(union))
}

// Histogram accumulates integer-valued observations into fixed-width bins
// starting at Origin. Bin i covers [Origin + i*Width, Origin + (i+1)*Width).
type Histogram struct {
	Origin float64
	Width  float64
	Bins   []int
	N      int
}

// NewHistogram returns a histogram with the given origin and bin width.
// Width must be positive.
func NewHistogram(origin, width float64) *Histogram {
	if width <= 0 {
		panic("stats: histogram width must be positive")
	}
	return &Histogram{Origin: origin, Width: width}
}

// Observe adds one observation, growing the bin slice as needed. Values
// below Origin are clamped into the first bin.
func (h *Histogram) Observe(v float64) {
	idx := int(math.Floor((v - h.Origin) / h.Width))
	if idx < 0 {
		idx = 0
	}
	for len(h.Bins) <= idx {
		h.Bins = append(h.Bins, 0)
	}
	h.Bins[idx]++
	h.N++
}

// LogBuckets assigns v to a logarithmic bucket: 0 for v<=1, otherwise
// floor(log10(v)). Used for the log-scale scatter summaries (Figs. 4, 10).
func LogBucket(v float64) int {
	if v <= 1 {
		return 0
	}
	return int(math.Floor(math.Log10(v)))
}

// Mean returns the arithmetic mean of ints.
func Mean(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}
