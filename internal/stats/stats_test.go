package stats

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// ecdfOf builds an ECDF the way product code does: a zero value fed
// with Add.
func ecdfOf(samples []float64) *ECDF {
	e := &ECDF{}
	for _, v := range samples {
		e.Add(v)
	}
	return e
}

func TestECDFBasics(t *testing.T) {
	e := ecdfOf([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if got := e.P(5); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("P(5) = %v, want 0.5", got)
	}
	if got := e.P(0); got != 0 {
		t.Errorf("P(0) = %v, want 0", got)
	}
	if got := e.P(10); got != 1 {
		t.Errorf("P(10) = %v, want 1", got)
	}
	if got := e.Quantile(0.5); got != 5 {
		t.Errorf("Quantile(0.5) = %v, want 5", got)
	}
	if got := e.Max(); got != 10 {
		t.Errorf("Max = %v, want 10", got)
	}
}

func TestECDFEmpty(t *testing.T) {
	var e ECDF
	if e.P(1) != 0 {
		t.Error("empty ECDF should return P=0")
	}
	defer func() {
		if recover() == nil {
			t.Error("Quantile on empty ECDF should panic")
		}
	}()
	e.Quantile(0.5)
}

func TestECDFAddUnsorted(t *testing.T) {
	var e ECDF
	for _, v := range []float64{9, 1, 5, 3, 7} {
		e.Add(v)
	}
	if got := e.Quantile(1); got != 9 {
		t.Errorf("max = %v, want 9", got)
	}
	if got := e.Quantile(0); got != 1 {
		t.Errorf("min = %v, want 1", got)
	}
}

func TestECDFQuantileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		e := ecdfOf(vals)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := e.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestECDFPoints(t *testing.T) {
	e := ecdfOf([]float64{1, 2, 3, 4})
	pts := e.Points(0)
	if len(pts) != 4 {
		t.Fatalf("Points(0) = %d points, want 4", len(pts))
	}
	if pts[3].Y != 1 {
		t.Errorf("last point Y = %v, want 1", pts[3].Y)
	}
	if pts[0].X != 1 {
		t.Errorf("first point X = %v, want 1", pts[0].X)
	}
	// n larger than samples clamps.
	if got := len(e.Points(100)); got != 4 {
		t.Errorf("Points(100) = %d, want 4", got)
	}
}

func TestDecileRank(t *testing.T) {
	var e ECDF
	for i := 1; i <= 100; i++ {
		e.AddInt(i)
	}
	cases := []struct {
		v    float64
		want int
	}{{1, 1}, {10, 1}, {11, 2}, {55, 6}, {100, 10}, {1000, 10}}
	for _, c := range cases {
		if got := e.DecileRank(c.v); got != c.want {
			t.Errorf("DecileRank(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestJaccard(t *testing.T) {
	a := SetOf([]string{"x", "y", "z"})
	b := SetOf([]string{"y", "z", "w"})
	if got := Jaccard(a, b); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("Jaccard = %v, want 0.5", got)
	}
	if got := Jaccard(nil, nil); got != 1 {
		t.Errorf("Jaccard(empty) = %v, want 1", got)
	}
	if got := Jaccard(a, a); got != 1 {
		t.Errorf("Jaccard(a,a) = %v, want 1", got)
	}
	if got := Jaccard(a, SetOf([]string{"q"})); got != 0 {
		t.Errorf("disjoint Jaccard = %v, want 0", got)
	}
}

func TestJaccardSymmetric(t *testing.T) {
	f := func(xs, ys []string) bool {
		a, b := SetOf(xs), SetOf(ys)
		return Jaccard(a, b) == Jaccard(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJaccardRange(t *testing.T) {
	f := func(xs, ys []string) bool {
		j := Jaccard(SetOf(xs), SetOf(ys))
		return j >= 0 && j <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMultiJaccard(t *testing.T) {
	a := SetOf([]string{"1", "2", "3"})
	b := SetOf([]string{"2", "3", "4"})
	c := SetOf([]string{"3", "4", "5"})
	// intersection {3}, union {1..5}
	if got := MultiJaccard(a, b, c); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("MultiJaccard = %v, want 0.2", got)
	}
	if got := MultiJaccard(a, a, a); got != 1 {
		t.Errorf("MultiJaccard(a,a,a) = %v, want 1", got)
	}
	if got := MultiJaccard(); got != 1 {
		t.Errorf("MultiJaccard() = %v, want 1", got)
	}
	// Two-set MultiJaccard must agree with Jaccard.
	if MultiJaccard(a, b) != Jaccard(a, b) {
		t.Error("MultiJaccard(a,b) != Jaccard(a,b)")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10)
	for _, v := range []float64{1, 5, 15, 25, 25, -3} {
		h.Observe(v)
	}
	if h.N != 6 {
		t.Fatalf("N = %d, want 6", h.N)
	}
	if h.Bins[0] != 3 { // 1, 5, clamped -3
		t.Errorf("bin0 = %d, want 3", h.Bins[0])
	}
	if h.Bins[1] != 1 || h.Bins[2] != 2 {
		t.Errorf("bins = %v", h.Bins)
	}
}

func TestHistogramPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHistogram(0,0) should panic")
		}
	}()
	NewHistogram(0, 0)
}

func TestLogBucket(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{{0, 0}, {1, 0}, {9, 0}, {10, 1}, {99, 1}, {100, 2}, {16000, 4}}
	for _, c := range cases {
		if got := LogBucket(c.v); got != c.want {
			t.Errorf("LogBucket(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestBinomialBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 10, 100, 10000, 1000000} {
		for _, p := range []float64{0, 1e-5, 0.001, 0.5, 0.999, 1} {
			k := Binomial(rng, n, p)
			if k < 0 || k > n {
				t.Fatalf("Binomial(%d,%v) = %d out of range", n, p, k)
			}
		}
	}
}

func TestBinomialMean(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// 16k packets at 1:16k sampling: mean should be ~1.
	const trials = 20000
	sum := 0
	for i := 0; i < trials; i++ {
		sum += Binomial(rng, 16000, 1.0/16384)
	}
	mean := float64(sum) / trials
	want := 16000.0 / 16384
	if math.Abs(mean-want) > 0.05 {
		t.Errorf("empirical mean %v, want ~%v", mean, want)
	}
}

func TestBinomialLargeRegime(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Normal-approximation regime: n*p large.
	const n, p, trials = 100000, 0.01, 5000
	sum := 0.0
	for i := 0; i < trials; i++ {
		sum += float64(Binomial(rng, n, p))
	}
	mean := sum / trials
	if math.Abs(mean-1000) > 10 {
		t.Errorf("mean %v, want ~1000", mean)
	}
}

func TestZipf(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	z := NewZipf(100, 1.0)
	if z.N() != 100 {
		t.Fatalf("N = %d", z.N())
	}
	counts := make(map[int]int)
	for i := 0; i < 100000; i++ {
		r := z.Draw(rng)
		if r < 1 || r > 100 {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	if counts[1] <= counts[10] {
		t.Errorf("Zipf not decreasing: rank1=%d rank10=%d", counts[1], counts[10])
	}
}

func TestPareto(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10000; i++ {
		v := Pareto(rng, 10, 1000, 1.2)
		if v < 10-1e-6 || v > 1000+1e-6 {
			t.Fatalf("Pareto out of bounds: %v", v)
		}
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	got := SampleWithoutReplacement(rng, xs, 4)
	if len(got) != 4 {
		t.Fatalf("len = %d, want 4", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatalf("duplicate element %d", v)
		}
		seen[v] = true
	}
	all := SampleWithoutReplacement(rng, xs, 99)
	if len(all) != len(xs) {
		t.Fatalf("oversample len = %d, want %d", len(all), len(xs))
	}
}

// sampleFreshIndex is SampleWithoutReplacement as it was before the
// pooled permutation, kept as the oracle: a partial Fisher-Yates over a
// fresh n-element index.
func sampleFreshIndex[T any](rng *rand.Rand, xs []T, k int) []T {
	n := len(xs)
	if k >= n {
		out := append([]T(nil), xs...)
		Shuffle(rng, out)
		return out
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	out := make([]T, 0, k)
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
		out = append(out, xs[idx[i]])
	}
	return out
}

// checkSampleMatchesFresh draws from both functions with one seed and
// fails unless the samples and the rng's next Int63 agree.
func checkSampleMatchesFresh(t *testing.T, xs []int, k int, seed int64) {
	a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	got, want := SampleWithoutReplacement(a, xs, k), sampleFreshIndex(b, xs, k)
	if !slices.Equal(got, want) {
		t.Errorf("n=%d k=%d seed=%d: sample %v, fresh index %v", len(xs), k, seed, got, want)
	}
	if x, y := a.Int63(), b.Int63(); x != y {
		t.Errorf("n=%d k=%d seed=%d: next Int63 %d, fresh index %d", len(xs), k, seed, x, y)
	}
}

// TestSampleMatchesFreshIndex holds the pooled sampler to the fresh
// index, call after call through one pool: sizes up and down (so a
// longer pooled permutation serves a shorter call), k from none to all
// but one, several seeds.
func TestSampleMatchesFreshIndex(t *testing.T) {
	for _, n := range []int{1, 2, 7, 4400, 7, 2} {
		xs := make([]int, n)
		for i := range xs {
			xs[i] = 1000 + i
		}
		for _, k := range []int{0, 1, n / 2, n - 1, n} {
			for seed := int64(1); seed <= 4; seed++ {
				checkSampleMatchesFresh(t, xs, k, seed)
			}
		}
	}
}

// TestSampleConcurrentCallers runs samplers on several goroutines at
// once over one pool (run it under -race): each call must still match
// the fresh index.
func TestSampleConcurrentCallers(t *testing.T) {
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				n := 1 + (i*37+w*11)%300
				xs := make([]int, n)
				for j := range xs {
					xs[j] = j
				}
				checkSampleMatchesFresh(t, xs, (i*13)%n, int64(w*100+i))
			}
		}()
	}
	wg.Wait()
}

func TestMeanSum(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Mean([]int{2, 4}) != 3 {
		t.Error("Mean wrong")
	}
}
