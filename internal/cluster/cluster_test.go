package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// twoBlobs builds a distance matrix with two tight groups and some far
// outliers.
func twoBlobs() (*Dense, []int, []int, []int) {
	// points 0-9: blob A (dist 0.05 within), 10-19: blob B, 20-24: noise.
	n := 25
	m := NewDense(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var d float64
			switch {
			case i < 10 && j < 10:
				d = 0.05
			case i >= 10 && i < 20 && j >= 10 && j < 20:
				d = 0.08
			default:
				d = 0.9
			}
			m.Set(i, j, d)
		}
	}
	a := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	b := []int{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}
	noise := []int{20, 21, 22, 23, 24}
	return m, a, b, noise
}

func TestDBSCANFindsTwoClusters(t *testing.T) {
	m, a, b, noise := twoBlobs()
	labels := DBSCAN(m, 0.2, 3)
	if got := NumClusters(labels); got != 2 {
		t.Fatalf("clusters = %d, want 2 (labels %v)", got, labels)
	}
	for _, i := range a {
		if labels[i] != labels[a[0]] {
			t.Errorf("blob A split: %v", labels)
		}
	}
	for _, i := range b {
		if labels[i] != labels[b[0]] {
			t.Errorf("blob B split: %v", labels)
		}
	}
	if labels[a[0]] == labels[b[0]] {
		t.Error("blobs merged")
	}
	for _, i := range noise {
		if labels[i] != Noise {
			t.Errorf("point %d should be noise, got %d", i, labels[i])
		}
	}
	if got := NoiseShare(labels); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("noise share = %v, want 0.2", got)
	}
	sizes := make([]int, NumClusters(labels))
	for _, l := range labels {
		if l >= 0 {
			sizes[l]++
		}
	}
	if len(sizes) != 2 || sizes[0] != 10 || sizes[1] != 10 {
		t.Errorf("sizes = %v", sizes)
	}
}

func TestDBSCANAllNoise(t *testing.T) {
	n := 10
	m := NewDense(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, 1.0)
		}
	}
	labels := DBSCAN(m, 0.2, 3)
	if NumClusters(labels) != 0 {
		t.Fatalf("expected no clusters, got %v", labels)
	}
	if NoiseShare(labels) != 1 {
		t.Error("all points should be noise")
	}
}

func TestDBSCANSingleCluster(t *testing.T) {
	n := 6
	m := NewDense(n)
	// All close.
	labels := DBSCAN(m, 0.5, 3)
	if NumClusters(labels) != 1 {
		t.Fatalf("expected one cluster, got %v", labels)
	}
	if len(Members(labels, 0)) != n {
		t.Error("cluster should contain all points")
	}
}

func TestDBSCANMinPtsBoundary(t *testing.T) {
	// 3 mutually close points with minPts 4: all noise.
	n := 3
	m := NewDense(n)
	labels := DBSCAN(m, 0.5, 4)
	if NumClusters(labels) != 0 {
		t.Errorf("3 points with minPts=4 should be noise: %v", labels)
	}
	// minPts 3: one cluster.
	labels = DBSCAN(m, 0.5, 3)
	if NumClusters(labels) != 1 {
		t.Errorf("3 points with minPts=3 should cluster: %v", labels)
	}
}

func TestDBSCANEmpty(t *testing.T) {
	labels := DBSCAN(NewDense(0), 0.5, 3)
	if len(labels) != 0 {
		t.Error("empty input should yield empty labels")
	}
}

func TestDBSCANLabelsComplete(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		m := NewDense(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				m.Set(i, j, rng.Float64())
			}
		}
		labels := DBSCAN(m, 0.3, 3)
		// Every point must end with a definite label.
		for _, l := range labels {
			if l < Noise {
				return false
			}
		}
		return len(labels) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDenseSymmetry(t *testing.T) {
	m := NewDense(4)
	m.Set(1, 3, 0.7)
	if m.Dist(3, 1) != 0.7 || m.Dist(1, 3) != 0.7 {
		t.Error("Dense not symmetric")
	}
	if m.Dist(2, 2) != 0 {
		t.Error("self-distance not zero")
	}
}

func TestTSNESeparatesBlobs(t *testing.T) {
	m, a, b, _ := twoBlobs()
	cfg := DefaultTSNEConfig()
	cfg.Iterations = 200
	pts := TSNE(m, cfg)
	if len(pts) != m.Len() {
		t.Fatalf("points = %d, want %d", len(pts), m.Len())
	}
	intraA := Spread(pts, a)
	intraB := Spread(pts, b)
	// Distance between blob centroids.
	cax, cay := centroid(pts, a)
	cbx, cby := centroid(pts, b)
	inter := math.Hypot(cax-cbx, cay-cby)
	if inter < 2*intraA || inter < 2*intraB {
		t.Errorf("blobs not separated: inter=%v intraA=%v intraB=%v", inter, intraA, intraB)
	}
}

func centroid(pts []Point2, idx []int) (float64, float64) {
	var sx, sy float64
	for _, i := range idx {
		sx += pts[i].X
		sy += pts[i].Y
	}
	return sx / float64(len(idx)), sy / float64(len(idx))
}

func TestTSNEDeterministic(t *testing.T) {
	m, _, _, _ := twoBlobs()
	cfg := DefaultTSNEConfig()
	cfg.Iterations = 50
	p1 := TSNE(m, cfg)
	p2 := TSNE(m, cfg)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("t-SNE not deterministic for equal seeds")
		}
	}
}

func TestTSNEDegenerate(t *testing.T) {
	if pts := TSNE(NewDense(0), DefaultTSNEConfig()); pts != nil {
		t.Error("empty input should yield nil")
	}
	pts := TSNE(NewDense(1), DefaultTSNEConfig())
	if len(pts) != 1 {
		t.Error("single point should embed trivially")
	}
	// Two identical points must not produce NaNs.
	m := NewDense(2)
	cfg := DefaultTSNEConfig()
	cfg.Iterations = 30
	pts = TSNE(m, cfg)
	for _, p := range pts {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) {
			t.Error("NaN in embedding")
		}
	}
}

func TestTSNEPerplexityClamp(t *testing.T) {
	// Perplexity larger than n-1 must be handled.
	m, _, _, _ := twoBlobs()
	cfg := DefaultTSNEConfig()
	cfg.Perplexity = 1000
	cfg.Iterations = 20
	pts := TSNE(m, cfg)
	for _, p := range pts {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) {
			t.Fatal("NaN with oversized perplexity")
		}
	}
}

func TestSpread(t *testing.T) {
	pts := []Point2{{0, 0}, {3, 4}, {6, 8}}
	if got := Spread(pts, []int{0, 1}); math.Abs(got-5) > 1e-9 {
		t.Errorf("Spread = %v, want 5", got)
	}
	if Spread(pts, []int{0}) != 0 {
		t.Error("single-point spread should be 0")
	}
	if got := Spread(pts, []int{0, 1, 2}); math.Abs(got-20.0/3) > 1e-9 {
		t.Errorf("Spread over all three = %v, want 20/3", got)
	}
}
