// Package cluster implements the two clustering algorithms the paper
// uses for the bilateral amplifier-set analysis of §7.1 (Fig. 14):
// DBSCAN (Ester et al., KDD 1996) and t-SNE (van der Maaten & Hinton,
// JMLR 2008), both from scratch over precomputed distance matrices.
package cluster

// Noise is the label DBSCAN assigns to non-classifiable points.
const Noise = -1

// DistanceMatrix is a symmetric pairwise distance lookup.
type DistanceMatrix interface {
	Len() int
	Dist(i, j int) float64
}

// Dense is an in-memory DistanceMatrix.
type Dense struct {
	N int
	D []float64 // row-major N×N
}

// NewDense allocates an N×N matrix.
func NewDense(n int) *Dense { return &Dense{N: n, D: make([]float64, n*n)} }

// Set stores a symmetric distance.
func (m *Dense) Set(i, j int, d float64) {
	m.D[i*m.N+j] = d
	m.D[j*m.N+i] = d
}

// Len implements DistanceMatrix.
func (m *Dense) Len() int { return m.N }

// Dist implements DistanceMatrix.
func (m *Dense) Dist(i, j int) float64 { return m.D[i*m.N+j] }

// DBSCAN clusters points by density: a core point has at least minPts
// neighbours within eps; clusters are maximal sets of density-connected
// points. Labels are 0..k-1, or Noise. The implementation is the
// classic region-growing formulation with an explicit seed queue.
func DBSCAN(m DistanceMatrix, eps float64, minPts int) []int {
	n := m.Len()
	labels := make([]int, n)
	for i := range labels {
		labels[i] = -2 // unvisited
	}
	neighbours := func(p int) []int {
		var out []int
		for q := 0; q < n; q++ {
			if q != p && m.Dist(p, q) <= eps {
				out = append(out, q)
			}
		}
		return out
	}
	next := 0
	for p := 0; p < n; p++ {
		if labels[p] != -2 {
			continue
		}
		nb := neighbours(p)
		if len(nb)+1 < minPts {
			labels[p] = Noise
			continue
		}
		cid := next
		next++
		labels[p] = cid
		queue := append([]int(nil), nb...)
		for len(queue) > 0 {
			q := queue[0]
			queue = queue[1:]
			if labels[q] == Noise {
				labels[q] = cid // border point
			}
			if labels[q] != -2 {
				continue
			}
			labels[q] = cid
			qnb := neighbours(q)
			if len(qnb)+1 >= minPts {
				queue = append(queue, qnb...)
			}
		}
	}
	return labels
}

// NumClusters returns the number of clusters in a label vector.
func NumClusters(labels []int) int {
	max := -1
	for _, l := range labels {
		if l > max {
			max = l
		}
	}
	return max + 1
}

// NoiseShare returns the fraction of points labelled Noise (the paper
// reports ~92% outliers).
func NoiseShare(labels []int) float64 {
	if len(labels) == 0 {
		return 0
	}
	n := 0
	for _, l := range labels {
		if l == Noise {
			n++
		}
	}
	return float64(n) / float64(len(labels))
}

// Members returns the point indices of one cluster.
func Members(labels []int, id int) []int {
	var out []int
	for i, l := range labels {
		if l == id {
			out = append(out, i)
		}
	}
	return out
}
