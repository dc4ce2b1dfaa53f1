package cluster

import (
	"math"
	"math/rand"
)

// TSNEConfig tunes the embedding.
type TSNEConfig struct {
	// Perplexity balances local/global structure (the paper reports
	// stable results across perplexities).
	Perplexity float64
	// Iterations of gradient descent.
	Iterations int
}

// DefaultTSNEConfig returns a configuration adequate for a few thousand
// points.
func DefaultTSNEConfig() TSNEConfig {
	return TSNEConfig{Perplexity: 30, Iterations: 300}
}

const (
	// learningRate is the gradient descent's step size (eta).
	learningRate float64 = 20
	// tsneSeed seeds the initial layout.
	tsneSeed = 4
)

// Point2 is one embedded point.
type Point2 struct{ X, Y float64 }

// TSNE embeds the points of a distance matrix into 2D using exact
// t-distributed stochastic neighbour embedding: Gaussian input
// affinities calibrated per point to the target perplexity via binary
// search, Student-t output affinities, KL-divergence gradient descent
// with momentum and early exaggeration.
func TSNE(m DistanceMatrix, cfg TSNEConfig) []Point2 {
	n := m.Len()
	if n == 0 {
		return nil
	}
	if n == 1 {
		return []Point2{{}}
	}
	rng := rand.New(rand.NewSource(tsneSeed))

	// Symmetrized input affinities P.
	P := inputAffinities(m, cfg.Perplexity)

	// Initial layout: small Gaussian.
	Y := make([]Point2, n)
	for i := range Y {
		Y[i] = Point2{rng.NormFloat64() * 1e-2, rng.NormFloat64() * 1e-2}
	}
	vel := make([]Point2, n)
	grad := make([]Point2, n)

	const earlyExagIters = 50
	for iter := 0; iter < cfg.Iterations; iter++ {
		exag := 1.0
		if iter < earlyExagIters {
			exag = 4.0
		}
		momentum := 0.5
		if iter >= 100 {
			momentum = 0.8
		}

		// Output affinities Q (unnormalized numerators) and their sum.
		var qsum float64
		num := make([]float64, n*n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				dx := Y[i].X - Y[j].X
				dy := Y[i].Y - Y[j].Y
				q := 1 / (1 + dx*dx + dy*dy)
				num[i*n+j] = q
				num[j*n+i] = q
				qsum += 2 * q
			}
		}
		if qsum < 1e-12 {
			qsum = 1e-12
		}

		// Gradient of KL(P||Q).
		for i := 0; i < n; i++ {
			grad[i] = Point2{}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				p := exag * P[i*n+j]
				q := num[i*n+j] / qsum
				mult := 4 * (p - q) * num[i*n+j]
				grad[i].X += mult * (Y[i].X - Y[j].X)
				grad[i].Y += mult * (Y[i].Y - Y[j].Y)
			}
		}
		for i := 0; i < n; i++ {
			vel[i].X = momentum*vel[i].X - learningRate*grad[i].X
			vel[i].Y = momentum*vel[i].Y - learningRate*grad[i].Y
			Y[i].X += vel[i].X
			Y[i].Y += vel[i].Y
		}
	}
	return Y
}

// inputAffinities computes symmetrized, normalized P from distances,
// calibrating each row's Gaussian bandwidth to the target perplexity.
func inputAffinities(m DistanceMatrix, perplexity float64) []float64 {
	n := m.Len()
	if perplexity > float64(n-1) {
		perplexity = float64(n-1) / 3
		if perplexity < 1 {
			perplexity = 1
		}
	}
	logU := math.Log(perplexity)
	P := make([]float64, n*n)
	row := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := m.Dist(i, j)
			row[j] = d * d
		}
		beta := 1.0
		betaMin, betaMax := math.Inf(-1), math.Inf(1)
		var pi []float64
		for tries := 0; tries < 50; tries++ {
			pi = rowAffinities(row, i, beta)
			h := entropyOf(pi)
			diff := h - logU
			if math.Abs(diff) < 1e-4 {
				break
			}
			if diff > 0 { // entropy too high -> narrow the Gaussian
				betaMin = beta
				if math.IsInf(betaMax, 1) {
					beta *= 2
				} else {
					beta = (beta + betaMax) / 2
				}
			} else {
				betaMax = beta
				if math.IsInf(betaMin, -1) {
					beta /= 2
				} else {
					beta = (beta + betaMin) / 2
				}
			}
		}
		copy(P[i*n:(i+1)*n], pi)
	}
	// Symmetrize and normalize.
	total := 0.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := (P[i*n+j] + P[j*n+i]) / 2
			P[i*n+j], P[j*n+i] = v, v
			total += 2 * v
		}
		P[i*n+i] = 0
	}
	if total < 1e-12 {
		total = 1e-12
	}
	for k := range P {
		P[k] /= total
		if P[k] < 1e-12 {
			P[k] = 1e-12
		}
	}
	return P
}

// rowAffinities computes conditional probabilities p_{j|i} for one row
// under bandwidth beta (precision).
func rowAffinities(sqDist []float64, i int, beta float64) []float64 {
	n := len(sqDist)
	out := make([]float64, n)
	var sum float64
	for j := 0; j < n; j++ {
		if j == i {
			continue
		}
		v := math.Exp(-sqDist[j] * beta)
		out[j] = v
		sum += v
	}
	if sum < 1e-300 {
		sum = 1e-300
	}
	for j := range out {
		out[j] /= sum
	}
	return out
}

// entropyOf returns the Shannon entropy (nats) of a probability row.
func entropyOf(p []float64) float64 {
	var h float64
	for _, v := range p {
		if v > 1e-300 {
			h -= v * math.Log(v)
		}
	}
	return h
}

// Spread measures the mean pairwise embedded distance of a point subset;
// used to verify that similar attacks land near each other.
func Spread(pts []Point2, idx []int) float64 {
	if len(idx) < 2 {
		return 0
	}
	var sum float64
	cnt := 0
	for a := 0; a < len(idx); a++ {
		for b := a + 1; b < len(idx); b++ {
			dx := pts[idx[a]].X - pts[idx[b]].X
			dy := pts[idx[a]].Y - pts[idx[b]].Y
			sum += math.Hypot(dx, dy)
			cnt++
		}
	}
	return sum / float64(cnt)
}
