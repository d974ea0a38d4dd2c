package kmeans

import (
	"math"

	"hpa/internal/metrics"
	"hpa/internal/sparse"
	"hpa/internal/zipf"
)

// SimpleKMeans is the WEKA-analogue baseline the paper compares against
// (Section 3.1): "Using the 'SimpleKMeans' algorithm, a single-threaded
// K-Means algorithm, on the same data sets requires over 2 hours" versus
// 3.3 s / 40.9 s for the paper's implementation.
//
// WEKA itself is closed infrastructure we cannot run here, so this type
// reproduces the two cost characteristics the paper attributes the gap to,
// while keeping the mathematics identical to Clusterer:
//
//   - dense representation: every document is a full []float64 over the
//     entire vocabulary dimension, so each distance costs O(dim) rather
//     than O(nnz) — against a vocabulary of hundreds of thousands of terms
//     and ~100 non-zeros per document this alone is a ~1000x factor;
//   - no recycling: centroids, accumulators and assignment arrays are
//     freshly allocated every iteration, as WEKA's object-per-Instance
//     design does.
//
// It is deliberately single-threaded.
type SimpleKMeans struct {
	// Instances are dense document vectors, all of equal length.
	Instances [][]float64
	// Opts carries K/MaxIter/Tol/Seed; Block, DocNorms and Empty are
	// ignored (an empty cluster keeps its centroid).
	Opts Options
}

// DenseInstances materializes sparse documents as dense rows of width dim —
// the representation conversion WEKA's ARFF loader performs.
func DenseInstances(docs []sparse.Vector, dim int) [][]float64 {
	out := make([][]float64, len(docs))
	for i := range docs {
		out[i] = docs[i].ToDense(dim)
	}
	return out
}

// Run clusters the instances. The result is mathematically equivalent to
// Clusterer.Run with the same options on the sparse form of the same data.
func (s *SimpleKMeans) Run(bd *metrics.Breakdown) (*Result, error) {
	// Same validation and defaults as the optimized operator, from the one
	// shared Options.validate.
	if err := s.Opts.validate(len(s.Instances)); err != nil {
		return nil, err
	}
	if bd == nil {
		bd = metrics.NewBreakdown()
	}
	var res *Result
	bd.Time(PhaseKMeans, func() {
		res = s.run()
	})
	return res, nil
}

func (s *SimpleKMeans) run() *Result {
	n := len(s.Instances)
	dim := len(s.Instances[0])
	centroids := s.seedPlusPlus()

	assign := make([]int32, n)
	for i := range assign {
		assign[i] = -1
	}
	var history []float64
	prev := math.Inf(1)
	inertia := 0.0
	iter := 0
	converged := false
	var counts []int64

	for iter < s.Opts.MaxIter {
		// Fresh allocations every iteration — the anti-pattern under test.
		newAssign := make([]int32, n)
		sums := make([][]float64, s.Opts.K)
		for j := range sums {
			sums[j] = make([]float64, dim)
		}
		counts = make([]int64, s.Opts.K)
		inertia = 0
		changed := 0
		for i, inst := range s.Instances {
			best, bestD := int32(0), math.Inf(1)
			for j := 0; j < s.Opts.K; j++ {
				d := denseDistSq(inst, centroids[j])
				if d < bestD {
					bestD = d
					best = int32(j)
				}
			}
			newAssign[i] = best
			if assign[i] != best {
				changed++
			}
			counts[best]++
			dst := sums[best]
			for k, x := range inst {
				dst[k] += x
			}
			inertia += bestD
		}
		assign = newAssign
		next := make([][]float64, s.Opts.K)
		for j := range next {
			if counts[j] > 0 {
				next[j] = make([]float64, dim)
				inv := 1 / float64(counts[j])
				for k := range next[j] {
					next[j][k] = sums[j][k] * inv
				}
			} else {
				next[j] = append([]float64(nil), centroids[j]...)
			}
		}
		centroids = next
		iter++
		history = append(history, inertia)
		if changed == 0 || (!math.IsInf(prev, 1) && prev-inertia <= s.Opts.Tol*prev) {
			converged = true
			break
		}
		prev = inertia
	}
	return &Result{
		Assign:     assign,
		Centroids:  centroids,
		Counts:     counts,
		Inertia:    inertia,
		Iterations: iter,
		History:    history,
		Converged:  converged,
	}
}

// seedPlusPlus mirrors Clusterer.seed on dense data with the same RNG
// stream and distance expression (seed.go; dense sums only add exact
// zeros), so both implementations start from identical centroids.
func (s *SimpleKMeans) seedPlusPlus() [][]float64 {
	rng := zipf.NewRNG(s.Opts.Seed ^ 0x6b6d65616e73)
	n := len(s.Instances)
	d2 := make([]float64, n)
	norms := make([]float64, n)
	for i, inst := range s.Instances {
		d2[i] = math.Inf(1)
		norms[i] = normSq(inst)
	}
	chosen := []int{rng.Intn(n)}
	for len(chosen) < s.Opts.K {
		last := s.Instances[chosen[len(chosen)-1]]
		lastNorm := norms[chosen[len(chosen)-1]]
		total := 0.0
		for i, inst := range s.Instances {
			d := lastNorm - 2*denseDot(inst, last) + norms[i]
			if d < 0 {
				d = 0
			}
			if d < d2[i] {
				d2[i] = d
			}
			total += d2[i]
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(n)
		} else {
			r := rng.Float64() * total
			acc := 0.0
			pick = n - 1
			for i := 0; i < n; i++ {
				acc += d2[i]
				if acc >= r {
					pick = i
					break
				}
			}
		}
		chosen = append(chosen, pick)
	}
	out := make([][]float64, s.Opts.K)
	for j, idx := range chosen {
		out[j] = append([]float64(nil), s.Instances[idx]...)
	}
	return out
}

func denseDot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += float64(a[i] * b[i])
	}
	return s
}

func denseDistSq(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += float64(d * d)
	}
	return s
}
