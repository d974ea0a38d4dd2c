package kmeans

import (
	"math"

	"hpa/internal/sparse"
)

// Predict returns the index of the centroid nearest to v — classification
// of unseen documents against a trained clustering.
func (r *Result) Predict(v *sparse.Vector) int32 {
	best, bestD := int32(0), math.Inf(1)
	vn := v.NormSq()
	for j := range r.Centroids {
		cn := 0.0
		for _, x := range r.Centroids[j] {
			cn += float64(x * x)
		}
		d := cn - 2*sparse.DotDense(v, r.Centroids[j]) + vn
		if d < bestD {
			bestD = d
			best = int32(j)
		}
	}
	return best
}

// TopTerms returns, for each cluster, the indices of the w heaviest
// centroid components in decreasing weight order — the terms that
// characterize the cluster when the input was a TF/IDF matrix.
func (r *Result) TopTerms(w int) [][]uint32 {
	out := make([][]uint32, len(r.Centroids))
	for j, c := range r.Centroids {
		out[j] = topIndices(c, w)
	}
	return out
}

// topIndices selects the w largest components by partial selection.
func topIndices(c []float64, w int) []uint32 {
	if w <= 0 {
		return nil
	}
	type iw struct {
		i uint32
		v float64
	}
	best := make([]iw, 0, w)
	for i, v := range c {
		if v <= 0 {
			continue
		}
		if len(best) < w {
			best = append(best, iw{uint32(i), v})
			// Sift up into sorted (ascending by v) order.
			for k := len(best) - 1; k > 0 && best[k].v < best[k-1].v; k-- {
				best[k], best[k-1] = best[k-1], best[k]
			}
			continue
		}
		if v <= best[0].v {
			continue
		}
		best[0] = iw{uint32(i), v}
		for k := 0; k < len(best)-1 && best[k].v > best[k+1].v; k++ {
			best[k], best[k+1] = best[k+1], best[k]
		}
	}
	out := make([]uint32, len(best))
	for k := range best {
		out[len(best)-1-k] = best[k].i // descending
	}
	return out
}
