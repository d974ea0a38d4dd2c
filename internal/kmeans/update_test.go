package kmeans

import (
	"math"
	"slices"
	"testing"

	"hpa/internal/par"
	"hpa/internal/sparse"
	"hpa/internal/zipf"
)

// churnDocs generates n sparse documents in dim dimensions with no cluster
// structure — about half the components zero, the rest uniform — so
// K-Means keeps moving a few documents between neighbouring clusters for
// many iterations, and clusters settle at different times.
func churnDocs(n, dim int, seed uint64) []sparse.Vector {
	rng := zipf.NewRNG(seed)
	docs := make([]sparse.Vector, n)
	for i := range docs {
		for d := 0; d < dim; d++ {
			if rng.Float64() < 0.5 {
				docs[i].Append(uint32(d), rng.Float64())
			}
		}
	}
	return docs
}

// fullUpdate is the reference the skip is checked against: the update as
// it ran before unchanged clusters were skipped — every non-empty
// cluster's centroid cleared, summed over its members in ascending
// document order and scaled by 1/count, then, under ReseedFarthest, every
// empty cluster moved onto the farthest document. It updates cents, norms
// and dists in place and returns the members of every cluster and which
// clusters it reseeded.
func fullUpdate(docs []sparse.Vector, assign []int32, dists []float64, cents [][]float64, norms []float64,
	empty EmptyPolicy) (members [][]int32, reseeded []bool) {
	k := len(cents)
	members = make([][]int32, k)
	for i, a := range assign {
		members[a] = append(members[a], int32(i))
	}
	for j, ms := range members {
		if len(ms) == 0 {
			continue
		}
		clear(cents[j])
		for _, i := range ms {
			for e, idx := range docs[i].Idx {
				cents[j][idx] += docs[i].Val[e]
			}
		}
		inv := 1 / float64(len(ms))
		for d := range cents[j] {
			cents[j][d] *= inv
		}
		norms[j] = normSq(cents[j])
	}
	reseeded = make([]bool, k)
	if empty != ReseedFarthest {
		return members, reseeded
	}
	for j, ms := range members {
		if len(ms) > 0 {
			continue
		}
		far, farD := -1, -1.0
		for i, d := range dists {
			if d > farD {
				far, farD = i, d
			}
		}
		if far < 0 || farD <= 0 {
			continue
		}
		copyInto(cents[j], &docs[far], len(cents[j]))
		norms[j] = normSq(cents[j])
		dists[far] = 0
		reseeded[j] = true
	}
	return members, reseeded
}

// TestUpdateSkipsOnlyUnchangedClusters: recomputing only the clusters whose
// member set changed gives, after every iteration of a churning
// clustering, exactly the centroid and norm bits the full recompute gives
// — and the blocked layout's dots the bits of a fresh transpose — while
// the centroids it rewrites are exactly the changed non-empty clusters
// plus the reseeded ones, no more and no fewer.
func TestUpdateSkipsOnlyUnchangedClusters(t *testing.T) {
	const n, dim, k = 600, 10, 12
	for _, tc := range []struct {
		name     string
		coincide bool // start seeds 1..3 on seed 0, so their clusters start empty
		opts     Options
	}{
		{"keep", false, Options{K: k, Seed: 7, MaxIter: 60, Tol: 1e-15}},
		{"keep-empty", true, Options{K: k, Seed: 7, MaxIter: 60, Tol: 1e-15}},
		{"reseed", true, Options{K: k, Seed: 5, MaxIter: 60, Tol: 1e-15, Empty: ReseedFarthest}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			docs := churnDocs(n, dim, 11)
			p := par.NewPool(2)
			defer p.Close()
			c, err := New(docs, dim, p, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if tc.coincide {
				// Seed 0 wins every tie, so clusters 1..3 start empty: the
				// first update reseeds them or, under KeepCentroid, leaves
				// them where they are until the moving centroids hand them
				// members.
				for j := 1; j <= 3; j++ {
					copy(c.centroids[j], c.centroids[0])
					c.cnorms[j] = c.cnorms[0]
				}
				c.layout.Fill(c.centroids)
			}
			cents := make([][]float64, k)
			for j := range cents {
				cents[j] = slices.Clone(c.centroids[j])
			}
			norms := slices.Clone(c.cnorms)
			prev := make([][]int32, k)
			accs := []*Accum{c.NewAccum(), c.NewAccum()}
			var rewritten, recomputed, reseeds int
			for !c.Done() {
				for q, a := range accs {
					a.Reset()
					c.AssignShard(n*q/2, n*(q+1)/2, a)
				}
				assign, dists := slices.Clone(c.assign), slices.Clone(c.dists)
				c.EndIteration(accs)
				members, reseeded := fullUpdate(docs, assign, dists, cents, norms, tc.opts.Empty)
				iter := c.Iterations()
				for j := range cents {
					if math.Float64bits(c.cnorms[j]) != math.Float64bits(norms[j]) {
						t.Fatalf("iteration %d: centroid %d norm %v, full recompute %v", iter, j, c.cnorms[j], norms[j])
					}
					for d := range cents[j] {
						if math.Float64bits(c.centroids[j][d]) != math.Float64bits(cents[j][d]) {
							t.Fatalf("iteration %d: centroid %d[%d] = %v, full recompute %v",
								iter, j, d, c.centroids[j][d], cents[j][d])
						}
					}
					changed := len(members[j]) > 0 && !slices.Equal(members[j], prev[j])
					if want := changed || reseeded[j]; c.Updated()[j] != want {
						t.Fatalf("iteration %d: cluster %d marked updated=%v; member set changed=%v, reseeded=%v",
							iter, j, c.Updated()[j], changed, reseeded[j])
					}
					if changed {
						recomputed++
					}
					if reseeded[j] {
						reseeds++
					}
				}
				for _, u := range c.Updated() {
					if u {
						rewritten++
					}
				}
				fresh := sparse.NewBlockLayout(k, dim, c.layout.BlockSize())
				fresh.Fill(c.centroids)
				got, want := DotScratch(k), DotScratch(k)
				for i := range docs {
					c.layout.DotsInto(&docs[i], got)
					fresh.DotsInto(&docs[i], want)
					for j := 0; j < k; j++ {
						if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
							t.Fatalf("iteration %d: document %d's dot with centroid %d is %v on the refilled layout, %v on a fresh one",
								iter, i, j, got[j], want[j])
						}
					}
				}
				prev = members
			}
			// The exact count: the update rewrote one centroid per changed
			// non-empty member set plus one per reseed, and nothing else.
			if rewritten != recomputed+reseeds {
				t.Fatalf("%d centroids rewritten, want %d changed member sets + %d reseeds", rewritten, recomputed, reseeds)
			}
			total := k * c.Iterations()
			t.Logf("%d iterations: %d of %d centroid updates recomputed, %d reseeds", c.Iterations(), recomputed, total, reseeds)
			if c.Iterations() < 8 || rewritten == total {
				t.Fatalf("%d iterations, %d of %d centroids rewritten: the corpus does not churn long enough to test the skip",
					c.Iterations(), rewritten, total)
			}
			if tc.opts.Empty == ReseedFarthest && reseeds == 0 {
				t.Fatal("no cluster was reseeded: the reseed case tests nothing")
			}
		})
	}
}
