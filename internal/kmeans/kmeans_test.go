package kmeans

import (
	"fmt"
	"math"
	"testing"

	"hpa/internal/metrics"
	"hpa/internal/par"
	"hpa/internal/sparse"
	"hpa/internal/zipf"
)

// blobs generates n sparse points in dim dimensions grouped around k
// well-separated centers, for tests where the correct clustering is
// unambiguous.
func blobs(n, k, dim int, seed uint64) ([]sparse.Vector, []int) {
	rng := zipf.NewRNG(seed)
	centers := make([][]float64, k)
	for j := range centers {
		centers[j] = make([]float64, dim)
		for d := 0; d < dim; d++ {
			centers[j][d] = float64(j*10) + rng.Float64() // separation 10 >> noise
		}
	}
	docs := make([]sparse.Vector, n)
	truth := make([]int, n)
	for i := range docs {
		j := i % k
		truth[i] = j
		var v sparse.Vector
		for d := 0; d < dim; d++ {
			v.Append(uint32(d), centers[j][d]+0.1*rng.NormFloat64())
		}
		docs[i] = v
	}
	return docs, truth
}

func TestRecoversWellSeparatedBlobs(t *testing.T) {
	const n, k, dim = 300, 3, 8
	docs, truth := blobs(n, k, dim, 42)
	p := par.NewPool(4)
	defer p.Close()
	res, err := Run(docs, dim, p, Options{K: k, Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge on trivial blobs")
	}
	// Check cluster purity: every pair in the same true group must share a
	// cluster label.
	label := make(map[int]int32)
	for i := range docs {
		g := truth[i]
		if want, seen := label[g]; seen {
			if res.Assign[i] != want {
				t.Fatalf("doc %d of group %d assigned %d, group has %d", i, g, res.Assign[i], want)
			}
		} else {
			label[g] = res.Assign[i]
		}
	}
	// All three labels distinct.
	if len(label) != k {
		t.Fatalf("groups collapsed: %v", label)
	}
}

func TestInertiaNonIncreasing(t *testing.T) {
	docs, _ := blobs(500, 4, 16, 99)
	p := par.NewPool(4)
	defer p.Close()
	res, err := Run(docs, 16, p, Options{K: 4, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i] > res.History[i-1]*(1+1e-12) {
			t.Fatalf("inertia increased at iteration %d: %v -> %v", i, res.History[i-1], res.History[i])
		}
	}
}

func TestAssignmentsAreNearestCentroid(t *testing.T) {
	docs, _ := blobs(200, 3, 8, 5)
	p := par.NewPool(2)
	defer p.Close()
	res, err := Run(docs, 8, p, Options{K: 3, Seed: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range docs {
		bestJ, bestD := -1, math.Inf(1)
		for j := range res.Centroids {
			d := 0.0
			dense := docs[i].ToDense(8)
			for idx := range dense {
				dd := dense[idx] - res.Centroids[j][idx]
				d += dd * dd
			}
			if d < bestD {
				bestD, bestJ = d, j
			}
		}
		if int32(bestJ) != res.Assign[i] {
			t.Fatalf("doc %d assigned %d but nearest centroid is %d", i, res.Assign[i], bestJ)
		}
	}
}

func TestCountsSumToN(t *testing.T) {
	docs, _ := blobs(123, 5, 10, 11)
	p := par.NewPool(3)
	defer p.Close()
	res, err := Run(docs, 10, p, Options{K: 5, Seed: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range res.Counts {
		total += c
	}
	if total != 123 {
		t.Fatalf("counts sum to %d, want 123", total)
	}
}

func TestWorkerCountDoesNotChangeClustering(t *testing.T) {
	docs, _ := blobs(400, 4, 12, 77)
	var base *Result
	for _, workers := range []int{1, 2, 8} {
		p := par.NewPool(workers)
		res, err := Run(docs, 12, p, Options{K: 4, Seed: 9}, nil)
		p.Close()
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		sameBits(t, fmt.Sprintf("workers=%d", workers), base, res)
	}
}

func TestStepRecyclesDataStructures(t *testing.T) {
	// The paper's optimization (ii): no new objects during iterations. A
	// handful of fixed-size closure headers per Step is tolerable; what
	// must NOT happen is per-document or per-centroid allocation, so the
	// allocation count must be tiny and independent of the input size.
	measure := func(n int) float64 {
		docs, _ := blobs(n, 4, 12, 13)
		p := par.NewPool(1)
		defer p.Close()
		c, err := New(docs, 12, p, Options{K: 4, Seed: 4, MaxIter: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		c.Step() // warm up views and history capacity
		c.Step()
		return testing.AllocsPerRun(10, func() { c.Step() })
	}
	small, large := measure(256), measure(4096)
	if small > 8 || large > 8 {
		t.Fatalf("Step allocates %v/%v objects per iteration; recycling broken", small, large)
	}
	if large > small {
		t.Fatalf("allocations scale with input: %v @256 docs vs %v @4096 docs", small, large)
	}
}

func TestErrorCases(t *testing.T) {
	p := par.NewPool(1)
	defer p.Close()
	docs, _ := blobs(10, 2, 4, 1)
	if _, err := Run(docs, 4, p, Options{K: 0}, nil); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Run(docs[:3], 4, p, Options{K: 5}, nil); err == nil {
		t.Fatal("n < k accepted")
	}
	bad := []sparse.Vector{{Idx: []uint32{100}, Val: []float64{1}}}
	if _, err := Run(bad, 4, p, Options{K: 1}, nil); err == nil {
		t.Fatal("dimension overflow accepted")
	}
}

func TestKEqualsN(t *testing.T) {
	docs, _ := blobs(5, 5, 4, 3)
	p := par.NewPool(2)
	defer p.Close()
	res, err := Run(docs, 4, p, Options{K: 5, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Each point its own cluster: inertia ~ 0.
	if res.Inertia > 1e-6 {
		t.Fatalf("k=n inertia %v, want ~0", res.Inertia)
	}
}

func TestIdenticalDocumentsDegenerate(t *testing.T) {
	v := sparse.Vector{Idx: []uint32{0, 2}, Val: []float64{1, 2}}
	docs := make([]sparse.Vector, 20)
	for i := range docs {
		docs[i] = v.Clone()
	}
	p := par.NewPool(2)
	defer p.Close()
	res, err := Run(docs, 3, p, Options{K: 3, Seed: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia > 1e-12 {
		t.Fatalf("identical docs inertia %v", res.Inertia)
	}
}

func TestEmptyVectorsCluster(t *testing.T) {
	docs := []sparse.Vector{{}, {}, {Idx: []uint32{0}, Val: []float64{5}}, {Idx: []uint32{0}, Val: []float64{5.1}}}
	p := par.NewPool(2)
	defer p.Close()
	res, err := Run(docs, 2, p, Options{K: 2, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Assign[0] != res.Assign[1] || res.Assign[2] != res.Assign[3] {
		t.Fatalf("degenerate split: %v", res.Assign)
	}
	if res.Assign[0] == res.Assign[2] {
		t.Fatalf("all docs in one cluster: %v", res.Assign)
	}
}

func TestBaselineMatchesOptimized(t *testing.T) {
	docs, _ := blobs(150, 3, 10, 21)
	p := par.NewPool(1)
	defer p.Close()
	opts := Options{K: 3, Seed: 17}
	fast, err := Run(docs, 10, p, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	slow := &SimpleKMeans{Instances: DenseInstances(docs, 10), Opts: opts}
	base, err := slow.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fast.Inertia-base.Inertia) > 1e-6*(1+base.Inertia) {
		t.Fatalf("inertia: optimized %v vs baseline %v", fast.Inertia, base.Inertia)
	}
	for i := range fast.Assign {
		if fast.Assign[i] != base.Assign[i] {
			t.Fatalf("assignment %d differs: %d vs %d", i, fast.Assign[i], base.Assign[i])
		}
	}
}

func TestBaselineAllocatesPerIteration(t *testing.T) {
	// The baseline must exhibit the anti-pattern it models.
	docs, _ := blobs(64, 2, 8, 31)
	s := &SimpleKMeans{Instances: DenseInstances(docs, 8), Opts: Options{K: 2, Seed: 5, MaxIter: 1}}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := s.Run(nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs < 10 {
		t.Fatalf("baseline allocates only %v objects; it is supposed to model WEKA's allocation churn", allocs)
	}
}

func TestBaselineErrors(t *testing.T) {
	s := &SimpleKMeans{Instances: [][]float64{{1}}, Opts: Options{K: 0}}
	if _, err := s.Run(nil); err == nil {
		t.Fatal("k=0 accepted")
	}
	s = &SimpleKMeans{Instances: [][]float64{{1}}, Opts: Options{K: 2}}
	if _, err := s.Run(nil); err == nil {
		t.Fatal("n < k accepted")
	}
}

func TestBreakdownRecorded(t *testing.T) {
	docs, _ := blobs(100, 2, 6, 1)
	p := par.NewPool(2)
	defer p.Close()
	bd := metrics.NewBreakdown()
	if _, err := Run(docs, 6, p, Options{K: 2, Seed: 1}, bd); err != nil {
		t.Fatal(err)
	}
	if bd.Get(PhaseKMeans) == 0 {
		t.Fatal("kmeans phase not in breakdown")
	}
}

func TestMaxIterRespected(t *testing.T) {
	docs, _ := blobs(200, 4, 8, 55)
	p := par.NewPool(2)
	defer p.Close()
	res, err := Run(docs, 8, p, Options{K: 4, Seed: 1, MaxIter: 2, Tol: 1e-300}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 2 {
		t.Fatalf("ran %d iterations with MaxIter=2", res.Iterations)
	}
}

func TestRunsMoreThanOneIteration(t *testing.T) {
	// Regression: the first tolerance check used an infinite previous
	// inertia and stopped every run after one iteration. Overlapping
	// random data forces genuine multi-iteration refinement.
	rng := zipf.NewRNG(2024)
	docs := make([]sparse.Vector, 400)
	for i := range docs {
		var v sparse.Vector
		for d := 0; d < 6; d++ {
			v.Append(uint32(d), rng.NormFloat64())
		}
		docs[i] = v
	}
	p := par.NewPool(2)
	defer p.Close()
	res, err := Run(docs, 6, p, Options{K: 4, Seed: 6}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 2 {
		t.Fatalf("only %d iterations on unclustered data", res.Iterations)
	}
	// And the baseline must agree on iteration semantics.
	s := &SimpleKMeans{Instances: DenseInstances(docs, 6), Opts: Options{K: 4, Seed: 6}}
	base, err := s.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if base.Iterations < 2 {
		t.Fatalf("baseline only %d iterations", base.Iterations)
	}
}

func TestReseedFarthestFillsEmptyClusters(t *testing.T) {
	// Two tight groups but k=4: with KeepCentroid some clusters may stay
	// empty; with ReseedFarthest all four end non-empty.
	rng := zipf.NewRNG(77)
	docs := make([]sparse.Vector, 120)
	for i := range docs {
		base := 0.0
		if i%2 == 1 {
			base = 50
		}
		var v sparse.Vector
		for d := 0; d < 4; d++ {
			v.Append(uint32(d), base+rng.NormFloat64()*0.01)
		}
		docs[i] = v
	}
	p := par.NewPool(2)
	defer p.Close()
	res, err := Run(docs, 4, p, Options{K: 4, Seed: 3, Empty: ReseedFarthest, MaxIter: 50}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j, cnt := range res.Counts {
		if cnt == 0 {
			t.Fatalf("cluster %d empty despite ReseedFarthest (counts %v)", j, res.Counts)
		}
	}
}

func TestReseedFarthestNoopOnCoincidentDocs(t *testing.T) {
	v := sparse.Vector{Idx: []uint32{0}, Val: []float64{3}}
	docs := make([]sparse.Vector, 10)
	for i := range docs {
		docs[i] = v.Clone()
	}
	p := par.NewPool(1)
	defer p.Close()
	res, err := Run(docs, 2, p, Options{K: 2, Seed: 5, Empty: ReseedFarthest}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia > 1e-12 {
		t.Fatalf("inertia %v", res.Inertia)
	}
}
