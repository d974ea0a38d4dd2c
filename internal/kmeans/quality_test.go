package kmeans

import (
	"math"
	"sort"
	"testing"

	"hpa/internal/par"
	"hpa/internal/sparse"
)

func TestPredictMatchesTrainingAssignment(t *testing.T) {
	docs, _ := blobs(200, 4, 10, 3)
	p := par.NewPool(2)
	defer p.Close()
	res, err := Run(docs, 10, p, Options{K: 4, Seed: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range docs {
		if got := res.Predict(&docs[i]); got != res.Assign[i] {
			t.Fatalf("Predict(doc %d) = %d, trained assignment %d", i, got, res.Assign[i])
		}
	}
}

func TestPredictUnseenPoint(t *testing.T) {
	docs, _ := blobs(90, 3, 6, 7)
	p := par.NewPool(2)
	defer p.Close()
	res, err := Run(docs, 6, p, Options{K: 3, Seed: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A point very close to centroid 0 must be predicted as its cluster.
	var probe sparse.Vector
	for d, x := range res.Centroids[0] {
		if x != 0 {
			probe.Append(uint32(d), x*1.01)
		}
	}
	if got := res.Predict(&probe); got != 0 {
		t.Fatalf("probe near centroid 0 predicted as %d", got)
	}
}

func TestTopTermsOrderingAndBounds(t *testing.T) {
	res := &Result{Centroids: [][]float64{
		{0.1, 0.9, 0, 0.5, 0.7},
		{0, 0, 0, 0, 0},
	}}
	top := res.TopTerms(3)
	want := []uint32{1, 4, 3}
	if len(top[0]) != 3 {
		t.Fatalf("top[0] = %v", top[0])
	}
	for i := range want {
		if top[0][i] != want[i] {
			t.Fatalf("top[0] = %v, want %v", top[0], want)
		}
	}
	if len(top[1]) != 0 {
		t.Fatalf("zero centroid produced terms %v", top[1])
	}
	if got := res.TopTerms(0); got[0] != nil {
		t.Fatalf("w=0 produced %v", got[0])
	}
}

func TestTopTermsMatchesFullSort(t *testing.T) {
	c := make([]float64, 200)
	for i := range c {
		c[i] = math.Abs(math.Sin(float64(i) * 1.7))
	}
	res := &Result{Centroids: [][]float64{c}}
	got := res.TopTerms(10)[0]
	type iw struct {
		i uint32
		v float64
	}
	all := make([]iw, len(c))
	for i, v := range c {
		all[i] = iw{uint32(i), v}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].v > all[b].v })
	for k := 0; k < 10; k++ {
		if got[k] != all[k].i {
			t.Fatalf("rank %d: got term %d, want %d", k, got[k], all[k].i)
		}
	}
}
