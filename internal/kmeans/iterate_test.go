package kmeans

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"hpa/internal/par"
	"hpa/internal/pario"
)

// TestOptionsValidation: the shared Options.validate must reject bad signs
// and mismatched DocNorms with errors wrapping ErrOptions, identically for
// both implementations.
func TestOptionsValidation(t *testing.T) {
	docs, _ := blobs(20, 2, 4, 1)
	p := par.NewPool(1)
	defer p.Close()
	cases := []struct {
		name string
		opts Options
	}{
		{"k=0", Options{K: 0}},
		{"negative MaxIter", Options{K: 2, MaxIter: -1}},
		{"negative Tol", Options{K: 2, Tol: -1e-9}},
		{"short DocNorms", Options{K: 2, DocNorms: make([]float64, 3)}},
		{"long DocNorms", Options{K: 2, DocNorms: make([]float64, 21)}},
	}
	for _, tc := range cases {
		if _, err := Run(docs, 4, p, tc.opts, nil); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !errors.Is(err, ErrOptions) {
			t.Errorf("%s: error %v does not wrap ErrOptions", tc.name, err)
		}
		s := &SimpleKMeans{Instances: DenseInstances(docs, 4), Opts: tc.opts}
		if _, err := s.Run(nil); err == nil {
			t.Errorf("%s: baseline accepted", tc.name)
		} else if !errors.Is(err, ErrOptions) {
			t.Errorf("%s: baseline error %v does not wrap ErrOptions", tc.name, err)
		}
	}
	// Correct-length DocNorms and zero (defaulted) MaxIter/Tol stay valid.
	norms := make([]float64, len(docs))
	for i := range docs {
		norms[i] = docs[i].NormSq()
	}
	if _, err := Run(docs, 4, p, Options{K: 2, DocNorms: norms}, nil); err != nil {
		t.Fatalf("valid DocNorms rejected: %v", err)
	}
}

// iterativeRun drives the clusterer exactly the way the workflow engine's
// loop executor does: per-iteration AssignShard over pario.PartitionRange
// shard boundaries into recycled per-shard Accums, then EndIteration.
func iterativeRun(t *testing.T, opts Options, shards int) *Result {
	t.Helper()
	docs, _ := blobs(400, 4, 12, 77)
	p := par.NewPool(1)
	defer p.Close()
	c, err := New(docs, 12, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	accs := make([]*Accum, shards)
	for q := range accs {
		accs[q] = c.NewAccum()
	}
	for !c.Done() {
		for q := range accs {
			accs[q].Reset()
			lo, hi := pario.PartitionRange(len(docs), shards, q)
			c.AssignShard(lo, hi, accs[q])
		}
		c.EndIteration(accs)
	}
	return c.Finalize()
}

// sameBits asserts two clusterings are one: assignments, counts, seeds,
// iteration count and convergence exactly, and every centroid component,
// the inertia and its whole history by their bits.
func sameBits(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		t.Fatalf("%s: %d iterations (converged=%v), want %d (%v)",
			label, got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	if !reflect.DeepEqual(got.Assign, want.Assign) || !reflect.DeepEqual(got.Counts, want.Counts) ||
		!reflect.DeepEqual(got.Seeds, want.Seeds) {
		t.Fatalf("%s: assignments, counts or seeds differ", label)
	}
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	if !reflect.DeepEqual(bits([]float64{got.Inertia}), bits([]float64{want.Inertia})) ||
		!reflect.DeepEqual(bits(got.History), bits(want.History)) {
		t.Fatalf("%s: inertia history %v, want %v", label, got.History, want.History)
	}
	for j := range want.Centroids {
		if !reflect.DeepEqual(bits(got.Centroids[j]), bits(want.Centroids[j])) {
			t.Fatalf("%s: centroid %d differs in its bits", label, j)
		}
	}
}

// TestShardKernelMatchesBulk: driving the loop through AssignShard +
// EndIteration at any shard count must reproduce the bulk Run on a
// 4-worker pool bit for bit — one clustering per input.
func TestShardKernelMatchesBulk(t *testing.T) {
	for _, empty := range []EmptyPolicy{KeepCentroid, ReseedFarthest} {
		opts := Options{K: 4, Seed: 9, Empty: empty}
		docs, _ := blobs(400, 4, 12, 77)
		p := par.NewPool(4)
		ref, err := Run(docs, 12, p, opts, nil)
		p.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 3, 5} {
			sameBits(t, fmt.Sprintf("empty=%d shards=%d", empty, shards), ref, iterativeRun(t, opts, shards))
		}
	}
}

// TestShardKernelIsDeterministic: the iterative path is bit-for-bit
// repeatable — two runs at the same shard count agree on every centroid
// bit.
func TestShardKernelIsDeterministic(t *testing.T) {
	opts := Options{K: 4, Seed: 3}
	a := iterativeRun(t, opts, 5)
	b := iterativeRun(t, opts, 5)
	if a.Iterations != b.Iterations || a.Inertia != b.Inertia {
		t.Fatalf("iterations/inertia differ: %d/%v vs %d/%v", a.Iterations, a.Inertia, b.Iterations, b.Inertia)
	}
	for j := range a.Centroids {
		for d := range a.Centroids[j] {
			if math.Float64bits(a.Centroids[j][d]) != math.Float64bits(b.Centroids[j][d]) {
				t.Fatalf("centroid %d[%d] not bit-identical across runs", j, d)
			}
		}
	}
}

// TestRunRepeatable: Run on a 4-worker pool is its shard kernels
// over one contiguous range per worker — so ten runs agree on every bit of
// the inertia history, centroids and assignments, and equal the same
// ranges driven by hand, however the ranges were scheduled.
func TestRunRepeatable(t *testing.T) {
	const dim = 40
	docs := sparseMix(3000, dim, 11)
	opts := Options{K: 8, Seed: 5, MaxIter: 12}
	want := *shardedRun(t, docs, dim, opts, 4)
	want.SeedWall = 0 // wall-clock timing, the one field allowed to differ
	p := par.NewPool(4)
	defer p.Close()
	for run := 0; run < 10; run++ {
		res, err := Run(docs, dim, p, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := *res
		got.SeedWall = 0
		if !reflect.DeepEqual(&got, &want) {
			t.Fatalf("run %d differs from the same ranges driven by hand:\n  run:     iters=%d inertia=%x\n  by hand: iters=%d inertia=%x",
				run, got.Iterations, math.Float64bits(got.Inertia), want.Iterations, math.Float64bits(want.Inertia))
		}
	}
}
