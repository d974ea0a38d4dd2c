package kmeans

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"hpa/internal/par"
	"hpa/internal/pario"
	"hpa/internal/sparse"
	"hpa/internal/zipf"
)

// sparseMix generates documents with varying sparsity patterns — closer to
// TF/IDF vectors than the dense blobs: overlapping and unnormalized.
func sparseMix(n, dim int, seed uint64) []sparse.Vector {
	rng := zipf.NewRNG(seed)
	docs := make([]sparse.Vector, n)
	for i := range docs {
		var v sparse.Vector
		for d := 0; d < dim; d++ {
			if rng.Float64() < 0.3 {
				v.Append(uint32(d), rng.Float64()*float64(1+i%5))
			}
		}
		if v.NNZ() == 0 {
			v.Append(uint32(i%dim), 1)
		}
		docs[i] = v
	}
	return docs
}

// shardedRun drives the clusterer by hand through the iterative path (fixed
// shard→Accum mapping, then EndIteration) — the workflow engine's
// execution shape, and what Run does with one shard per pool worker
// (TestRunRepeatable).
func shardedRun(t *testing.T, docs []sparse.Vector, dim int, opts Options, shards int) *Result {
	t.Helper()
	p := par.NewPool(1)
	defer p.Close()
	c, err := New(docs, dim, p, opts)
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

// TestBlockSizeResolution pins the Block knob resolver: negative pins the
// scalar kernel, 0 resolves by k, 4 and 8 pin that width, and validation
// rejects every other width.
func TestBlockSizeResolution(t *testing.T) {
	for _, tc := range []struct{ block, k, want int }{
		{-1, 64, 0},
		{0, 2, 0},
		{0, 4, 4},
		{0, 7, 4},
		{0, 8, 8},
		{0, 64, 8},
		{4, 64, 4},
		{8, 3, 8},
	} {
		if got := BlockSize(tc.block, tc.k); got != tc.want {
			t.Errorf("BlockSize(%d, %d) = %d, want %d", tc.block, tc.k, got, tc.want)
		}
	}
	docs := sparseMix(40, 16, 3)
	p := par.NewPool(1)
	defer p.Close()
	for _, tc := range []struct{ block, k, want int }{
		{-1, 8, 0},
		{0, 8, 8},
		{0, 5, 4},
		{4, 8, 4},
	} {
		c, err := New(docs, 16, p, Options{K: tc.k, Seed: 1, Block: tc.block})
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		if c.layout != nil {
			got = c.layout.BlockSize()
		}
		if got != tc.want {
			t.Errorf("Block=%d k=%d: layout width %d, want %d", tc.block, tc.k, got, tc.want)
		}
	}
	for _, block := range []int{1, 2, 3, 5, 6, 7, 9, 16} {
		if _, err := New(docs, 16, p, Options{K: 4, Block: block}); !errors.Is(err, ErrOptions) {
			t.Errorf("Block=%d: err = %v, want ErrOptions", block, err)
		}
	}
}

// TestBlockedAssignBitIdentical is the blocked-kernel contract at the
// kmeans level: every lane width produces results bit-identical to the
// pinned scalar kernel — assignments, centroids, counts, inertia history
// and convergence — on a corpus that includes genuinely empty (zero-nnz)
// documents, at cluster counts that are not multiples of any width (the
// ragged tail block), under both empty-cluster policies.
func TestBlockedAssignBitIdentical(t *testing.T) {
	docs := sparseMix(300, 32, 13)
	empties := 0
	for i := range docs {
		if i%7 == 3 {
			docs[i] = sparse.Vector{} // genuine zero-nnz document
			empties++
		}
	}
	if empties == 0 {
		t.Fatal("corpus has no empty documents; the test would not cover them")
	}
	cases := []struct {
		name string
		opts Options
	}{
		{"k5", Options{K: 5, Seed: 2}},
		{"k13-reseed", Options{K: 13, Seed: 4, Empty: ReseedFarthest}},
	}
	for _, tc := range cases {
		scalarOpts := tc.opts
		scalarOpts.Block = -1
		scalar := shardedRun(t, docs, 32, scalarOpts, 4)
		for _, block := range []int{0, 4, 8} {
			t.Run(fmt.Sprintf("%s/block=%d", tc.name, block), func(t *testing.T) {
				opts := tc.opts
				opts.Block = block
				got := shardedRun(t, docs, 32, opts, 4)
				// Wall-clock timing is the only field allowed to differ.
				wantC, gotC := *scalar, *got
				wantC.SeedWall, gotC.SeedWall = 0, 0
				if !reflect.DeepEqual(&wantC, &gotC) {
					t.Errorf("blocked result differs from scalar:\n  scalar: iters=%d inertia=%v\n  block:  iters=%d inertia=%v",
						scalar.Iterations, scalar.Inertia, got.Iterations, got.Inertia)
				}
			})
		}
	}
}
