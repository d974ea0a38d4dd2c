package kmeans

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"testing"

	"hpa/internal/par"
	"hpa/internal/sparse"
)

// wireDocs builds a small deterministic sparse document set.
func wireDocs(n, dim int) []sparse.Vector {
	docs := make([]sparse.Vector, n)
	var b sparse.Builder
	x := uint64(42)
	for i := range docs {
		b.Reset()
		for j := 0; j < 5; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			b.Add(uint32(x)%uint32(dim), float64(x%97)/13.0+0.5)
		}
		b.Build(&docs[i])
	}
	return docs
}

// TestAccumWireRoundTrip: an accumulator filled by the real assignment
// kernel must survive Wire → gob → FromWire bit-exactly, and an
// EndIteration over wire-rebuilt accumulators must produce the same
// centroids and convergence state as one over the originals.
func TestAccumWireRoundTrip(t *testing.T) {
	const dim = 32
	docs := wireDocs(40, dim)
	pool := par.NewPool(1)
	defer pool.Close()

	newC := func() *Clusterer {
		c, err := New(docs, dim, pool, Options{K: 4, Seed: 7})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return c
	}

	// Reference loop: direct accumulators.
	ref := newC()
	refAccs := []*Accum{ref.NewAccum(), ref.NewAccum()}
	ref.AssignShard(0, 20, refAccs[0])
	ref.AssignShard(20, 40, refAccs[1])

	// Wire loop: each shard's accumulator round-trips through gob before
	// the reduce, exactly as a remote iteration would.
	wired := newC()
	wiredAccs := []*Accum{wired.NewAccum(), wired.NewAccum()}
	wired.AssignShard(0, 20, wiredAccs[0])
	wired.AssignShard(20, 40, wiredAccs[1])
	for i, a := range wiredAccs {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(a.Wire()); err != nil {
			t.Fatalf("encode accum %d: %v", i, err)
		}
		var w AccumWire
		if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&w); err != nil {
			t.Fatalf("decode accum %d: %v", i, err)
		}
		fresh := NewAccumFor(4, dim)
		if err := fresh.FromWire(&w); err != nil {
			t.Fatalf("FromWire accum %d: %v", i, err)
		}
		if !reflect.DeepEqual(fresh.Wire(), a.Wire()) {
			t.Fatalf("accum %d wire forms differ after round trip", i)
		}
		wiredAccs[i] = fresh
	}

	ri, rc := ref.EndIteration(refAccs)
	wi, wc := wired.EndIteration(wiredAccs)
	if ri != wi || rc != wc {
		t.Fatalf("EndIteration differs: ref (%v, %d), wired (%v, %d)", ri, rc, wi, wc)
	}
	if !reflect.DeepEqual(ref.Centroids(), wired.Centroids()) {
		t.Errorf("centroids differ after wire round trip")
	}
	if !reflect.DeepEqual(ref.CentroidNorms(), wired.CentroidNorms()) {
		t.Errorf("centroid norms differ after wire round trip")
	}
	if ref.Done() != wired.Done() {
		t.Errorf("convergence state differs after wire round trip")
	}
}

// TestAccumFromWireRejectsMismatch: a wire form of the wrong cluster count
// must error instead of corrupting the reduce.
func TestAccumFromWireRejectsMismatch(t *testing.T) {
	a := NewAccumFor(3, 8)
	w := NewAccumFor(2, 8).Wire()
	if err := a.FromWire(w); err == nil {
		t.Fatalf("FromWire accepted a 2-cluster wire form into a 3-cluster accum")
	}
	// Out-of-dimension entries (a malformed worker reply) must error, not
	// panic the coordinator.
	bad := NewAccumFor(3, 8).Wire()
	bad.Idx[1] = []uint32{8}
	bad.Val[1] = []float64{1}
	if err := NewAccumFor(3, 8).FromWire(bad); err == nil {
		t.Fatalf("FromWire accepted an out-of-dimension entry")
	}
	// Ragged index/value pairs too.
	ragged := NewAccumFor(3, 8).Wire()
	ragged.Idx[0] = []uint32{1, 2}
	ragged.Val[0] = []float64{1}
	if err := NewAccumFor(3, 8).FromWire(ragged); err == nil {
		t.Fatalf("FromWire accepted ragged index/value slices")
	}
}

// TestAssignRangeShardLocalMatchesAbsolute: the worker-side invocation
// (shard-local slices, lo=0) must be bit-identical to the coordinator's
// absolute-indexed one — the core of the cross-backend guarantee.
func TestAssignRangeShardLocalMatchesAbsolute(t *testing.T) {
	const dim, k = 24, 3
	docs := wireDocs(30, dim)
	norms := make([]float64, len(docs))
	for i := range docs {
		norms[i] = docs[i].NormSq()
	}
	centroids := [][]float64{make([]float64, dim), make([]float64, dim), make([]float64, dim)}
	for j := range centroids {
		sparse.AddInto(centroids[j], &docs[j*7], 1)
	}
	cnorms := make([]float64, k)
	for j := range centroids {
		for _, v := range centroids[j] {
			cnorms[j] += v * v
		}
	}
	lo, hi := 10, 25

	// Absolute indexing over the full slices.
	assignAbs := make([]int32, len(docs))
	for i := range assignAbs {
		assignAbs[i] = -1
	}
	accAbs := NewAccumFor(k, dim)
	AssignRange(lo, hi, k, docs, norms, centroids, cnorms, nil, assignAbs, nil, accAbs)

	// Shard-local indexing over subslices, as the worker kernel runs it.
	assignLoc := make([]int32, hi-lo)
	for i := range assignLoc {
		assignLoc[i] = -1
	}
	accLoc := NewAccumFor(k, dim)
	AssignRange(0, hi-lo, k, docs[lo:hi], norms[lo:hi], centroids, cnorms, nil, assignLoc, nil, accLoc)

	if !reflect.DeepEqual(assignAbs[lo:hi], assignLoc) {
		t.Errorf("assignments differ between absolute and shard-local invocation")
	}
	if !reflect.DeepEqual(accAbs.Wire(), accLoc.Wire()) {
		t.Errorf("accumulators differ between absolute and shard-local invocation")
	}
	if math.IsNaN(accLoc.Wire().Inertia) {
		t.Errorf("inertia is NaN")
	}
}
