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

// TestAccumWireRoundTrip: a partial filled by the real assignment kernel
// must survive Wire → gob → FromWire exactly, and an EndIteration over
// wire-rebuilt partials must produce the same centroids and convergence
// state as one over the originals.
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

	// Reference loop: direct partials.
	ref := newC()
	refAccs := []*Accum{ref.NewAccum(), ref.NewAccum()}
	ref.AssignShard(0, 20, refAccs[0])
	ref.AssignShard(20, 40, refAccs[1])

	// Wire loop: each shard's partial round-trips through gob before the
	// update, exactly as a remote iteration would.
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
		fresh := wired.NewAccum()
		if err := fresh.FromWire(&w, 20); err != nil {
			t.Fatalf("FromWire accum %d: %v", i, err)
		}
		if !reflect.DeepEqual(fresh.Wire(), a.Wire()) {
			t.Fatalf("accum %d wire forms differ after round trip", i)
		}
		wiredAccs[i] = fresh
	}

	ri, rc := ref.EndIteration(refAccs)
	wi, wc := wired.EndIteration(wiredAccs)
	if math.Float64bits(ri) != math.Float64bits(wi) || rc != wc {
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

// TestAccumFromWireRejectsMismatch: a wire partial whose moved count does
// not fit the shard — negative, or more moves than documents — must error
// and leave the receiver alone instead of steering convergence.
func TestAccumFromWireRejectsMismatch(t *testing.T) {
	a := &Accum{changed: 2}
	for _, moved := range []int{-1, 9} {
		if err := a.FromWire(&AccumWire{Changed: moved}, 8); err == nil {
			t.Errorf("FromWire accepted %d moved assignments for 8 documents", moved)
		}
	}
	if a.changed != 2 {
		t.Errorf("a rejected wire form changed the receiver's count to %d", a.changed)
	}
	for _, moved := range []int{0, 8} {
		if err := a.FromWire(&AccumWire{Changed: moved}, 8); err != nil || a.changed != moved {
			t.Errorf("FromWire(%d moved of 8): count %d, %v", moved, a.changed, err)
		}
	}
}

// TestApplyShardAssignmentsRejectsMalformed: a remote shard's write-back
// is what EndIteration indexes by, so a window past the documents, a
// distance count that does not match the assignments, or a cluster index
// outside [0, k) must error — never panic the coordinator's update — and
// leave the clusterer's arrays untouched.
func TestApplyShardAssignmentsRejectsMalformed(t *testing.T) {
	docs := wireDocs(10, 16)
	pool := par.NewPool(1)
	defer pool.Close()
	c, err := New(docs, 16, pool, Options{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	two := []float64{0.5, 0.25}
	cases := map[string]func() error{
		"window past the end": func() error { return c.ApplyShardAssignments(9, []int32{0, 1}, two) },
		"negative offset":     func() error { return c.ApplyShardAssignments(-1, []int32{0, 1}, two) },
		"missing distances":   func() error { return c.ApplyShardAssignments(0, []int32{0, 1}, nil) },
		"short distances":     func() error { return c.ApplyShardAssignments(0, []int32{0, 1}, two[:1]) },
		"cluster k":           func() error { return c.ApplyShardAssignments(0, []int32{0, 3}, two) },
		"unassigned document": func() error { return c.ApplyShardAssignments(0, []int32{-1, 0}, two) },
	}
	for name, apply := range cases {
		if err := apply(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for i, a := range c.Assignments() {
		if a != -1 || c.dists[i] != 0 {
			t.Fatalf("a rejected write-back touched document %d (cluster %d, distance %v)", i, a, c.dists[i])
		}
	}
	if err := c.ApplyShardAssignments(8, []int32{2, 0}, two); err != nil {
		t.Fatalf("a well-formed write-back failed: %v", err)
	}
	if c.assign[8] != 2 || c.assign[9] != 0 || c.dists[8] != 0.5 || c.dists[9] != 0.25 {
		t.Errorf("write-back not installed: assign %v dists %v", c.assign[8:], c.dists[8:])
	}
}

// TestAssignRangeShardLocalMatchesAbsolute: the worker-side invocation
// (shard-local slices, lo=0) must be bit-identical to the coordinator's
// absolute-indexed one — the same assignments, distance bits and moved
// count, the whole of what a shard returns.
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
		cnorms[j] = normSq(centroids[j])
	}
	lo, hi := 10, 25
	layout := sparse.NewBlockLayout(k, dim, 4)
	layout.Fill(centroids)

	for _, l := range []*sparse.BlockLayout{nil, layout} {
		// Absolute indexing over the full slices.
		assignAbs := make([]int32, len(docs))
		for i := range assignAbs {
			assignAbs[i] = -1
		}
		distsAbs := make([]float64, len(docs))
		movedAbs := AssignRange(lo, hi, k, docs, norms, centroids, cnorms, l, assignAbs, distsAbs, DotScratch(k))

		// Shard-local indexing over subslices, as the worker kernel runs it.
		assignLoc := make([]int32, hi-lo)
		for i := range assignLoc {
			assignLoc[i] = -1
		}
		distsLoc := make([]float64, hi-lo)
		movedLoc := AssignRange(0, hi-lo, k, docs[lo:hi], norms[lo:hi], centroids, cnorms, l, assignLoc, distsLoc, DotScratch(k))

		if !reflect.DeepEqual(assignAbs[lo:hi], assignLoc) {
			t.Errorf("layout=%v: assignments differ between absolute and shard-local invocation", l != nil)
		}
		for i, d := range distsLoc {
			if math.Float64bits(d) != math.Float64bits(distsAbs[lo+i]) || math.IsNaN(d) {
				t.Errorf("layout=%v: distance %d: shard-local %v, absolute %v", l != nil, i, d, distsAbs[lo+i])
			}
		}
		if movedAbs != movedLoc || movedLoc != hi-lo {
			t.Errorf("layout=%v: moved %d shard-local, %d absolute, want %d", l != nil, movedLoc, movedAbs, hi-lo)
		}
	}
}
