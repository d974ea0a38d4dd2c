package kmeans

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"hpa/internal/par"
	"hpa/internal/pario"
	"hpa/internal/sparse"
	"hpa/internal/zipf"
)

// sparseMix generates documents with varying sparsity patterns — closer to
// TF/IDF vectors than the dense blobs — so pruning is exercised on
// overlapping, unnormalized data where bound gaps are not trivially huge.
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
// shard→Accum mapping, ordered EndIteration) — the workflow engine's
// execution shape, and what bulk Run does with one shard per pool worker
// (TestBulkRunRepeatable).
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

// runPruned clusters docs twice through the sharded driver — pruning forced
// off and forced on — and returns both results.
func runPruned(t *testing.T, docs []sparse.Vector, dim int, opts Options, shards int) (off, on *Result) {
	t.Helper()
	optsOff, optsOn := opts, opts
	optsOff.Prune = PruneOff
	optsOn.Prune = PruneOn
	return shardedRun(t, docs, dim, optsOff, shards),
		shardedRun(t, docs, dim, optsOn, shards)
}

// TestPruneBitIdentical is the core pruning contract: with bounds on, every
// observable of the clustering — assignments, centroids, counts, the full
// inertia history and the convergence decision — is bit-identical to the
// full-scan kernel, while a measurable fraction of scans is skipped.
func TestPruneBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		docs []sparse.Vector
		dim  int
		opts Options
	}{
		{"blobs-k4", nil, 16, Options{K: 4, Seed: 3}},
		{"blobs-k8-reseed", nil, 16, Options{K: 8, Seed: 9, Empty: ReseedFarthest}},
		{"sparse-k8", sparseMix(400, 64, 11), 64, Options{K: 8, Seed: 1}},
		{"sparse-k16-reseed", sparseMix(600, 48, 7), 48, Options{K: 16, Seed: 5, Empty: ReseedFarthest}},
	}
	cases[0].docs, _ = blobs(400, 4, 16, 21)
	cases[1].docs, _ = blobs(500, 8, 16, 22)
	anySkips := false
	for _, tc := range cases {
		for _, shards := range []int{1, 4, 7} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				off, on := runPruned(t, tc.docs, tc.dim, tc.opts, shards)
				if on.Prune.Skipped > 0 {
					anySkips = true
				}
				// Strip the stats and the wall-clock timing (the fields
				// allowed to differ) and compare everything else bit for bit.
				offC, onC := *off, *on
				offC.Prune, onC.Prune = PruneStats{}, PruneStats{}
				offC.SeedWall, onC.SeedWall = 0, 0
				if !reflect.DeepEqual(&offC, &onC) {
					t.Errorf("pruned result differs from full scan:\n  off: iters=%d inertia=%v\n  on:  iters=%d inertia=%v",
						off.Iterations, off.Inertia, on.Iterations, on.Inertia)
				}
				if !on.Prune.Enabled {
					t.Errorf("PruneOn run reports Enabled=false")
				}
				if off.Prune.Enabled || off.Prune.Skipped != 0 {
					t.Errorf("PruneOff run reports stats: %+v", off.Prune)
				}
				t.Logf("iters=%d skip rate %.1f%% (%d/%d)", on.Iterations,
					100*on.Prune.SkipRate(), on.Prune.Skipped, on.Prune.DocIterations)
			})
		}
	}
	if !anySkips {
		t.Errorf("no case skipped a single scan — bounds are not pruning anything")
	}
}

// TestPruneSkipsOnConvergedData checks the skip rate is substantial where it
// should be: well-separated blobs converge fast and nearly every document
// should skip after the first iterations.
func TestPruneSkipsOnConvergedData(t *testing.T) {
	docs, _ := blobs(600, 6, 16, 33)
	_, on := runPruned(t, docs, 16, Options{K: 6, Seed: 2, MaxIter: 30}, 4)
	if on.Iterations < 2 {
		t.Skipf("converged in %d iteration(s); nothing to skip", on.Iterations)
	}
	if on.Prune.SkipRate() == 0 {
		t.Fatalf("no skips over %d iterations on separated blobs: %+v", on.Iterations, on.Prune)
	}
	t.Logf("iters=%d skip rate %.1f%%", on.Iterations, 100*on.Prune.SkipRate())
}

// TestPruneAutoResolution pins the mode→variant policy: Auto is off below
// k=4, Hamerly through k=15, Elkan from k=16; the forced modes always give
// their structure.
func TestPruneAutoResolution(t *testing.T) {
	for _, tc := range []struct {
		k    int
		mode PruneMode
		want PruneVariant
	}{
		{2, PruneAuto, VariantOff},
		{3, PruneAuto, VariantOff},
		{4, PruneAuto, VariantHamerly},
		{8, PruneAuto, VariantHamerly},
		{15, PruneAuto, VariantHamerly},
		{16, PruneAuto, VariantElkan},
		{64, PruneAuto, VariantElkan},
		{2, PruneOn, VariantHamerly},
		{32, PruneOn, VariantHamerly},
		{2, PruneElkan, VariantElkan},
		{16, PruneOff, VariantOff},
	} {
		if got := tc.mode.Variant(tc.k); got != tc.want {
			t.Errorf("k=%d mode=%v: Variant=%v, want %v", tc.k, tc.mode, got, tc.want)
		}
		if got, want := tc.mode.Active(tc.k), tc.want != VariantOff; got != want {
			t.Errorf("k=%d mode=%v: Active=%v, want %v", tc.k, tc.mode, got, want)
		}
	}
	for mode, want := range map[PruneMode]string{
		PruneAuto: "auto", PruneOn: "on", PruneOff: "off", PruneElkan: "elkan",
	} {
		if got := mode.String(); got != want {
			t.Errorf("PruneMode(%d).String() = %q, want %q", mode, got, want)
		}
	}
	for variant, want := range map[PruneVariant]string{
		VariantOff: "off", VariantHamerly: "hamerly", VariantElkan: "elkan",
	} {
		if got := variant.String(); got != want {
			t.Errorf("PruneVariant(%d).String() = %q, want %q", variant, got, want)
		}
	}
}

// TestElkanBitIdentical extends the pruning contract to the per-centroid
// bound structure: PruneElkan produces bit-identical clusterings to the
// full scan at every shard count, and on a k>=16 case its skip rate beats
// the single Hamerly bound's — the point of paying k× the memory.
func TestElkanBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		docs []sparse.Vector
		dim  int
		opts Options
	}{
		{"blobs-k8", nil, 16, Options{K: 8, Seed: 9, Empty: ReseedFarthest}},
		{"sparse-k16", sparseMix(600, 48, 7), 48, Options{K: 16, Seed: 5}},
		{"sparse-k16-reseed", sparseMix(600, 48, 7), 48, Options{K: 16, Seed: 5, Empty: ReseedFarthest}},
	}
	cases[0].docs, _ = blobs(500, 8, 16, 22)
	beatHamerly := false
	for _, tc := range cases {
		for _, shards := range []int{1, 4, 7} {
			optsOff, optsHam, optsElk := tc.opts, tc.opts, tc.opts
			optsOff.Prune, optsHam.Prune, optsElk.Prune = PruneOff, PruneOn, PruneElkan
			off := shardedRun(t, tc.docs, tc.dim, optsOff, shards)
			ham := shardedRun(t, tc.docs, tc.dim, optsHam, shards)
			elk := shardedRun(t, tc.docs, tc.dim, optsElk, shards)
			offC, elkC := *off, *elk
			offC.Prune, elkC.Prune = PruneStats{}, PruneStats{}
			offC.SeedWall, elkC.SeedWall = 0, 0
			if !reflect.DeepEqual(&offC, &elkC) {
				t.Errorf("%s/shards=%d: elkan result differs from full scan", tc.name, shards)
			}
			if elk.Prune.Variant != "elkan" || ham.Prune.Variant != "hamerly" {
				t.Errorf("%s/shards=%d: variants %q/%q, want elkan/hamerly",
					tc.name, shards, elk.Prune.Variant, ham.Prune.Variant)
			}
			if elk.Prune.Skipped < ham.Prune.Skipped {
				t.Errorf("%s/shards=%d: elkan skipped %d < hamerly %d — per-centroid bounds must dominate",
					tc.name, shards, elk.Prune.Skipped, ham.Prune.Skipped)
			}
			if tc.opts.K >= 16 && elk.Prune.Skipped > ham.Prune.Skipped {
				beatHamerly = true
			}
			t.Logf("%s/shards=%d: iters=%d skip elkan %.1f%% vs hamerly %.1f%%", tc.name, shards,
				elk.Iterations, 100*elk.Prune.SkipRate(), 100*ham.Prune.SkipRate())
		}
	}
	if !beatHamerly {
		t.Errorf("elkan never beat hamerly's skip count on a k>=16 case")
	}
}

// TestBoundsDriftSelection pins maxDriftOther: a document assigned to the
// fastest-moving centroid decays by the second-largest drift.
func TestBoundsDriftSelection(t *testing.T) {
	bp := NewBoundsPass(1, 8)
	bp.SetDrift([]float64{0.5, 3, 1.25, 0})
	if got := bp.maxDriftOther(1); got != 1.25 {
		t.Errorf("maxDriftOther(argmax) = %v, want 1.25", got)
	}
	if got := bp.maxDriftOther(0); got != 3 {
		t.Errorf("maxDriftOther(other) = %v, want 3", got)
	}
	if !math.IsInf(bp.Lower[0], -1) {
		t.Errorf("fresh lower bound is %v, want -Inf", bp.Lower[0])
	}
}

// TestAccumWireCarriesSkipped checks the skip tally survives the wire —
// remote shard stats must reach the coordinator's PruneStats.
func TestAccumWireCarriesSkipped(t *testing.T) {
	a := NewAccumFor(2, 4)
	a.skipped = 17
	w := a.Wire()
	if w.Skipped != 17 {
		t.Fatalf("wire skipped = %d, want 17", w.Skipped)
	}
	b := NewAccumFor(2, 4)
	if err := b.FromWire(w); err != nil {
		t.Fatal(err)
	}
	if b.skipped != 17 {
		t.Fatalf("absorbed skipped = %d, want 17", b.skipped)
	}
}
