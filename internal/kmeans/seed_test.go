package kmeans

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"hpa/internal/par"
	"hpa/internal/pario"
	"hpa/internal/sparse"
	"hpa/internal/zipf"
)

// shardedSeedRun clusters like New but drives seeding through the deferred
// path with every round's scan split into `shards` concurrently running
// range tasks — the workflow engine's execution shape. The goroutines give
// the race detector a real interleaving to check.
func shardedSeedRun(t *testing.T, docs []sparse.Vector, dim int, opts Options, shards int) *Result {
	t.Helper()
	p := par.NewPool(1)
	defer p.Close()
	c, s, err := NewDeferredSeed(docs, dim, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	for r := s.Rounds(); r > 0; r-- {
		var wg sync.WaitGroup
		for q := 0; q < shards; q++ {
			lo, hi := pario.PartitionRange(len(docs), shards, q)
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.ScanRange(lo, hi)
			}()
		}
		wg.Wait()
		s.EndRound()
	}
	s.Finish()
	return c.Run(nil)
}

// TestShardedSeedingBitIdentical is the seeding half of the bit-identity
// contract: the deferred, sharded seeding path must choose the exact seed
// documents — and hence produce the bit-identical clustering — as the
// serial scan, at any shard count.
func TestShardedSeedingBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		docs []sparse.Vector
		dim  int
		opts Options
	}{
		{"blobs-k8", nil, 16, Options{K: 8, Seed: 9}},
		{"sparse-k16", sparseMix(600, 48, 7), 48, Options{K: 16, Seed: 5, Empty: ReseedFarthest}},
		{"identical-docs", nil, 4, Options{K: 3, Seed: 2}}, // degenerate rounds: total = 0
		{"k1", nil, 16, Options{K: 1, Seed: 4}},            // zero scan rounds
	}
	cases[0].docs, _ = blobs(500, 8, 16, 22)
	v := sparse.Vector{Idx: []uint32{1}, Val: []float64{2}}
	cases[2].docs = make([]sparse.Vector, 30)
	for i := range cases[2].docs {
		cases[2].docs[i] = v.Clone()
	}
	cases[3].docs, _ = blobs(100, 4, 16, 23)
	for _, tc := range cases {
		serial := func() *Result {
			p := par.NewPool(1)
			defer p.Close()
			res, err := Run(tc.docs, tc.dim, p, tc.opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}()
		if len(serial.Seeds) != tc.opts.K {
			t.Fatalf("%s: serial run chose %d seeds for k=%d", tc.name, len(serial.Seeds), tc.opts.K)
		}
		for _, shards := range []int{1, 4, 7} {
			sharded := shardedSeedRun(t, tc.docs, tc.dim, tc.opts, shards)
			if !reflect.DeepEqual(serial.Seeds, sharded.Seeds) {
				t.Errorf("%s/shards=%d: seeds %v != serial %v", tc.name, shards, sharded.Seeds, serial.Seeds)
			}
			a, b := *serial, *sharded
			a.SeedWall, b.SeedWall = 0, 0
			if !reflect.DeepEqual(&a, &b) {
				t.Errorf("%s/shards=%d: sharded-seed clustering differs from serial", tc.name, shards)
			}
			if sharded.SeedWall <= 0 {
				t.Errorf("%s/shards=%d: SeedWall not recorded", tc.name, shards)
			}
		}
	}
}

// sparseDocs draws n documents of about nnz nonzeros each, uniformly over
// dim — the shape of a TF/IDF corpus (cluster-local: dim 6 368, ≈ 80
// nonzeros), where a document's and a seed's supports barely overlap.
func sparseDocs(n, dim, nnz int, seed uint64) []sparse.Vector {
	rng := zipf.NewRNG(seed)
	docs := make([]sparse.Vector, n)
	for i := range docs {
		for d := 0; d < dim; d++ {
			if rng.Float64()*float64(dim) < float64(nnz) {
				docs[i].Append(uint32(d), rng.NormFloat64())
			}
		}
	}
	return docs
}

// TestSeedScanBitIdenticalToReference pins the seeding distance to its
// stated expression, max(0, ‖s‖² − 2·x·s + ‖x‖²) with the dot summed over
// the document's nonzeros in ascending index order, bit for bit — against
// seeds shorter and longer than the documents, documents with indices past
// the seed's Dim(), empty vectors, and norms inconsistent enough to drive
// the expression negative (the clamp).
func TestSeedScanBitIdenticalToReference(t *testing.T) {
	const dim = 400
	docs := append(sparseDocs(300, dim, 12, 41), sparse.Vector{})
	norms := make([]float64, len(docs))
	for i := range docs {
		norms[i] = docs[i].NormSq()
	}
	seeds := []sparse.Vector{
		{},
		// Dim() 4: every document reaches past it.
		{Idx: []uint32{3}, Val: []float64{-2}},
		// Longer than any document, over a quarter of the width.
		sparseDocs(1, dim/4, 60, 42)[0],
		// Much longer, full width.
		sparseDocs(1, dim, 150, 43)[0],
		// Only the last component.
		{Idx: []uint32{dim - 1}, Val: []float64{0.5}},
		// An exact duplicate of a document.
		docs[7].Clone(),
	}
	clamped := 0
	for si := range seeds {
		seed := &seeds[si]
		dense := seed.ToDense(dim)
		for _, seedNorm := range []float64{seed.NormSq(), seed.NormSq() - 3} {
			got := make([]float64, len(docs))
			for i := range got {
				got[i] = math.Inf(1)
			}
			SeedScanRange(docs, norms, dense, seedNorm, got)
			for i := range docs {
				dot := 0.0
				for j, idx := range docs[i].Idx {
					dot += docs[i].Val[j] * seed.At(idx)
				}
				want := seedNorm - 2*dot + norms[i]
				if want < 0 {
					want = 0
					clamped++
				}
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("seed %d norm %v doc %d: d2 = %v, reference %v", si, seedNorm, i, got[i], want)
				}
			}
		}
	}
	if clamped == 0 {
		t.Fatal("no input exercised the clamp")
	}
	// A min-update: a window already below the distance is left alone.
	low := []float64{-1}
	SeedScanRange(docs[:1], norms[:1], seeds[3].ToDense(dim), seeds[3].NormSq(), low)
	if low[0] != -1 {
		t.Fatalf("scan raised d2 from -1 to %v", low[0])
	}
}

// TestSeedAndDuplicatesScoreZero: the drawn seed and every exact duplicate
// of it get d2 == 0 exactly (n − 2n + n), so neither can be drawn again
// while another document has positive distance — at k = number of distinct
// documents every pick is a distinct vector, on real-valued normalized
// inputs where a rounding residue would otherwise leave the duplicates a
// sliver of probability mass.
func TestSeedAndDuplicatesScoreZero(t *testing.T) {
	const dim, distinct = 300, 12
	base := sparseDocs(distinct, dim, 25, 51)
	for i := range base {
		base[i].Normalize()
	}
	docs := make([]sparse.Vector, 0, 5*distinct)
	for rep := 0; rep < 5; rep++ {
		for i := range base {
			docs = append(docs, base[i].Clone())
		}
	}
	p := par.NewPool(1)
	defer p.Close()
	for seed := uint64(0); seed < 20; seed++ {
		_, s, err := NewDeferredSeed(docs, dim, p, Options{K: distinct, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		picked := map[int]bool{s.LastIndex() % distinct: true}
		for r := s.Rounds(); r > 0; r-- {
			s.ScanRange(0, len(docs))
			for i, d := range s.D2(0, len(docs)) {
				if picked[i%distinct] != (d == 0) {
					t.Fatalf("seed %d: document %d (copy of %d, picked=%v) has d2 = %v", seed, i, i%distinct, picked[i%distinct], d)
				}
			}
			s.EndRound()
			if picked[s.LastIndex()%distinct] {
				t.Fatalf("seed %d: picked a duplicate of an earlier seed (document %d)", seed, s.LastIndex())
			}
			picked[s.LastIndex()%distinct] = true
		}
		s.Finish()
	}
}

// TestScanRangeAllocatesNothing pins the scan at zero allocations: the
// seed scratch belongs to the Seeding, not to a call.
func TestScanRangeAllocatesNothing(t *testing.T) {
	docs := sparseDocs(200, 5000, 80, 61)
	p := par.NewPool(1)
	defer p.Close()
	_, s, err := NewDeferredSeed(docs, 5000, p, Options{K: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() { s.ScanRange(0, len(docs)) }); allocs != 0 {
		t.Fatalf("ScanRange allocates %v times per call, want 0", allocs)
	}
	// EndRound's re-scatter is in place too (chosen was sized for k).
	if allocs := testing.AllocsPerRun(1, func() { s.EndRound() }); allocs != 0 {
		t.Fatalf("EndRound allocates %v times per call, want 0", allocs)
	}
}
