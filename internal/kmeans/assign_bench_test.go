package kmeans

import (
	"testing"

	"hpa/internal/par"
	"hpa/internal/pario"
	"hpa/internal/sparse"
)

// BenchmarkAssignBlocked measures what the blocked distance kernel buys on
// the assignment scan: a full clustering loop through the deterministic
// sharded path (the workflow engine's execution shape), sweeping the lane
// width from the pinned scalar kernel through 4 and 8 lanes, over a blob
// corpus at k=8, an overlapping sparse corpus at k=16, and the
// cluster-local shape (dim 6 368, about 76 nonzeros per document, k=16).
// Results are bit-identical at every width (the
// TestBlockedAssignBitIdentical contract): one sweep of a document's
// nonzeros feeds B accumulators instead of B sweeps feeding one, and the
// 8-lane width runs on AVX2 registers where the CPU has them.
func BenchmarkAssignBlocked(b *testing.B) {
	blobDocs, _ := blobs(2000, 8, 32, 7)
	datasets := []struct {
		name string
		docs []sparse.Vector
		dim  int
		opts Options
	}{
		{"blobs-k8", blobDocs, 32, Options{K: 8, Seed: 3, MaxIter: 30}},
		{"sparse-k16", sparseMix(1500, 64, 11), 64, Options{K: 16, Seed: 1, MaxIter: 30}},
		{"tfidf-k16", sparseDocs(3000, 6368, 76, 7), 6368, Options{K: 16, Seed: 1, MaxIter: 10}},
	}
	const shards = 4
	widths := []struct {
		name  string
		block int
	}{{"scalar", -1}, {"b4", 4}, {"b8", 8}}
	for _, ds := range datasets {
		for _, w := range widths {
			b.Run(ds.name+"/block="+w.name, func(b *testing.B) {
				pool := par.NewPool(1)
				defer pool.Close()
				opts := ds.opts
				opts.Block = w.block
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c, err := New(ds.docs, ds.dim, pool, opts)
					if err != nil {
						b.Fatal(err)
					}
					accs := make([]*Accum, shards)
					for q := range accs {
						accs[q] = c.NewAccum()
					}
					for !c.Done() {
						for q := range accs {
							accs[q].Reset()
							lo, hi := pario.PartitionRange(len(ds.docs), shards, q)
							c.AssignShard(lo, hi, accs[q])
						}
						c.EndIteration(accs)
					}
					c.Finalize()
				}
			})
		}
	}
}

// BenchmarkSeeding measures K-Means++ seeding, serial versus decomposed
// into the executor's shape (per-shard ScanRange waves with a serial
// EndRound draw between them) — the prepare-protocol path the workflow
// engine dispatches, minus scheduling. Seeds are bit-identical in both
// shapes (the decomposition is an exact refactoring of the serial loop),
// so the gap is pure parallelizable-scan exposure. Two corpora: blobs is
// dim 32 and nearly dense, where a merge over both supports and a gather
// over the document's cost the same; tfidf is the cluster-local shape (dim
// 6 000, ≈ 80 nonzeros per document, supports that barely overlap), the
// one that can see the scan kernel. ns/doc-round is the whole seeding —
// allocation, scans, draws, centroid install — per (document × scan round).
func BenchmarkSeeding(b *testing.B) {
	blobDocs, _ := blobs(2000, 8, 32, 7)
	const k, shards = 16, 4
	pool := par.NewPool(1)
	defer pool.Close()
	for _, ds := range []struct {
		name string
		docs []sparse.Vector
		dim  int
	}{{"blobs", blobDocs, 32}, {"tfidf", sparseDocs(2000, 6000, 80, 7), 6000}} {
		perDocRound := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ds.docs)*(k-1)), "ns/doc-round")
		}
		b.Run(ds.name+"/serial", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(ds.docs, ds.dim, pool, Options{K: k, Seed: 3}); err != nil {
					b.Fatal(err)
				}
			}
			perDocRound(b)
		})
		b.Run(ds.name+"/sharded", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, s, err := NewDeferredSeed(ds.docs, ds.dim, pool, Options{K: k, Seed: 3})
				if err != nil {
					b.Fatal(err)
				}
				for r := 0; r < s.Rounds(); r++ {
					for q := 0; q < shards; q++ {
						lo, hi := pario.PartitionRange(len(ds.docs), shards, q)
						s.ScanRange(lo, hi)
					}
					s.EndRound()
				}
				s.Finish()
			}
			perDocRound(b)
		})
	}
}
