package kmeans

import (
	"math"
	"time"

	"hpa/internal/sparse"
	"hpa/internal/zipf"
)

// This file decomposes K-Means++ seeding into the same shard-kernel shape
// as the iteration loop, so the workflow engine can run each seed round's
// distance scan as parallel document-range tasks (locally or as remote
// kernels on the affinity-pinned loop-shard sessions) while the chosen
// seeds stay bit-identical to the serial scan.
//
// # Why sharding cannot change the seeds
//
// The serial scan (SimpleKMeans.seedPlusPlus still has this shape)
// interleaves, per document in ascending order, a min-update of the running
// distance array with a running-total add:
//
//	d := dist(doc[i], last); if d < d2[i] { d2[i] = d }; total += d2[i]
//
// The decomposed form splits this into two passes: ScanRange performs only
// the per-element min-updates (order-independent — each element depends on
// nothing but itself), and EndRound then sums the full d2 array in
// ascending document order. The total is therefore the sum of the same
// float values in the same order as the serial loop — bit-identical —
// and the RNG consumption (one Float64 per non-degenerate round, one Intn
// per degenerate one) is unchanged. Since ScanRange touches disjoint
// [lo, hi) windows, any shard decomposition on any backend produces the
// identical d2 array at the EndRound barrier, hence the identical pick.
//
// # The distance is a gather, not a merge
//
// dist is the expression assignment uses, max(0, ‖s‖² − 2·x·s + ‖x‖²): the
// round's seed s is scattered once into a dense scratch of dim floats, so
// each document costs one sparse·dense dot over its own nonzeros instead
// of a three-way merge over the union of both supports. ‖x‖² is the
// document norm the clusterer already holds and ‖s‖² is the seed's
// Vector.NormSq(), the sum that produced its document norm, so the seed
// and its exact duplicates score n − 2n + n = 0 exactly. Every execution
// mode calls the one SeedScanRange, and the dense baseline runs the same
// expression over dense rows (zeros add exact zeros), so seeds agree.

// Seeding is the decomposed K-Means++ seeding state returned by
// NewDeferredSeed (and driven internally by New): after BeginSeeding drew
// the uniform first seed, each of Rounds() rounds runs ScanRange over a
// partition of the documents followed by one EndRound barrier that draws
// the next seed; Finish installs the chosen documents as centroids.
type Seeding struct {
	c      *Clusterer
	rng    *zipf.RNG
	d2     []float64 // per-document squared distance to the nearest chosen seed
	chosen []int
	// seed is the round's seed — Last() — scattered dense over dim, and
	// seedNorm its squared norm. It borrows centroid row 0, idle until
	// Finish (which clears each row before installing its seed).
	seed     []float64
	seedNorm float64
	start    time.Time
}

// BeginSeeding starts K-Means++ seeding: it draws the uniform first seed
// and prepares the running min-distance array. Exposed for the deferred
// path; callers must then drive Rounds()×(ScanRange*, EndRound) and
// Finish before using the clusterer.
func (c *Clusterer) BeginSeeding() *Seeding {
	s := &Seeding{
		c:      c,
		rng:    zipf.NewRNG(c.opts.Seed ^ 0x6b6d65616e73), // "kmeans"
		d2:     make([]float64, len(c.docs)),
		chosen: make([]int, 0, c.opts.K),
		seed:   c.centroids[0],
		start:  time.Now(),
	}
	for i := range s.d2 {
		s.d2[i] = math.Inf(1)
	}
	s.choose(s.rng.Intn(len(c.docs)))
	return s
}

// choose records document pick as the next seed and makes it the scan
// target, zeroing the previous seed's components by its own indices.
func (s *Seeding) choose(pick int) {
	if len(s.chosen) > 0 {
		for _, idx := range s.Last().Idx {
			s.seed[idx] = 0
		}
	}
	s.chosen = append(s.chosen, pick)
	last := s.Last()
	sparse.AddInto(s.seed, last, 1)
	s.seedNorm = last.NormSq()
}

// Rounds returns the number of distance-scan rounds seeding needs: one per
// centroid after the uniformly drawn first (k−1 total, 0 when k = 1).
func (s *Seeding) Rounds() int { return s.c.opts.K - 1 }

// Last returns the most recently chosen seed document — the vector the
// current round scans distances against. Read-only.
func (s *Seeding) Last() *sparse.Vector { return &s.c.docs[s.chosen[len(s.chosen)-1]] }

// LastIndex returns the document index of the most recent pick.
func (s *Seeding) LastIndex() int { return s.chosen[len(s.chosen)-1] }

// D2 returns the [lo, hi) window of the running min-distance array — what
// a remote seeding task ships out. Read-only between ScanRange calls.
func (s *Seeding) D2(lo, hi int) []float64 { return s.d2[lo:hi] }

// SetD2 installs a remotely computed window of the min-distance array at
// document offset lo — the write-back half of a remote seeding shard.
// Distinct shards may apply concurrently; their ranges are disjoint.
func (s *Seeding) SetD2(lo int, d2 []float64) {
	copy(s.d2[lo:lo+len(d2)], d2)
}

// ScanRange runs the current round's distance scan over documents
// [lo, hi): a pure per-element min-update against the last chosen seed.
// Distinct ranges may run concurrently. Allocates nothing.
func (s *Seeding) ScanRange(lo, hi int) {
	SeedScanRange(s.c.docs[lo:hi], s.c.docNorms[lo:hi], s.seed, s.seedNorm, s.d2[lo:hi])
}

// SeedScanRange is the seeding scan kernel itself, shared by the serial
// path, the coordinator's sharded tasks and remote seeding workers so
// every execution mode runs the exact same per-document code: d2[i] is
// lowered to sparse.DistSqDense(docs[i], seed) where that is smaller.
// seed is the round's seed scattered dense over the loop's dimension,
// seedNorm its Vector.NormSq(), norms[i] the squared norm of docs[i].
func SeedScanRange(docs []sparse.Vector, norms, seed []float64, seedNorm float64, d2 []float64) {
	for i := range docs {
		d := sparse.DistSqDense(&docs[i], norms[i], seed, seedNorm)
		if d < d2[i] {
			d2[i] = d
		}
	}
}

// EndRound is the per-round barrier: it sums the min-distance array in
// ascending document order (the bit-identity anchor — see the file
// comment) and draws the round's seed with probability proportional to
// squared distance, falling back to a uniform draw when every distance is
// zero (identical documents).
func (s *Seeding) EndRound() {
	n := len(s.d2)
	total := 0.0
	for i := 0; i < n; i++ {
		total += s.d2[i]
	}
	var pick int
	if total <= 0 {
		pick = s.rng.Intn(n) // degenerate: identical documents
	} else {
		r := s.rng.Float64() * total
		acc := 0.0
		pick = n - 1
		for i := 0; i < n; i++ {
			acc += s.d2[i]
			if acc >= r {
				pick = i
				break
			}
		}
	}
	s.choose(pick)
}

// Finish installs the chosen documents as the initial centroids (and their
// blocked-kernel transpose) — overwriting the borrowed seed scratch — and
// records the seeding wall time. Must be called exactly once, after the
// final EndRound.
func (s *Seeding) Finish() {
	for j, idx := range s.chosen {
		copyInto(s.c.centroids[j], &s.c.docs[idx], s.c.dim)
		s.c.cnorms[j] = normSq(s.c.centroids[j])
	}
	s.c.seeds = s.chosen
	if s.c.layout != nil {
		s.c.layout.Fill(s.c.centroids)
	}
	s.c.seedWall = time.Since(s.start)
}
