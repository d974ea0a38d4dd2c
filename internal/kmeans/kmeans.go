// Package kmeans implements the paper's numeric operator: K-Means
// clustering of documents represented as (normalized TF/IDF) sparse
// vectors (Section 3.1).
//
// Two implementations are provided:
//
//   - Clusterer: the paper's optimized operator. Its key optimizations are
//     the ones the paper names: "(i) Using sparse vectors to represent
//     inherently sparse data. (ii) Recycling data structures throughout the
//     K-means iterations to avoid redundant data copies and memory
//     pressure. E.g., we do not create new objects during the iterations."
//     All loops over documents run in parallel on a par.Pool.
//   - SimpleKMeans (baseline.go): a faithful analogue of WEKA 3.6's
//     SimpleKMeans cost profile — dense vectors over the full vocabulary
//     dimension, fresh allocations every iteration, single-threaded — the
//     comparator the paper aborted after two hours.
//
// Both use identical K-Means++ seeding, assignment rule and convergence
// criterion, so their clusterings agree; only the engineering differs.
//
// A result is a function of (input, options) only — not of GOARCH (every
// product feeding an add is pinned, see the sparse package's Rounding
// section), shard count, worker count, backend, block width or
// scheduling: one clustering per input, bit for bit. Shards return only
// position-independent results (assignment, distance, moved count); every
// float that sums over documents — each centroid component, the inertia —
// is a left fold in ascending document order on the coordinator.
//
// # Iterative shard contract
//
// The Clusterer is decomposed into the kernels of the partitioned
// (shard-granular) execution substrate, so the workflow engine can drive
// the K-Means loop as per-shard tasks with one reduction barrier per
// iteration:
//
//   - AssignShard assigns one contiguous document range: each document's
//     nearest centroid and distance land in the clusterer's per-document
//     arrays, and the shard's Accum counts the moved assignments — the
//     embarrassingly parallel part of an iteration. Accums are allocated
//     once (NewAccum) and recycled across iterations;
//   - EndIteration recomputes the centroids whose member set changed: one
//     pass over the assignments against the previous iteration's marks
//     the old and new cluster of every document that moved, one counting
//     sort lists each cluster's members in ascending document order, and
//     each marked centroid is cleared, summed over those members' nonzeros
//     and scaled by 1/count — clusters in parallel on the pool, each a
//     left fold in document order. An unmarked cluster would fold the same
//     members in the same order with the same 1/count, so skipping it
//     leaves every bit where it was: the skip is exact, and a stable
//     cluster costs nothing. It sums the distances in document order for
//     the inertia, applies the empty-cluster policy and advances the
//     convergence state. Nothing it computes depends on how the documents
//     were sharded, and it allocates nothing (the member order and the
//     previous assignments are allocated once), preserving the paper's
//     no-allocation-inside-iterations property;
//   - Done/Finalize expose the loop exit and the assembled Result.
//
// K-Means++ seeding is decomposed the same way (seed.go): each of the
// K-1 scan rounds splits into per-shard min-distance updates (ScanRange,
// order-independent over disjoint ranges) followed by a serial ascending
// total-and-draw on the coordinator (EndRound) — an exact refactoring of
// the serial interleaved loop, so the RNG consumes identical draws and
// the chosen seeds are bit-identical to serial seeding at any shard
// count and on any backend.
//
// Step and Run are the library driver over the same kernels: Step carves
// the documents into one fixed contiguous range per pool worker, runs
// AssignShard over each range, then EndIteration — so the driver and the
// workflow engine's iterative shard loop execute identical code and
// produce identical bits at any pool size.
//
// # Blocked distance kernel
//
// AssignRange scans all k centroids for every document on a transposed,
// block-major centroid layout (sparse.BlockLayout): one sweep of a
// document's nonzeros accumulates dot products to B centroids in B
// register-resident accumulators, instead of re-walking the Idx/Val
// arrays once per centroid. Options.Block selects the width (0 resolves
// by k: 8 lanes from k >= 8, 4 from k >= 4, scalar below; 4 and 8 pin a
// width; negative pins the scalar kernel, the reference the equality
// tests compare against). After each update the changed centroids' lanes
// are re-transposed, in (block, term range) tiles on the pool — at most
// O(k·dim), amortized over the O(n·nnz·k) scan it accelerates.
//
// Blocking is bit-identical by construction, not by tolerance: each
// lane's accumulator performs the float operations DotDense performs for
// that centroid — one rounded product, one rounded sum — in the same
// ascending nonzero order, whether the lanes are Go scalars or, on amd64
// with AVX2, YMM registers; and the distance expression and argmin
// comparison sequence are unchanged. Only which centroid's accumulation
// advances first differs, which no non-NaN result depends on (a NaN dot
// stays NaN, with an unspecified payload; valid vectors carry none).
// Assignments, inertia history, centroids and convergence are therefore
// identical at every block size, shard count and backend (the matrix test
// cycles block sizes to assert it), so coordinator and workers may even
// pick different widths or CPUs.
//
// There are no triangle-inequality distance bounds to skip scans with:
// with the blocked kernel a full k-way scan costs about what the
// mandatory own-centroid distance plus bound upkeep cost, and normalized
// TF/IDF distances concentrate so few scans can be skipped — the full
// scan won every measured workload up to k = 64, and the question reopens
// only around k >= 128 on well-separated data.
//
// K-Means++ seeding runs the same expression on a gather kernel, not the
// blocked one: each of the k−1 seed rounds scans against the single most
// recently drawn seed, and the next round's scan target depends on the
// draw the previous round's total funded — there is never more than one
// centroid to batch a sweep over. So the round's seed is scattered once
// into a dense scratch and SeedScanRange lowers d2[i] to one
// sparse.DistSqDense over the document's own nonzeros (seed.go).
package kmeans

import (
	"errors"
	"fmt"
	"math"
	"time"

	"hpa/internal/metrics"
	"hpa/internal/par"
	"hpa/internal/sparse"
)

// PhaseKMeans is the Figure 3/4 legend name for clustering time.
const PhaseKMeans = "kmeans"

// fillTile is the number of terms per BlockLayout.FillRange task when
// EndIteration re-transposes the changed centroids on the pool: 512 terms
// of an 8-lane block are 32 KB of layout.
const fillTile = 512

// ErrOptions reports invalid clustering options. Validation errors wrap it,
// so callers can test errors.Is(err, ErrOptions).
var ErrOptions = errors.New("kmeans: invalid options")

// Options configures a clustering run.
type Options struct {
	// K is the number of clusters (the paper uses 8).
	K int
	// MaxIter bounds the number of iterations (0 selects 100; negative is
	// rejected).
	MaxIter int
	// Tol declares convergence when the relative inertia improvement drops
	// below it (0 selects 1e-6; negative is rejected). Convergence is also
	// declared when no assignment changes.
	Tol float64
	// Seed drives K-Means++ seeding deterministically.
	Seed uint64
	// DocNorms optionally supplies the squared Euclidean norm of every
	// document, in document order. The partitioned TF/IDF gather stage
	// computes norms shard-by-shard as shards arrive, so assignment can
	// start without re-walking the whole corpus. A non-nil slice whose
	// length does not match the document count is a validation error; the
	// slice is used directly and must not be mutated while clustering runs.
	DocNorms []float64
	// Empty selects how clusters that lose all members are handled.
	Empty EmptyPolicy
	// Block selects the blocked distance kernel's lane width (see the
	// package comment): 0 resolves automatically by k, 4 and 8 pin that
	// width, and a negative value pins the scalar kernel. Results are
	// bit-identical at every width; any other value is rejected.
	Block int
}

// BlockSize resolves the Block knob at cluster count k to the lane width
// the kernel will run (0 = scalar). Exported so remote shard workers
// resolve the same width the coordinator shipped.
func BlockSize(block, k int) int {
	switch {
	case block < 0:
		return 0
	case block > 0:
		return block
	case k >= 8:
		return 8
	case k >= 4:
		return 4
	default:
		return 0
	}
}

// validate checks the options against a document count and applies the
// defaults, so both implementations (Clusterer and SimpleKMeans) share one
// validation and one set of defaults. Every failure wraps ErrOptions.
func (o *Options) validate(docs int) error {
	if o.K < 1 {
		return fmt.Errorf("%w: k=%d, want k >= 1", ErrOptions, o.K)
	}
	if docs < o.K {
		return fmt.Errorf("%w: %d documents < k=%d", ErrOptions, docs, o.K)
	}
	if o.MaxIter < 0 {
		return fmt.Errorf("%w: MaxIter=%d is negative", ErrOptions, o.MaxIter)
	}
	if o.Tol < 0 {
		return fmt.Errorf("%w: Tol=%v is negative", ErrOptions, o.Tol)
	}
	if o.DocNorms != nil && len(o.DocNorms) != docs {
		return fmt.Errorf("%w: DocNorms has %d entries for %d documents",
			ErrOptions, len(o.DocNorms), docs)
	}
	if b := o.Block; b > 0 && b != 4 && b != 8 {
		return fmt.Errorf("%w: Block=%d, want 4, 8, 0 (auto) or negative (scalar)", ErrOptions, b)
	}
	if o.MaxIter == 0 {
		o.MaxIter = 100
	}
	if o.Tol == 0 {
		o.Tol = 1e-6
	}
	return nil
}

// EmptyPolicy selects the empty-cluster strategy.
type EmptyPolicy int

const (
	// KeepCentroid leaves an empty cluster's centroid where it was (it may
	// reacquire members later). This is the default and matches the dense
	// baseline, so the implementations stay comparable.
	KeepCentroid EmptyPolicy = iota
	// ReseedFarthest moves an empty cluster's centroid onto the document
	// currently farthest from its assigned centroid — the standard repair
	// that guarantees k non-empty clusters on distinct inputs.
	ReseedFarthest
)

// Result is the clustering output.
type Result struct {
	// Assign maps document index to cluster.
	Assign []int32
	// Centroids holds k dense centroid vectors.
	Centroids [][]float64
	// Counts holds the cluster sizes.
	Counts []int64
	// Inertia is the summed squared distance of documents to their
	// centroids at the final assignment.
	Inertia float64
	// Iterations is the number of executed iterations.
	Iterations int
	// History records inertia after each iteration.
	History []float64
	// Converged reports whether the run stopped before MaxIter.
	Converged bool
	// Seeds holds the K-Means++ chosen seed document indices in pick
	// order — the determinism witness the bit-identity tests compare
	// across shard counts and backends.
	Seeds []int
	// SeedWall is the wall time K-Means++ seeding took, whether the scan
	// rounds ran serially or as sharded tasks.
	SeedWall time.Duration
	// Prune is always zero; see PruneStats.
	Prune PruneStats
}

// PruneStats is the vestige of the deleted triangle-inequality assignment
// pruning: every document-iteration runs the full k-way scan, so both
// members report zero. It survives only because bench/layers.go reads
// Result.Prune.Skipped and Result.Prune.SkipRate() and bench/ is frozen
// outside benchmark PRs; the benchmark PR that drops the kmeans.skip_rate
// layer metric deletes this type and Result.Prune with it.
type PruneStats struct {
	Skipped int64
}

// SkipRate returns 0: no k-way scan is ever skipped.
func (PruneStats) SkipRate() float64 { return 0 }

// Clusterer holds all state for the optimized operator. Every buffer is
// allocated in New; iterations perform no per-document allocation (the
// paper's recycling optimization), which the tests assert.
type Clusterer struct {
	docs     []sparse.Vector
	docNorms []float64
	dim      int
	pool     *par.Pool
	opts     Options

	centroids  [][]float64
	cnorms     []float64
	layout     *sparse.BlockLayout // blocked-kernel centroid transpose (nil = scalar)
	counts     []int64
	assign     []int32
	dists      []float64 // per-doc distance to assigned centroid
	members    []int32   // documents grouped by cluster, ascending within each
	starts     []int     // cluster j's members are members[starts[j]:starts[j+1]]
	prevAssign []int32   // assign as of the previous EndIteration (-1 before the first)
	updated    []bool    // clusters whose centroid the last EndIteration rewrote
	ranges     []*Accum  // Step's partials, one per document range
	history    []float64
	inertia    float64
	iter       int
	seeds      []int
	seedWall   time.Duration

	// Convergence state shared by Step/Run and the iterative shard loop.
	prev      float64 // previous iteration's inertia (+Inf before the first)
	done      bool
	converged bool
}

// Accum is one strand's (or loop shard's) per-iteration partial: the
// number of documents whose assignment changed, plus the blocked kernel's
// dot scratch. Everything else a shard computes lands in the clusterer's
// per-document arrays. Accums are allocated once (NewAccum) and recycled
// across iterations via Reset.
type Accum struct {
	dots    []float64 // blocked-kernel scratch: one dot per (padded) centroid
	changed int
}

// Reset clears the moved count for the next iteration.
func (a *Accum) Reset() { a.changed = 0 }

// NewAccum allocates a partial for the clusterer. The workflow engine's
// iterative loop allocates one per shard up front and recycles them.
func (c *Clusterer) NewAccum() *Accum { return &Accum{dots: DotScratch(c.opts.K)} }

// DotScratch allocates the blocked kernel's per-document dot scratch for k
// clusters, sized for the widest block (8 lanes) so it serves any
// resolved width — what AssignRange's dots argument wants.
func DotScratch(k int) []float64 { return make([]float64, (k+7)&^7) }

// New prepares a clusterer, running K-Means++ seeding serially. The
// documents are not copied; they must not be mutated during clustering.
// dim is the dense dimensionality (vocabulary size).
func New(docs []sparse.Vector, dim int, pool *par.Pool, opts Options) (*Clusterer, error) {
	c, err := newClusterer(docs, dim, pool, opts)
	if err != nil {
		return nil, err
	}
	c.seed()
	return c, nil
}

// NewDeferredSeed prepares a clusterer without running K-Means++ seeding
// and returns the Seeding state the caller must drive to completion
// (seed.go) before the first Step or AssignShard. The workflow engine uses
// this to run each seed round's distance scan as parallel shard tasks
// through the executor; New drives the identical kernels serially, so both
// paths choose bit-identical seeds.
func NewDeferredSeed(docs []sparse.Vector, dim int, pool *par.Pool, opts Options) (*Clusterer, *Seeding, error) {
	c, err := newClusterer(docs, dim, pool, opts)
	if err != nil {
		return nil, nil, err
	}
	return c, c.BeginSeeding(), nil
}

// newClusterer validates and allocates everything except the seed
// centroids (Seeding.Finish).
func newClusterer(docs []sparse.Vector, dim int, pool *par.Pool, opts Options) (*Clusterer, error) {
	if err := opts.validate(len(docs)); err != nil {
		return nil, err
	}
	for i := range docs {
		if d := docs[i].Dim(); d > dim {
			return nil, fmt.Errorf("kmeans: document %d has dimension %d > %d", i, d, dim)
		}
	}
	c := &Clusterer{
		docs:       docs,
		docNorms:   opts.DocNorms,
		dim:        dim,
		pool:       pool,
		opts:       opts,
		centroids:  make([][]float64, opts.K),
		cnorms:     make([]float64, opts.K),
		counts:     make([]int64, opts.K),
		assign:     make([]int32, len(docs)),
		dists:      make([]float64, len(docs)),
		members:    make([]int32, len(docs)),
		starts:     make([]int, opts.K+1),
		prevAssign: make([]int32, len(docs)),
		updated:    make([]bool, opts.K),
		inertia:    math.Inf(1),
		prev:       math.Inf(1),
	}
	for i := range c.centroids {
		c.centroids[i] = make([]float64, dim)
	}
	if c.docNorms == nil {
		c.docNorms = make([]float64, len(docs))
		for i := range docs {
			c.docNorms[i] = docs[i].NormSq()
		}
	}
	for i := range c.assign {
		c.assign[i] = -1
		c.prevAssign[i] = -1
	}
	if b := BlockSize(opts.Block, opts.K); b > 0 {
		c.layout = sparse.NewBlockLayout(opts.K, dim, b)
	}
	return c, nil
}

// seed runs K-Means++ serially by driving the decomposed seeding kernels
// (seed.go) over the full document range — the same code the workflow
// engine runs as sharded tasks, so both choose bit-identical seeds.
func (c *Clusterer) seed() {
	s := c.BeginSeeding()
	for r := s.Rounds(); r > 0; r-- {
		s.ScanRange(0, len(c.docs))
		s.EndRound()
	}
	s.Finish()
}

func copyInto(dst []float64, v *sparse.Vector, dim int) {
	for i := range dst {
		dst[i] = 0
	}
	sparse.AddInto(dst, v, 1)
}

func normSq(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += float64(v * v)
	}
	return s
}

// AssignShard runs one iteration's assignment over documents [lo, hi):
// every document is assigned to its nearest centroid (ties broken by the
// lowest cluster index, identically in every execution mode), its
// assignment and distance are written to the clusterer's per-document
// arrays, and a counts the moved assignments: one AssignRange call over the
// range. Distinct ranges may run concurrently; a single Accum must only be
// used by one range at a time. AssignShard allocates nothing.
func (c *Clusterer) AssignShard(lo, hi int, a *Accum) {
	a.changed += AssignRange(lo, hi, c.opts.K, c.docs, c.docNorms,
		c.centroids, c.cnorms, c.layout, c.assign, c.dists, a.dots)
}

// AssignRange is the assignment inner loop itself, shared by
// Clusterer.AssignShard and remote shard workers so both execute the exact
// same per-document code (the structural guarantee behind cross-backend
// bit-identical results): documents docs[lo:hi] are each assigned to the
// nearest of the k centroids (ties broken by the lowest cluster index),
// and their entries of assign and dists — indexed by absolute document
// position — are updated in place. It returns how many assignments
// changed. dots is the blocked kernel's scratch (DotScratch; unused by the
// scalar kernel). AssignRange allocates nothing.
//
// A non-nil layout routes the k-way scan through the blocked distance
// kernel (sparse.BlockLayout.DotsInto): one sweep of the document's
// nonzeros yields all k dots, and the per-centroid distance expression and
// argmin comparisons run unchanged over them — bit-identical to the scalar
// path (nil layout) at every block size (see the package comment). The
// layout must hold the same centroids the centroids slice does.
func AssignRange(lo, hi, k int, docs []sparse.Vector, docNorms []float64,
	centroids [][]float64, cnorms []float64, layout *sparse.BlockLayout,
	assign []int32, dists, dots []float64) (moved int) {
	for i := lo; i < hi; i++ {
		v := &docs[i]
		best, bestD := int32(0), math.Inf(1)
		if layout != nil {
			layout.DotsInto(v, dots)
			dn := docNorms[i]
			for j := 0; j < k; j++ {
				d := cnorms[j] - 2*dots[j] + dn
				if d < bestD {
					bestD = d
					best = int32(j)
				}
			}
		} else {
			for j := 0; j < k; j++ {
				d := cnorms[j] - 2*sparse.DotDense(v, centroids[j]) + docNorms[i]
				if d < bestD {
					bestD = d
					best = int32(j)
				}
			}
		}
		if bestD < 0 {
			bestD = 0
		}
		if assign[i] != best {
			assign[i] = best
			moved++
		}
		dists[i] = bestD
	}
	return moved
}

// EndIteration is the per-iteration update, run once every document of
// the iteration has been assigned: it sums the shards' moved counts, sums
// the distances in ascending document order for the inertia, recomputes
// every non-empty cluster whose member set changed since the previous
// iteration from its members (applying the empty-cluster policy) and
// re-transposes those centroids' lanes of the blocked layout, then
// advances the convergence state exactly as Run's loop always has: stop
// when no assignment changed, when the relative inertia improvement drops
// below Tol, or when MaxIter is reached. It returns the iteration's
// inertia and moved count; Done reports whether the loop should stop, and
// Updated which centroids it rewrote.
//
// Each centroid component is the left fold, in ascending document order,
// of the cluster members' values, scaled once by 1/count — so the bits
// depend only on the assignments, never on how many shards produced them
// or in which order accs lists them. A cluster whose members did not
// change would fold to the bits it holds, so it is not folded at all.
// EndIteration allocates nothing beyond the amortized history append.
func (c *Clusterer) EndIteration(accs []*Accum) (float64, int) {
	changed := 0
	for _, a := range accs {
		changed += a.changed
	}
	// Before the empty policy, which zeroes the distance of each document
	// it claims.
	inertia := 0.0
	for _, d := range c.dists {
		inertia += d
	}
	c.markMoved()
	c.groupMembers()
	// Clusters touch disjoint state (centroid row j, its norm, count and
	// mark), and fill tiles disjoint layout memory, so running either on
	// the pool is bit-identical to the serial loop.
	each := func(n int, f func(int)) {
		if c.pool.Workers() > 1 {
			c.pool.For(0, n, 1, f)
			return
		}
		for i := 0; i < n; i++ {
			f(i)
		}
	}
	each(c.opts.K, func(j int) {
		members := c.members[c.starts[j]:c.starts[j+1]]
		c.counts[j] = int64(len(members))
		if len(members) == 0 {
			// KeepCentroid: empty clusters keep their previous centroid.
			c.updated[j] = false
			return
		}
		if !c.updated[j] {
			return // Same members: the fold would rewrite the same bits.
		}
		cent := c.centroids[j]
		clear(cent)
		for _, i := range members {
			v := &c.docs[i]
			for e, idx := range v.Idx {
				cent[idx] += v.Val[e]
			}
		}
		inv := 1 / float64(len(members))
		for t, x := range cent {
			cent[t] = x * inv
		}
		c.cnorms[j] = normSq(cent)
	})
	// The empty-cluster policy runs after every mean exists, in ascending
	// cluster order: reseeds consume the farthest-document pool
	// sequentially (each zeroes its claimed document's distance), and they
	// never read another cluster's mean.
	if c.opts.Empty == ReseedFarthest {
		for j := 0; j < c.opts.K; j++ {
			if c.counts[j] == 0 {
				c.updated[j] = c.reseedEmpty(j)
			}
		}
	}
	if c.layout != nil {
		// Re-transpose the updated centroids for the next iteration's
		// blocked scans — after the empty policy, so a reseeded centroid
		// lands in the layout too. Every other lane already holds its
		// centroid's bits.
		tiles := (c.dim + fillTile - 1) / fillTile
		each(c.layout.Blocks()*tiles, func(t int) {
			lo := t % tiles * fillTile
			c.layout.FillRange(c.centroids, c.updated, t/tiles, lo, min(lo+fillTile, c.dim))
		})
	}
	c.iter++
	c.inertia = inertia
	c.history = append(c.history, inertia)
	switch {
	case changed == 0:
		c.converged, c.done = true, true
	// The tolerance test needs a finite previous inertia: the first
	// iteration always proceeds.
	case !math.IsInf(c.prev, 1) && c.prev-inertia <= c.opts.Tol*c.prev:
		c.converged, c.done = true, true
	default:
		c.prev = inertia
	}
	if c.iter >= c.opts.MaxIter {
		c.done = true
	}
	return inertia, changed
}

// markMoved marks the clusters whose member set changed since the
// previous EndIteration — the old and the new cluster of every document
// whose assignment differs from the recorded one — and records the
// assignments for the next comparison. A cluster's member set is
// unchanged exactly when no document entered or left it.
func (c *Clusterer) markMoved() {
	clear(c.updated)
	for i, a := range c.assign {
		if p := c.prevAssign[i]; p != a {
			if p >= 0 {
				c.updated[p] = true
			}
			c.updated[a] = true
			c.prevAssign[i] = a
		}
	}
}

// Updated reports, per cluster, whether the last EndIteration rewrote its
// centroid — recomputed from a changed member set, or reseeded — and so
// which rows of Centroids differ from the previous iteration's; all false
// before the first EndIteration. The slice is live: treat it as read-only,
// and do not retain it across EndIteration.
func (c *Clusterer) Updated() []bool { return c.updated }

// groupMembers lists every cluster's members in ascending document order
// with one stable counting sort of the assignments: cluster j's members
// end up in members[starts[j]:starts[j+1]].
func (c *Clusterer) groupMembers() {
	starts := c.starts
	clear(starts)
	for _, a := range c.assign {
		starts[a+1]++
	}
	for j := 1; j < len(starts); j++ {
		starts[j] += starts[j-1]
	}
	// starts[j] is now cluster j's first slot; placing advances it to
	// cluster j's end, which is cluster j+1's start — shift back by one.
	for i, a := range c.assign {
		c.members[starts[a]] = int32(i)
		starts[a]++
	}
	copy(starts[1:], starts[:len(starts)-1])
	starts[0] = 0
}

// Done reports whether the iteration loop should stop (convergence or
// MaxIter).
func (c *Clusterer) Done() bool { return c.done }

// Iterations returns the number of iterations executed so far.
func (c *Clusterer) Iterations() int { return c.iter }

// Step runs one K-Means iteration: parallel assignment over one
// contiguous document range per pool worker (AssignShard), then the
// centroid update (EndIteration). It returns the new inertia and the
// number of documents whose assignment changed. Step allocates nothing
// after its first call.
func (c *Clusterer) Step() (float64, int) {
	for len(c.ranges) < c.pool.Workers() {
		c.ranges = append(c.ranges, c.NewAccum())
	}
	n, nr := len(c.docs), len(c.ranges)
	c.pool.For(0, nr, 1, func(r int) {
		a := c.ranges[r]
		a.Reset()
		c.AssignShard(n*r/nr, n*(r+1)/nr, a)
	})
	return c.EndIteration(c.ranges)
}

// reseedEmpty moves empty cluster j's centroid onto the document farthest
// from its current centroid, then zeroes that document's distance so two
// empty clusters cannot claim the same document. It reports whether it
// moved the centroid.
func (c *Clusterer) reseedEmpty(j int) bool {
	far, farD := -1, -1.0
	for i, d := range c.dists {
		if d > farD {
			farD = d
			far = i
		}
	}
	if far < 0 || farD <= 0 {
		return false // all documents coincide with centroids; nothing to take
	}
	copyInto(c.centroids[j], &c.docs[far], c.dim)
	c.cnorms[j] = normSq(c.centroids[j])
	c.dists[far] = 0
	return true
}

// Run iterates Step until convergence or MaxIter and assembles the result.
// The clustering time is accounted to PhaseKMeans in bd.
func (c *Clusterer) Run(bd *metrics.Breakdown) *Result {
	if bd == nil {
		bd = metrics.NewBreakdown()
	}
	var res *Result
	bd.Time(PhaseKMeans, func() {
		for !c.done {
			c.Step()
		}
		res = c.Finalize()
	})
	return res
}

// Finalize assembles the Result of the iterations executed so far.
func (c *Clusterer) Finalize() *Result {
	r := &Result{
		Assign:     append([]int32(nil), c.assign...),
		Centroids:  make([][]float64, c.opts.K),
		Counts:     append([]int64(nil), c.counts...),
		Inertia:    c.inertia,
		Iterations: c.iter,
		History:    append([]float64(nil), c.history...),
		Converged:  c.converged,
		Seeds:      append([]int(nil), c.seeds...),
		SeedWall:   c.seedWall,
	}
	for j := range r.Centroids {
		r.Centroids[j] = append([]float64(nil), c.centroids[j]...)
	}
	return r
}

// Run is the convenience entry point: New + Run.
func Run(docs []sparse.Vector, dim int, pool *par.Pool, opts Options, bd *metrics.Breakdown) (*Result, error) {
	c, err := New(docs, dim, pool, opts)
	if err != nil {
		return nil, err
	}
	return c.Run(bd), nil
}

// ErrEmptyInput reports clustering of an empty document set.
var ErrEmptyInput = errors.New("kmeans: empty input")
