package workflow

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"hpa/internal/flatwire"
	"hpa/internal/kmeans"
	"hpa/internal/pario"
	"hpa/internal/sparse"
	"hpa/internal/tfidf"
)

// This file extends the partitioned execution substrate into iterative
// operators: computations that sweep a fixed shard set once per wave with a
// barrier between waves — the structure of K-Means (K-Means++ seed rounds,
// then parallel assignment and a serial centroid update, repeated until
// convergence).
//
// An IterativeOp node is scheduled by the executor as a loop of partition
// tasks: one BeginLoop task consumes the gathered inputs and allocates the
// loop state, then each wave dispatches one Wave task per shard
// (concurrently, on the pool), barriers, and runs one EndWave task that
// receives the per-shard partials in shard-index order — however the shard
// tasks interleaved — and decides whether another wave follows. A final
// Finish task produces the node's (scalar) output. What a wave computes is
// the state's business: the K-Means state's first k−1 waves are seed rounds,
// the rest iterations.
//
// The same shard task set is re-dispatched every wave; loop states are
// expected to recycle their per-shard buffers (the K-Means state reuses one
// kmeans.Accum per shard across all iterations), preserving the paper's
// no-allocation-inside-iterations property under partitioned execution.

// IterativeOp is the run contract of a loop node: an iterative computation
// over a fixed shard set with a barrier after every wave. The executor
// drives the loop; the operator supplies the shard count and the loop
// state.
type IterativeOp interface {
	Operator
	// LoopShards returns the loop's shard count. It must be stable across
	// calls and at least 1; the count is independent of the producer's
	// partitioning (an iterative stage may use more or fewer shards than
	// the map stages feeding it).
	LoopShards() int
	// BeginLoop consumes the gathered input values and allocates the loop
	// state. It runs as one task before the first wave.
	BeginLoop(ctx *Context, ins []Value, shards int) (LoopState, error)
}

// LoopState carries one iterative node through its waves, numbered 0, 1,
// 2, … without gaps. The executor guarantees: the Wave calls of wave w may
// run concurrently (distinct idx, same w); EndWave(w) runs alone after
// every shard of wave w completed, with the partials in shard-index order,
// and no shard of wave w+1 starts before it returns; Finish runs alone
// after EndWave reports done. Every loop executes at least one wave.
type LoopState interface {
	// Wave computes shard idx's contribution to wave w and returns it as
	// the shard's partial.
	Wave(ctx *Context, w, idx, total int) (any, error)
	// EndWave reduces wave w's partials (indexed by shard) and reports
	// whether the loop is done — the per-wave barrier.
	EndWave(ctx *Context, w int, partials []any) (done bool, err error)
	// Finish produces the node's output dataset after the loop ends.
	Finish(ctx *Context) (Value, error)
}

// Reflected port types of the iterative K-Means operators.
var kmResultType = reflect.TypeOf((*kmeans.Result)(nil))

// KMAssignOp is the iterative assignment stage of partitioned K-Means: the
// K-Means loop hosted on the executor's IterativeOp contract. After the
// k−1 K-Means++ seed-round waves, each iteration runs one assignment task
// per loop shard (kmeans.AssignShard over a contiguous document range:
// assignments and distances in place, the moved count into a recycled
// kmeans.Accum) and one update task (kmeans.EndIteration recomputing, from
// its members in document order, every centroid whose member set
// changed), so the clustering — seeding, assignment tie-breaks, every
// centroid and inertia bit, convergence — is exactly the library driver's
// (kmeans.Run) at any shard count. Shard ranges are weighted by
// per-document nonzero counts (pario.WeightedBoundaries), balancing the
// O(nnz × k) assignment work per shard; boundaries never affect results.
//
// Port 0 accepts the dataset in any of its shapes: the gathered vector
// shards of the partitioned TF/IDF transform (*Partitions of
// *tfidf.VectorShard, with shard-aligned precomputed norms), the fused
// in-memory *tfidf.Result, or a *Matrix loaded from ARFF.
type KMAssignOp struct {
	// Opts configures clustering.
	Opts kmeans.Options
	// Shards is the loop's shard count; 0 selects an automatic count
	// (2×GOMAXPROCS, over-decomposed so work stealing rebalances straggler
	// shards, mirroring PartitionOp). The loop count is independent of the
	// TF/IDF map shard count — the optimizer retunes it separately. Like
	// PartitionOp.Shards, the count is resolved once, on the first
	// Validate/Explain/Run of a plan containing the operator; set it
	// before then (mutations after resolution are ignored).
	Shards int

	once     sync.Once
	resolved int
}

// Name implements Operator.
func (o *KMAssignOp) Name() string { return "km-assign" }

// loopShardsRemotable marks the operator's loop states as RemotableLoop
// for backend placement annotations.
func (o *KMAssignOp) loopShardsRemotable() {}

// Inputs implements Operator. The port is dynamically typed: it
// accepts gathered *Partitions of vector shards as well as the monolithic
// Vectorized datasets, checked at run time.
func (o *KMAssignOp) Inputs() []reflect.Type { return []reflect.Type{anyType} }

// Output implements Operator.
func (o *KMAssignOp) Output() reflect.Type { return kmResultType }

// Phase implements Phased.
func (o *KMAssignOp) Phase() string { return kmeans.PhaseKMeans }

// LoopShards implements IterativeOp.
func (o *KMAssignOp) LoopShards() int {
	o.once.Do(func() {
		o.resolved = o.Shards
		if o.resolved <= 0 {
			if p := runtime.GOMAXPROCS(0); p > 1 {
				o.resolved = 2 * p
			} else {
				o.resolved = 1
			}
		}
	})
	return o.resolved
}

// kmLoopState is the K-Means loop state: the clusterer plus one recycled
// partial per shard, the nonzero-weighted shard boundaries, and the
// bookkeeping remote shard sessions need.
type kmLoopState struct {
	c       *kmeans.Clusterer
	seeding *kmeans.Seeding // deferred K-Means++ state; nil once seeded
	n       int
	dim     int
	bounds  []int // shard boundaries over [0, n], nnz-weighted
	accs    []*kmeans.Accum
	ordered []*kmeans.Accum // scratch: the partials EndIteration receives

	// Remote-shard bookkeeping: the documents and norms to ship on a
	// shard's first remote iteration, the loop's process-unique worker-side
	// name, and which shards already initialized their worker session.
	docs    []sparse.Vector
	norms   []float64
	loopKey string
	shipped []bool
	lanes   int // the blocked-kernel width shard inits carry (kmeans.BlockSize)

	// block is the current iteration's centroid block, shared by the
	// wave's shard tasks: encoded once, shipped once per worker — only the
	// rows the last update rewrote, unless a worker missed.
	blockMu   sync.Mutex
	block     *keyedBody
	blockIter int
}

// kmLoopSeq makes loop names process-unique.
var kmLoopSeq atomic.Uint64

// kmInput unpacks the assignment loop's input into documents,
// dimensionality and (when precomputed) per-document norms.
func kmInput(in Value) (docs []sparse.Vector, dim int, norms []float64, err error) {
	switch v := in.(type) {
	case *tfidf.Result:
		return v.Vectors, v.Dim(), v.Norms, nil
	case *Matrix:
		return v.Vectors, v.Dim(), nil, nil
	case *Partitions:
		n := 0
		for _, part := range v.Parts {
			vs, ok := part.(*tfidf.VectorShard)
			if !ok {
				return nil, 0, nil, fmt.Errorf("%w: kmeans wants *tfidf.VectorShard shards, got %T", ErrType, part)
			}
			if vs.Hi > n {
				n = vs.Hi
			}
			if vs.Dim > dim {
				dim = vs.Dim
			}
		}
		docs = make([]sparse.Vector, n)
		norms = make([]float64, n)
		for _, part := range v.Parts {
			vs := part.(*tfidf.VectorShard)
			copy(docs[vs.Lo:vs.Hi], vs.Vectors)
			copy(norms[vs.Lo:vs.Hi], vs.Norms)
		}
		return docs, dim, norms, nil
	default:
		return nil, 0, nil, fmt.Errorf("%w: kmeans wants *tfidf.Result, *Matrix or vector shards, got %T", ErrType, in)
	}
}

// BeginLoop implements IterativeOp: clusterer allocation plus the uniform
// first seed draw (the k−1 distance-scan seed rounds run afterwards as the
// loop's first waves — see Wave), per-shard partial
// allocation, and the shard boundaries — weighted by per-document nonzero
// counts (pario.WeightedBoundaries over each vector's NNZ), so every
// shard carries close to equal assignment work (the kernel is O(nnz × k)
// per document) instead of an equal document count. Boundaries are a pure
// function of the vectors and the shard count, and per-document
// assignment is position-independent, so results are bit-identical to the
// count-balanced split. Everything allocated here is recycled across
// iterations.
func (o *KMAssignOp) BeginLoop(ctx *Context, ins []Value, shards int) (LoopState, error) {
	docs, dim, norms, err := kmInput(ins[0])
	if err != nil {
		return nil, err
	}
	opts := o.Opts
	if opts.DocNorms == nil {
		opts.DocNorms = norms
	}
	lanes := kmeans.BlockSize(opts.Block, opts.K)
	if (lanes == 4 || lanes == 8) && ctx.Backend != nil && ctx.Backend.Workers() > 0 {
		// The workers scan; the coordinator only updates. A local wave
		// would scan on the scalar kernel, bit for bit what the blocked one
		// computes, so the coordinator keeps no layout to refill.
		opts.Block = -1
	}
	c, seeding, err := kmeans.NewDeferredSeed(docs, dim, ctx.Pool, opts)
	if err != nil {
		return nil, err
	}
	if seeding.Rounds() == 0 {
		seeding.Finish() // k = 1: no distance rounds, seed inline
		seeding = nil
	}
	weights := make([]int64, len(docs))
	for i := range docs {
		weights[i] = int64(docs[i].NNZ())
	}
	st := &kmLoopState{
		c:       c,
		seeding: seeding,
		n:       len(docs),
		dim:     dim,
		bounds:  pario.WeightedBoundaries(weights, shards),
		accs:    make([]*kmeans.Accum, shards),
		ordered: make([]*kmeans.Accum, 0, shards),
		docs:    docs,
		norms:   c.DocNorms(),
		loopKey: fmt.Sprintf("km-%d-%d", os.Getpid(), kmLoopSeq.Add(1)),
		shipped: make([]bool, shards),
		lanes:   lanes,
	}
	for q := range st.accs {
		st.accs[q] = c.NewAccum()
	}
	return st, nil
}

// Wave implements LoopState. While seeding, a wave is one K-Means++ seed
// round's min-distance scan over the shard's document range — a pure
// per-element min-update, so shards of one round run concurrently and
// results are independent of shard count and scheduling. Once seeded, a
// wave is one iteration's assignment over the range; the shard's recycled
// partial counts the moves.
func (s *kmLoopState) Wave(ctx *Context, w, idx, total int) (any, error) {
	lo, hi := s.bounds[idx], s.bounds[idx+1]
	if s.seeding != nil {
		s.seeding.ScanRange(lo, hi)
		return nil, nil
	}
	a := s.accs[idx]
	a.Reset()
	s.c.AssignShard(lo, hi, a)
	return a, nil
}

// shardInit returns the session init a shard's task must carry: on the
// first contact with a worker, and on every resend after a miss (force).
func (s *kmLoopState) shardInit(idx int, force bool) *KMShardInit {
	if s.shipped[idx] && !force {
		return nil
	}
	lo, hi := s.bounds[idx], s.bounds[idx+1]
	return &KMShardInit{
		Vectors: s.docs[lo:hi],
		Norms:   s.norms[lo:hi],
		Dim:     s.dim,
		K:       s.c.K(),
		Block:   s.lanes,
	}
}

// centroidBlock returns iteration iter's centroid block under the key
// (loop, iter), created by the wave's first shard task and shared by the
// rest, so it is encoded once per iteration and shipped once per worker,
// with the first task sent there. What ships is the delta: the rows of
// the centroids the last update rewrote (kmeans.Clusterer.Updated),
// applied to iteration iter−1's matrix — every row at iteration 0. A
// worker that does not hold iteration iter−1's matrix misses, and the
// forced resend carries every row with no base, so a lost base costs a
// round trip, never a bit.
func (s *kmLoopState) centroidBlock(iter int) *keyedBody {
	s.blockMu.Lock()
	defer s.blockMu.Unlock()
	if s.block == nil || s.blockIter != iter {
		s.blockIter = iter
		full := func() []byte { return s.appendCentroids(iter, noCentroidBase, nil) }
		s.block = &keyedBody{op: "kmeans.centroids", encode: full}
		if iter > 0 {
			s.block.encode = func() []byte { return s.appendCentroids(iter, uint64(iter-1), s.c.Updated()) }
			s.block.full = full
		}
	}
	return s.block
}

// appendCentroids encodes a kmeans.centroids store frame: the loop's key,
// the iteration it brings a worker to, the iteration whose matrix its rows
// update (noCentroidBase when it carries every row), and the rows marks
// (nil: all) as a kmeans centroid block.
func (s *kmLoopState) appendCentroids(iter int, base uint64, rows []bool) []byte {
	b := flatwire.AppendString(nil, s.loopKey)
	b = flatwire.AppendU64(b, uint64(iter))
	b = flatwire.AppendU64(b, base)
	return kmeans.AppendFlatCentroids(b, s.c.Centroids(), s.c.CentroidNorms(), rows)
}

// RemoteWaveTask implements RemotableLoop: one wave of one shard as a
// kernel call on the worker session the shard's affinity key pins, so its
// documents and norms ship once (Init) across seeding and iterations —
// again only in the resend after a miss (Inline). The worker runs the
// kernel the local path runs, floats cross as IEEE 754 bits, and Absorb
// integrates what the local path would have produced, bit for bit.
//
// A seed round's scan is a kmeans.seed call: it ships only the last chosen
// seed vector plus the shard's current min-distance window and absorbs the
// updated window. An iteration is a kmeans.assign call: it names the
// iteration's centroid block (its changed rows shipped once per worker,
// see centroidBlock), ships the shard's previous assignments, and absorbs
// the worker's moved count, assignments and distances.
func (s *kmLoopState) RemoteWaveTask(w, idx, total int) (*RemoteTask, bool) {
	lo, hi := s.bounds[idx], s.bounds[idx+1]
	key := loopShardKey(s.loopKey, idx)
	if seeding := s.seeding; seeding != nil {
		args := &KMSeedTaskArgs{
			Loop:  s.loopKey,
			Shard: idx,
			Init:  s.shardInit(idx, false),
			Last:  *seeding.Last(),
			D2:    seeding.D2(lo, hi),
		}
		inline := *args
		inline.Init = s.shardInit(idx, true)
		return &RemoteTask{
			Op:       "kmeans.seed",
			Args:     args.AppendFlat,
			Inline:   inline.AppendFlat,
			Affinity: key,
			Absorb: func(body []byte) (Value, error) {
				d2, err := DecodeFlatKMSeedReply(body)
				if err != nil {
					return nil, err
				}
				if len(d2) != hi-lo {
					return nil, fmt.Errorf("%w: kmeans.seed reply for shard %d carries %d distances, want %d",
						ErrType, idx, len(d2), hi-lo)
				}
				seeding.SetD2(lo, d2)
				s.shipped[idx] = true
				return nil, nil
			},
		}, true
	}
	iter := s.c.Iterations()
	args := &KMAssignTaskArgs{
		Loop:   s.loopKey,
		Shard:  idx,
		Iter:   iter,
		Init:   s.shardInit(idx, false),
		Assign: s.c.Assignments()[lo:hi],
	}
	inline := *args
	inline.Init = s.shardInit(idx, true)
	acc := s.accs[idx]
	return &RemoteTask{
		Op:       "kmeans.assign",
		Args:     args.AppendFlat,
		Inline:   inline.AppendFlat,
		Affinity: key,
		keyed:    s.centroidBlock(iter),
		Absorb: func(body []byte) (Value, error) {
			rep, err := DecodeFlatKMAssignReply(body)
			if err != nil {
				return nil, err
			}
			if len(rep.Assign) != hi-lo {
				return nil, fmt.Errorf("%w: kmeans.assign reply for shard %d is malformed", ErrType, idx)
			}
			if err := acc.FromWire(rep.Accum, hi-lo); err != nil {
				return nil, err
			}
			if err := s.c.ApplyShardAssignments(lo, rep.Assign, rep.Dists); err != nil {
				return nil, err
			}
			s.shipped[idx] = true
			return acc, nil
		},
	}, true
}

// EndWave implements LoopState. While seeding, wave w is seed round w and
// its barrier draws the round's seed: it sums the min-distance array in
// ascending document order and draws — the same RNG consumption as the
// serial scan, so the chosen seeds are bit-identical at any shard count on
// any backend; the final round installs the centroids. Once seeded, the
// barrier is the centroid update. It reads the partials only for their
// moved counts; the centroids and the inertia are folded in document order
// from the per-document assignments and distances, so no float depends on
// the shard count or scheduling.
func (s *kmLoopState) EndWave(ctx *Context, w int, partials []any) (bool, error) {
	if s.seeding != nil {
		s.seeding.EndRound()
		if ctx.Tracer.Enabled() {
			label := fmt.Sprintf("round=%d pick=%d", w, s.seeding.LastIndex())
			ctx.Tracer.Emit("kmeans", "seed-round", label, int64(w))
		}
		if w == s.seeding.Rounds()-1 {
			s.seeding.Finish()
			s.seeding = nil
		}
		return false, nil
	}
	s.ordered = s.ordered[:0]
	for _, p := range partials {
		a, ok := p.(*kmeans.Accum)
		if !ok {
			return false, fmt.Errorf("%w: km-assign partial is %T", ErrType, p)
		}
		s.ordered = append(s.ordered, a)
	}
	inertia, moved := s.c.EndIteration(s.ordered)
	if ctx.Tracer.Enabled() {
		// One event per iteration: the moved count is the value; inertia
		// and how many of the k centroids the update rewrote ride the
		// label.
		recomputed := 0
		for _, u := range s.c.Updated() {
			if u {
				recomputed++
			}
		}
		label := fmt.Sprintf("iter=%d inertia=%.6g recomputed=%d/%d",
			s.c.Iterations(), inertia, recomputed, s.c.K())
		ctx.Tracer.Emit("kmeans", "iteration", label, int64(moved))
	}
	return s.c.Done(), nil
}

// Finish implements LoopState. The loop's affinity pins are released, and
// with them its sessions and centroid matrix on the workers, so neither a
// long-lived backend nor its workers keep state from finished loops.
func (s *kmLoopState) Finish(ctx *Context) (Value, error) {
	if ar, ok := ctx.Backend.(affinityReleaser); ok {
		keys := make([]string, len(s.shipped))
		for idx := range keys {
			keys[idx] = loopShardKey(s.loopKey, idx)
		}
		ar.ReleaseAffinity(keys...)
	}
	return s.c.Finalize(), nil
}

// KMReduceOp closes the iterative K-Means stage: the loop's clustering
// result (port 0) is joined with the upstream dataset (port 1 — the
// TF/IDF result or loaded matrix, needed for document names and, in fused
// runs, the retained scores) into the workflow's *Clustering.
type KMReduceOp struct{}

// Name implements Operator.
func (o *KMReduceOp) Name() string { return "km-reduce" }

// Inputs implements Operator.
func (o *KMReduceOp) Inputs() []reflect.Type {
	return []reflect.Type{kmResultType, vectorizedType}
}

// Output implements Operator.
func (o *KMReduceOp) Output() reflect.Type { return clusteringType }

// RunAll implements MultiOperator.
func (o *KMReduceOp) RunAll(ctx *Context, ins []Value) (Value, error) {
	res, ok := ins[0].(*kmeans.Result)
	if !ok {
		return nil, fmt.Errorf("%w: km-reduce wants *kmeans.Result, got %T", ErrType, ins[0])
	}
	var (
		names []string
		up    *tfidf.Result
		n     int
	)
	switch v := ins[1].(type) {
	case *tfidf.Result:
		names, up, n = v.DocNames, v, len(v.Vectors)
	case *Matrix:
		names, n = v.DocNames, len(v.Vectors)
	default:
		return nil, fmt.Errorf("%w: km-reduce wants *tfidf.Result or *Matrix, got %T", ErrType, ins[1])
	}
	if names == nil {
		names = synthDocNames(n)
	}
	return &Clustering{Result: res, DocNames: names, TFIDF: up}, nil
}
