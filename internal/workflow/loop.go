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
// operators: computations that sweep a fixed shard set once per iteration
// with a reduction barrier between iterations — the structure of K-Means
// (parallel assignment, serial centroid update, repeat until convergence).
//
// An IterativeOp node is scheduled by the executor as a loop of partition
// tasks: one BeginLoop task consumes the gathered inputs and allocates the
// loop state, then each iteration dispatches one RunShard task per shard
// (concurrently, on the pool), barriers, and runs one EndIteration task
// that receives the per-shard partials in shard-index order — however the
// shard tasks interleaved — and decides whether to iterate again. A final
// Finish task produces the node's (scalar) output.
//
// The same shard task set is re-dispatched every iteration; loop states are
// expected to recycle their per-shard buffers (the K-Means state reuses one
// kmeans.Accum per shard across all iterations), preserving the paper's
// no-allocation-inside-iterations property under partitioned execution.

// IterativeOp is the run contract of a loop node: an iterative computation
// over a fixed shard set with a per-iteration reduction barrier. The
// executor drives the loop; the operator supplies the shard count and the
// loop state.
type IterativeOp interface {
	Operator
	// LoopShards returns the loop's shard count. It must be stable across
	// calls and at least 1; the count is independent of the producer's
	// partitioning (an iterative stage may use more or fewer shards than
	// the map stages feeding it).
	LoopShards() int
	// BeginLoop consumes the gathered input values and allocates the loop
	// state. It runs as one task before the first iteration.
	BeginLoop(ctx *Context, ins []Value, shards int) (LoopState, error)
}

// LoopState carries one iterative node through its iterations. The
// executor guarantees: RunShard calls of one iteration may run
// concurrently (distinct idx); EndIteration runs alone after every shard
// of the iteration completed, with the partials in shard-index order;
// Finish runs alone after EndIteration reports done. Every loop executes
// at least one iteration.
type LoopState interface {
	// RunShard computes shard idx's contribution to the current iteration
	// and returns it as the shard's partial.
	RunShard(ctx *Context, idx, total int) (any, error)
	// EndIteration reduces the iteration's partials (indexed by shard) and
	// reports whether the loop is done — the per-iteration barrier.
	EndIteration(ctx *Context, partials []any) (bool, error)
	// Finish produces the node's output dataset after the loop ends.
	Finish(ctx *Context) (Value, error)
}

// PreparedLoop is implemented by loop states that need sharded preparation
// waves before the first iteration — rounds of per-shard scans each closed
// by a coordinator-side barrier, scheduled exactly like iterations. The
// executor guarantees: PrepareShard calls of one round may run concurrently
// (distinct idx, same round); EndPrepare(round) runs alone after every
// shard of the round completed; rounds run in order 0..PrepareRounds()-1,
// all before the first RunShard. K-Means++ seeding is the motivating case:
// each of its k−1 seed rounds is one prepare wave (per-shard min-distance
// scans) whose barrier draws the next seed.
type PreparedLoop interface {
	LoopState
	// PrepareRounds returns how many preparation rounds the loop needs
	// (0 = none). Called once, after BeginLoop.
	PrepareRounds() int
	// PrepareShard computes shard idx's contribution to the given round.
	PrepareShard(ctx *Context, round, idx, total int) error
	// EndPrepare closes one round — the per-round barrier.
	EndPrepare(ctx *Context, round int) error
}

// Reflected port types of the iterative K-Means operators.
var kmResultType = reflect.TypeOf((*kmeans.Result)(nil))

// KMAssignOp is the iterative assignment stage of partitioned K-Means: the
// K-Means loop hosted on the executor's IterativeOp contract. Each
// iteration runs one assignment task per loop shard (kmeans.AssignShard
// over a contiguous document range: assignments and distances in place,
// the moved count into a recycled kmeans.Accum) and one update task
// (kmeans.EndIteration recomputing, from its members in document order,
// every centroid whose member set changed), so the clustering — seeding,
// assignment tie-breaks, every centroid and inertia bit, convergence — is
// exactly the library driver's (kmeans.Run) at any shard count. Shard
// ranges are weighted by per-document nonzero counts
// (pario.WeightedBoundaries), balancing the O(nnz × k) assignment work per
// shard; boundaries never affect results.
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
// first seed draw (the k−1 distance-scan seed rounds run afterwards as
// sharded preparation waves — see PrepareShard), per-shard partial
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
	var c *kmeans.Clusterer
	var seeding *kmeans.Seeding
	err = ctx.Breakdown.TimeSpanErr(kmeans.PhaseKMeans, func() error {
		var err error
		c, seeding, err = kmeans.NewDeferredSeed(docs, dim, ctx.Pool, opts)
		if err == nil && seeding.Rounds() == 0 {
			seeding.Finish() // k = 1: no distance rounds, seed inline
			seeding = nil
		}
		return err
	})
	if err != nil {
		return nil, err
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
	}
	for q := range st.accs {
		st.accs[q] = c.NewAccum()
	}
	return st, nil
}

// PrepareRounds implements PreparedLoop: one preparation round per
// K-Means++ seed after the uniformly drawn first (k−1; 0 when k = 1 or
// seeding already finished inline).
func (s *kmLoopState) PrepareRounds() int {
	if s.seeding == nil {
		return 0
	}
	return s.seeding.Rounds()
}

// PrepareShard implements PreparedLoop: one seed round's min-distance scan
// over the shard's document range — a pure per-element min-update, so
// shards of one round run concurrently and results are independent of
// shard count and scheduling.
func (s *kmLoopState) PrepareShard(ctx *Context, round, idx, total int) error {
	ctx.Breakdown.TimeSpan(kmeans.PhaseKMeans, func() {
		s.seeding.ScanRange(s.bounds[idx], s.bounds[idx+1])
	})
	return nil
}

// EndPrepare implements PreparedLoop: the per-round barrier sums the
// min-distance array in ascending document order and draws the round's
// seed — the same RNG consumption as the serial scan, so the chosen seeds
// are bit-identical at any shard count on any backend. The final round
// installs the centroids.
func (s *kmLoopState) EndPrepare(ctx *Context, round int) error {
	last := round == s.seeding.Rounds()-1
	var pick int
	ctx.Breakdown.TimeSpan(kmeans.PhaseKMeans, func() {
		s.seeding.EndRound()
		pick = s.seeding.LastIndex()
		if last {
			s.seeding.Finish()
		}
	})
	if ctx.Tracer.Enabled() {
		label := fmt.Sprintf("round=%d pick=%d", round, pick)
		ctx.Tracer.Emit("kmeans", "seed-round", label, int64(round))
	}
	if last {
		s.seeding = nil
	}
	return nil
}

// RemotePrepareTask implements RemotablePrepare: one seed round's scan over
// one shard as a kmeans.seed kernel call. It reuses the loop's per-shard
// worker sessions (same affinity key as the assignment iterations, so the
// shard's documents ship exactly once across seeding and iterations) and
// ships only the last chosen seed vector plus the shard's current
// min-distance window; the worker runs the same SeedScanRange the local
// path runs and returns the updated window, floats as IEEE 754 bits.
func (s *kmLoopState) RemotePrepareTask(round, idx, total int) (*RemoteTask, bool) {
	lo, hi := s.bounds[idx], s.bounds[idx+1]
	args := &KMSeedTaskArgs{
		Loop:  s.loopKey,
		Shard: idx,
		Init:  s.shardInit(idx),
		Last:  *s.seeding.Last(),
		D2:    s.seeding.D2(lo, hi),
	}
	seeding := s.seeding
	return &RemoteTask{
		Op:       "kmeans.seed",
		Args:     args.AppendFlat,
		Affinity: s.sessionKey(idx),
		Phase:    kmeans.PhaseKMeans,
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

// RunShard implements LoopState: one iteration's assignment over the
// shard's document range; the shard's recycled partial counts the moves.
func (s *kmLoopState) RunShard(ctx *Context, idx, total int) (any, error) {
	a := s.accs[idx]
	a.Reset()
	ctx.Breakdown.TimeSpan(kmeans.PhaseKMeans, func() {
		s.c.AssignShard(s.bounds[idx], s.bounds[idx+1], a)
	})
	return a, nil
}

// sessionKey is one shard's affinity key: what pins the shard's tasks to
// the worker holding its session, unique per process and loop.
func (s *kmLoopState) sessionKey(idx int) string {
	return fmt.Sprintf("%s-%d", s.loopKey, idx)
}

// shardInit returns the session init a shard's task must carry, nil once a
// worker holds the session.
func (s *kmLoopState) shardInit(idx int) *KMShardInit {
	if s.shipped[idx] {
		return nil
	}
	lo, hi := s.bounds[idx], s.bounds[idx+1]
	return &KMShardInit{
		Vectors: s.docs[lo:hi],
		Norms:   s.norms[lo:hi],
		Dim:     s.dim,
		K:       s.c.K(),
		Block:   s.c.BlockWidth(),
	}
}

// centroidBlock returns iteration iter's centroid block under the key
// (loop, iter), created by the wave's first shard task and shared by the
// rest, so it is encoded once per iteration and, being eager, shipped once
// per worker. What ships eagerly is the delta: the rows of the centroids
// the last update rewrote (kmeans.Clusterer.Updated), applied to iteration
// iter−1's matrix — every row at iteration 0. A worker that does not hold
// iteration iter−1's matrix answers "need centroids", and the forced
// resend carries every row with no base, so a lost base costs a round
// trip, never a bit.
func (s *kmLoopState) centroidBlock(iter int) *keyedBody {
	s.blockMu.Lock()
	defer s.blockMu.Unlock()
	if s.block == nil || s.blockIter != iter {
		s.blockIter = iter
		full := func() []byte { return s.appendCentroids(iter, noCentroidBase, nil) }
		s.block = &keyedBody{op: "kmeans.centroids", eager: true, encode: full}
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

// RemoteShardTask implements RemotableLoop: one iteration of one shard as
// a kmeans.assign kernel call. The shard's documents and norms ship once
// (Init) and stay cached in a worker session the affinity key pins; every
// iteration names the iteration's centroid block (its changed rows shipped
// once per worker, see centroidBlock), ships the shard's previous
// assignments, and absorbs the worker's moved count, assignments and
// distances — what the local path would produce, bit for bit, because the
// worker runs the same kmeans.AssignRange over the same documents against
// the same centroid bits.
func (s *kmLoopState) RemoteShardTask(idx, total int) (*RemoteTask, bool) {
	lo, hi := s.bounds[idx], s.bounds[idx+1]
	iter := s.c.Iterations()
	args := &KMAssignTaskArgs{
		Loop:   s.loopKey,
		Shard:  idx,
		Iter:   iter,
		Init:   s.shardInit(idx),
		Assign: s.c.Assignments()[lo:hi],
	}
	acc := s.accs[idx]
	return &RemoteTask{
		Op:       "kmeans.assign",
		Args:     args.AppendFlat,
		Affinity: s.sessionKey(idx),
		Phase:    kmeans.PhaseKMeans,
		keyed:    s.centroidBlock(iter),
		Absorb: func(body []byte) (Value, error) {
			rep, err := DecodeFlatKMAssignReply(body)
			if err != nil {
				return nil, err
			}
			if rep.NeedCentroids {
				return nil, &needResend{Keyed: true}
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

// EndIteration implements LoopState: the centroid update. It reads the
// partials only for their moved counts; the centroids and the inertia are
// folded in document order from the per-document assignments and
// distances, so no float depends on the shard count or scheduling.
func (s *kmLoopState) EndIteration(ctx *Context, partials []any) (bool, error) {
	s.ordered = s.ordered[:0]
	for _, p := range partials {
		a, ok := p.(*kmeans.Accum)
		if !ok {
			return false, fmt.Errorf("%w: km-assign partial is %T", ErrType, p)
		}
		s.ordered = append(s.ordered, a)
	}
	var inertia float64
	var moved int
	ctx.Breakdown.TimeSpan(kmeans.PhaseKMeans, func() {
		inertia, moved = s.c.EndIteration(s.ordered)
	})
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

// Finish implements LoopState. The loop's affinity pins are released so a
// long-lived backend does not accumulate dead session keys; the worker
// sessions themselves expire by TTL.
func (s *kmLoopState) Finish(ctx *Context) (Value, error) {
	if ar, ok := ctx.Backend.(affinityReleaser); ok {
		keys := make([]string, len(s.shipped))
		for idx := range keys {
			keys[idx] = s.sessionKey(idx)
		}
		ar.ReleaseAffinity(keys...)
	}
	var res *kmeans.Result
	ctx.Breakdown.TimeSpan(kmeans.PhaseKMeans, func() {
		res = s.c.Finalize()
	})
	return res, nil
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
