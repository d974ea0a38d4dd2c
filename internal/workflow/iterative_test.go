package workflow

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"hpa/internal/kmeans"
	"hpa/internal/tfidf"
)

// countLoop is a toy IterativeOp: a zero-input loop over n shards whose
// first wave is a warm-up its state decides on (as the K-Means state
// decides its seed rounds), then iters iterations, recording
// per-iteration partials so the tests can assert the executor's loop
// protocol — begin once, one task per shard per wave, a barrier with
// partials in shard-index order, finish once. The state checks the wave
// contract as it runs and fails the loop on a breach.
type countLoop struct {
	n, iters  int
	failShard int // shard index to fail on, -1 for none
	failIter  int // iteration (1-based) the failure fires in
	failWave  int // wave (1-based) whose EndWave fails, 0 for none

	shardTasks atomic.Int64 // Wave calls over every run
}

func (o *countLoop) Name() string           { return "count-loop" }
func (o *countLoop) Inputs() []reflect.Type { return nil }
func (o *countLoop) Output() reflect.Type   { return anyType }
func (o *countLoop) LoopShards() int        { return o.n }
func (o *countLoop) BeginLoop(_ *Context, ins []Value, shards int) (LoopState, error) {
	if shards != o.n {
		return nil, fmt.Errorf("BeginLoop got %d shards, want %d", shards, o.n)
	}
	return &countLoopState{op: o, warm: true}, nil
}

type countLoopState struct {
	op      *countLoop
	warm    bool         // the warm-up wave has not closed yet
	wave    atomic.Int64 // the wave whose shards may run: EndWave calls so far
	running atomic.Int64 // Wave calls in flight
	iter    int
	history [][]any // partials of every iteration, as delivered to the barrier
}

func (s *countLoopState) Wave(_ *Context, w, idx, total int) (any, error) {
	s.running.Add(1)
	defer s.running.Add(-1)
	s.op.shardTasks.Add(1)
	if cur := s.wave.Load(); int64(w) != cur {
		return nil, fmt.Errorf("shard %d of wave %d ran during wave %d", idx, w, cur)
	}
	if s.warm {
		return fmt.Sprintf("warm-s%d", idx), nil
	}
	if s.op.failShard == idx && s.iter+1 == s.op.failIter {
		return nil, fmt.Errorf("shard %d failed in iteration %d", idx, s.iter+1)
	}
	return fmt.Sprintf("i%d-s%d", s.iter, idx), nil
}

func (s *countLoopState) EndWave(_ *Context, w int, partials []any) (bool, error) {
	if n := s.running.Load(); n != 0 {
		return false, fmt.Errorf("EndWave(%d) ran with %d shards in flight", w, n)
	}
	if cur := s.wave.Load(); int64(w) != cur {
		return false, fmt.Errorf("EndWave(%d) closed wave %d", w, cur)
	}
	if w+1 == s.op.failWave {
		return false, fmt.Errorf("barrier of wave %d failed", w)
	}
	defer s.wave.Add(1) // no shard of wave w+1 may start before this returns
	if s.warm {
		for q, p := range partials {
			if want := fmt.Sprintf("warm-s%d", q); p != want {
				return false, fmt.Errorf("warm-up partial %d = %v, want %s (shard-index order)", q, p, want)
			}
		}
		s.warm = false
		return false, nil
	}
	s.history = append(s.history, append([]any(nil), partials...))
	s.iter++
	return s.iter >= s.op.iters, nil
}

func (s *countLoopState) Finish(_ *Context) (Value, error) {
	return s.history, nil
}

// TestLoopExecutorProtocol: the executor must run BeginLoop once, dispatch
// the same shard task set every wave, number waves 0, 1, 2, … without gaps,
// run each barrier alone after its wave and before the next, deliver
// partials to the barrier in shard-index order regardless of completion
// order, and re-dispatch until EndWave reports done — concurrently and
// under Context.Serial, for the state-decided warm-up wave and the
// iterations alike.
func TestLoopExecutorProtocol(t *testing.T) {
	for _, serial := range []bool{false, true} {
		op := &countLoop{n: 4, iters: 3, failShard: -1}
		ctx := testCtx(t, 3)
		ctx.Serial = serial
		outs, err := NewPlan().Add("loop", op).Run(ctx)
		if err != nil {
			t.Fatalf("serial=%v: %v", serial, err)
		}
		history := outs["loop"].([][]any)
		if len(history) != 3 {
			t.Fatalf("serial=%v: ran %d iterations, want 3", serial, len(history))
		}
		if got := op.shardTasks.Load(); got != 4*(1+3) {
			t.Fatalf("serial=%v: %d shard tasks, want 16 (4 shards × 4 waves)", serial, got)
		}
		for it, partials := range history {
			if len(partials) != 4 {
				t.Fatalf("iteration %d delivered %d partials, want 4", it, len(partials))
			}
			for q, p := range partials {
				if want := fmt.Sprintf("i%d-s%d", it, q); p != want {
					t.Fatalf("iteration %d partial %d = %v, want %s (shard-index order)", it, q, p, want)
				}
			}
		}
	}
}

// TestLoopExecutorPropagatesShardErrors: a shard task or a barrier failing
// mid-loop must fail the plan with the operator's error, not hang the
// loop, and no wave may follow a failed barrier.
func TestLoopExecutorPropagatesShardErrors(t *testing.T) {
	plan := NewPlan().Add("loop", &countLoop{n: 3, iters: 5, failShard: 1, failIter: 2})
	_, err := plan.Run(testCtx(t, 2))
	if err == nil {
		t.Fatal("failing shard did not fail the plan")
	}
	if !strings.Contains(err.Error(), "count-loop") || !strings.Contains(err.Error(), "iteration 2") {
		t.Fatalf("unhelpful error: %v", err)
	}

	failWave := &countLoop{n: 3, iters: 5, failShard: -1, failWave: 3}
	_, err = NewPlan().Add("loop", failWave).Run(testCtx(t, 2))
	if err == nil {
		t.Fatal("failing barrier did not fail the plan")
	}
	if !strings.Contains(err.Error(), "count-loop") || !strings.Contains(err.Error(), "barrier of wave 2") {
		t.Fatalf("unhelpful error: %v", err)
	}
	if got := failWave.shardTasks.Load(); got != 3*3 {
		t.Fatalf("%d shard tasks ran, want 9: a wave was dispatched after the failed barrier", got)
	}
}

// TestLoopExplainMarksIterativeEdges: the loop node's outgoing edge renders
// with the iterative shard marker.
func TestLoopExplainMarksIterativeEdges(t *testing.T) {
	sink := &fnOp{name: "sink", ins: []reflect.Type{anyType}, out: anyType,
		fn: func(_ *Context, ins []Value) (Value, error) { return ins[0], nil }}
	plan := NewPlan().Add("loop", &countLoop{n: 5, iters: 1, failShard: -1}).
		Add("sink", sink).Connect("loop", "sink")
	if got := plan.Explain(); !strings.Contains(got, "loop ~[x5]~> sink") {
		t.Fatalf("Explain missing iterative marker:\n%s", got)
	}
}

// sameClustering asserts that a partitioned iterative run reproduces the
// reference clustering bit for bit: assignments, counts, iteration count
// and convergence exactly, every centroid component, the inertia and its
// whole history by their bits.
func sameClustering(t *testing.T, label string, want, got *kmeans.Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Assign, got.Assign) {
		t.Fatalf("%s: assignments differ from the reference", label)
	}
	if !reflect.DeepEqual(want.Counts, got.Counts) {
		t.Fatalf("%s: counts %v vs reference %v", label, got.Counts, want.Counts)
	}
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		t.Fatalf("%s: %d iterations (converged=%v), reference %d (%v)",
			label, got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
	if math.Float64bits(got.Inertia) != math.Float64bits(want.Inertia) {
		t.Fatalf("%s: inertia %v vs reference %v", label, got.Inertia, want.Inertia)
	}
	if len(got.History) != len(want.History) {
		t.Fatalf("%s: %d history entries vs reference %d", label, len(got.History), len(want.History))
	}
	for i, w := range want.History {
		if math.Float64bits(got.History[i]) != math.Float64bits(w) {
			t.Fatalf("%s: inertia history[%d] %v vs reference %v", label, i, got.History[i], w)
		}
	}
	for j := range want.Centroids {
		for d, w := range want.Centroids[j] {
			if g := got.Centroids[j][d]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: centroid %d[%d] %v vs reference %v", label, j, d, g, w)
			}
		}
	}
}

// TestIterativeKMeansMatchesOneShardForEmptyPolicies is the
// iterative-phase determinism suite: partitioned K-Means (per-shard
// assignment, centroids gathered from their members) must reproduce the
// one-shard plan bit for bit at shard counts {1, 4, 7} under both
// empty-cluster policies — including ReseedFarthest, whose reseeding
// reads the per-document distances written by the shard kernels.
func TestIterativeKMeansMatchesOneShardForEmptyPolicies(t *testing.T) {
	for _, empty := range []kmeans.EmptyPolicy{kmeans.KeepCentroid, kmeans.ReseedFarthest} {
		cfg := baseCfg(Merged)
		cfg.KMeans.K = 12 // more clusters than the corpus comfortably fills
		cfg.KMeans.Empty = empty
		ref := refTFKM(t, cfg)
		for _, shards := range []int{1, 4, 7} {
			label := fmt.Sprintf("empty=%d shards=%d", empty, shards)
			scfg := cfg
			scfg.Shards = shards
			ctx := testCtx(t, 4)
			rep, err := RunTFKM(testCorpus().Source(nil), ctx, scfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameClustering(t, label, ref.Clustering.Result, rep.Clustering.Result)
			if empty == kmeans.ReseedFarthest {
				for j, cnt := range rep.Clustering.Result.Counts {
					if cnt == 0 {
						t.Errorf("%s: cluster %d empty despite ReseedFarthest", label, j)
					}
				}
			}
		}
	}
}

// TestIterativeKMeansLoopShardsIndependentOfMapShards: the loop shard
// count may differ from the TF/IDF map shard count; results must not.
func TestIterativeKMeansLoopShardsIndependentOfMapShards(t *testing.T) {
	cfg := baseCfg(Merged)
	ref := refTFKM(t, cfg)
	cfg.Shards = 4
	plan := TFKMPlan(testCorpus().Source(nil), cfg)
	// Retune the loop to 6 shards against 4 map shards.
	for _, name := range plan.Nodes() {
		if op, ok := plan.Node(name).Op().(*KMAssignOp); ok {
			op.Shards = 6
		}
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := plan.Explain(); !strings.Contains(got, "kmeans.assign ~[x6]~> kmeans.reduce") {
		t.Fatalf("loop shard count not reflected in Explain:\n%s", got)
	}
	ctx := testCtx(t, 4)
	rep, err := RunTFKMPlan(plan, ctx)
	if err != nil {
		t.Fatal(err)
	}
	sameClustering(t, "loop=6 map=4", ref.Clustering.Result, rep.Clustering.Result)
}

// TestKMAssignRunFallback: the assignment loop has one driver, the plan
// executor — a plan holding only the loop node matches the full workflow,
// and the loop operator has no scalar Run to serve as a second driver.
func TestKMAssignRunFallback(t *testing.T) {
	cfg := baseCfg(Merged)
	ref := refTFKM(t, cfg)
	ctx := testCtx(t, 2)
	tfOut, err := tfidf.Run(testCorpus().Source(nil), ctx.Pool, cfg.TFIDF, nil)
	if err != nil {
		t.Fatal(err)
	}
	assign := &KMAssignOp{Opts: cfg.KMeans, Shards: 3}
	if _, ok := Operator(assign).(Runner); ok {
		t.Fatal("the loop operator has a scalar Run")
	}
	feed := &fnOp{name: "feed", out: tfidfResultType,
		fn: func(*Context, []Value) (Value, error) { return tfOut, nil }}
	outs, err := NewPlan().Add("feed", feed).Add("assign", assign).Connect("feed", "assign").Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sameClustering(t, "loop-node plan", ref.Clustering.Result, outs["assign"].(*kmeans.Result))
}
