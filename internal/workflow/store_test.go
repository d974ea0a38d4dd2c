package workflow

import (
	"errors"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hpa/internal/kmeans"
	"hpa/internal/obs"
	"hpa/internal/par"
	"hpa/internal/sparse"
	"hpa/internal/tfidf"
)

// overlapMatrix is 400 documents over 48 dimensions in 6 overlapping
// topics: a K-Means loop that runs more than the two iterations the zipf
// corpus converges in.
func overlapMatrix() *Matrix {
	const docs, dim, topics = 400, 48, 6
	m := &Matrix{Terms: make([]string, dim), Vectors: make([]sparse.Vector, docs)}
	x := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x>>11) / (1 << 53)
	}
	for i := range m.Vectors {
		dense := make([]float64, dim)
		for d := range dense {
			if next() < 0.3 {
				dense[d] = next()
			}
		}
		dense[(i%topics)*dim/topics] += 1.2 * next()
		m.Vectors[i] = sparse.FromDense(dense)
	}
	return m
}

// runKMPlan runs the K-Means plan over m, k = 6 on 4 loop shards, on the
// given backend.
func runKMPlan(ctx *Context, m *Matrix, backend Backend) (*kmeans.Result, error) {
	ctx.Backend = backend
	outs, err := NewPlan().
		Add("vectors", &fnOp{name: "vectors", out: reflect.TypeOf(m),
			fn: func(*Context, []Value) (Value, error) { return m, nil }}).
		Add("kmeans", &KMeansOp{Opts: kmeans.Options{K: 6, Seed: 1}}).
		Connect("vectors", "kmeans").
		Apply(PartitionRule(4)).
		Run(ctx)
	if err != nil {
		return nil, err
	}
	return outs["kmeans.reduce"].(*Clustering).Result, nil
}

// restartingBackend empties its workers' store just before remote task
// number at is sent — what the tasks after a worker restart see — and
// records, for every remote task, whether it lost an input to the restart
// and whether it was re-sent. A task loses its input when its affinity key
// named an entry the restart took and no earlier task after the restart
// has put it back.
type restartingBackend struct {
	*RPCBackend
	st *workerStore
	at int

	mu    sync.Mutex
	n     int
	lost  map[string]bool
	tasks []restartedTask
}

type restartedTask struct {
	op           string
	lost, resent bool
	err          error
}

func (b *restartingBackend) RunTask(ctx *Context, t *Task) (Value, error) {
	rt := t.Remote
	if rt == nil {
		return b.RPCBackend.RunTask(ctx, t)
	}
	b.mu.Lock()
	if b.n == b.at {
		b.st.mu.Lock()
		for k := range b.st.m {
			b.lost[k] = true
		}
		clear(b.st.m)
		b.st.mu.Unlock()
	}
	b.n++
	lost := b.lost[rt.Affinity]
	delete(b.lost, rt.Affinity)
	b.mu.Unlock()
	v, err := b.RPCBackend.RunTask(ctx, t)
	b.mu.Lock()
	b.tasks = append(b.tasks, restartedTask{op: rt.Op, lost: lost, resent: ctx.Span.Resend, err: err})
	b.mu.Unlock()
	return v, err
}

// TestWorkerRestartIsAMiss: a worker that lost its store — a restart —
// between any two tasks of a TF/IDF → K-Means run costs each task that
// lost an input one resend, never the run or a bit. The serial run covers
// count, transform, seed rounds and iterations; for every remote task
// index it empties the two workers' store just before that task, and each
// run must end with the local run's digest, exactly the tasks that lost an
// input re-sent once, no task failed, and an empty store.
func TestWorkerRestartIsAMiss(t *testing.T) {
	src := diskCorpus(t)
	scratch := t.TempDir()
	pool := par.NewPool(1)
	defer pool.Close()
	run := func(b Backend) (*kmeans.Result, error) {
		ctx := NewContext(pool)
		ctx.ScratchDir = scratch
		ctx.Backend = b
		ctx.Serial = true
		ctx.Tracer = obs.NewTracer()
		rep, err := RunTFKM(src, ctx, TFKMConfig{
			Mode:   Merged,
			Shards: 2,
			TFIDF:  tfidf.Options{Normalize: true},
			KMeans: kmeans.Options{K: 4, Seed: 1},
		})
		if err != nil {
			return nil, err
		}
		return rep.Clustering.Result, nil
	}
	local, err := run(LocalBackend{})
	if err != nil {
		t.Fatal(err)
	}
	want := clusteringDigest(local)
	ops := map[string]bool{}
	tasks, losses := 1, 0
	for at := 0; at < tasks; at++ {
		rpc, st := pipeWorkers(t, 2, nil)
		b := &restartingBackend{RPCBackend: rpc, st: st, at: at, lost: map[string]bool{}}
		res, err := run(b)
		if err != nil {
			t.Fatalf("store emptied before task %d: %v", at, err)
		}
		tasks = b.n
		if d := clusteringDigest(res); d != want {
			t.Errorf("store emptied before task %d: digest %#x, local %#x", at, d, want)
		}
		for i, task := range b.tasks {
			ops[task.op] = true
			if task.err != nil || task.resent != task.lost {
				t.Errorf("store emptied before task %d: task %d (%s) lost an input: %v, re-sent: %v, error: %v",
					at, i, task.op, task.lost, task.resent, task.err)
			}
			if task.lost {
				losses++
			}
		}
		if n := st.entries(); n != 0 {
			t.Errorf("store emptied before task %d: %d entries left after the run", at, n)
		}
	}
	t.Logf("%d remote tasks; %d lost an input over the %d restarts", tasks, losses, tasks)
	for _, op := range []string{"tfidf.count", "tfidf.transform", "kmeans.seed", "kmeans.assign"} {
		if !ops[op] {
			t.Errorf("no %s task ran remotely", op)
		}
	}
	if losses == 0 {
		t.Error("no task ever lost an input: the restarts tested nothing")
	}
}

// countLosing is an RPCBackend whose workers lose every stored count just
// before each transform task is sent: every transform misses.
type countLosing struct {
	*RPCBackend
	st *workerStore
}

func (b *countLosing) RunTask(ctx *Context, t *Task) (Value, error) {
	if rt := t.Remote; rt != nil && rt.Op == "tfidf.transform" {
		b.st.mu.Lock()
		clear(b.st.m)
		b.st.mu.Unlock()
	}
	return b.RPCBackend.RunTask(ctx, t)
}

// TestTransformMissRecounts: a transform whose worker lost the shard's
// counts between the count and the transform recounts the shard from the
// count's descriptor, in one resend. Over two workers and 4 shards, with
// every count lost, serial and concurrent runs give the local digest, each
// transform is re-sent exactly once and nothing else is, and the store
// ends empty.
func TestTransformMissRecounts(t *testing.T) {
	src := diskCorpus(t)
	scratch := t.TempDir()
	run := func(b Backend, serial bool) (*kmeans.Result, []obs.Span, error) {
		pool := par.NewPool(2)
		defer pool.Close()
		ctx := NewContext(pool)
		ctx.ScratchDir = scratch
		ctx.Backend = b
		ctx.Serial = serial
		ctx.Tracer = obs.NewTracer()
		rep, err := RunTFKM(src, ctx, TFKMConfig{
			Mode:   Merged,
			Shards: 4,
			TFIDF:  tfidf.Options{Normalize: true},
			KMeans: kmeans.Options{K: 4, Seed: 1},
		})
		if err != nil {
			return nil, nil, err
		}
		return rep.Clustering.Result, ctx.Tracer.Snapshot().Spans, nil
	}
	local, _, err := run(LocalBackend{}, false)
	if err != nil {
		t.Fatal(err)
	}
	want := clusteringDigest(local)
	for _, serial := range []bool{true, false} {
		rpc, st := pipeWorkers(t, 2, nil)
		res, spans, err := run(&countLosing{RPCBackend: rpc, st: st}, serial)
		if err != nil {
			t.Fatalf("serial=%v: %v", serial, err)
		}
		if d := clusteringDigest(res); d != want {
			t.Errorf("serial=%v: digest %#x, local %#x", serial, d, want)
		}
		transforms, resent := 0, 0
		for _, s := range spans {
			if s.Op == "transform" && s.Backend == "rpc" {
				transforms++
				if !s.Resend {
					t.Errorf("serial=%v: transform shard %d was not re-sent", serial, s.Shard)
				}
			}
			if s.Resend {
				resent++
			}
		}
		if transforms != 4 || resent != 4 {
			t.Errorf("serial=%v: %d remote transforms and %d resends, want 4 and 4", serial, transforms, resent)
		}
		if n := st.entries(); n != 0 {
			t.Errorf("serial=%v: %d store entries left after the run", serial, n)
		}
	}
}

// waveEmptying is an RPCBackend whose workers lose the state of the loop
// its tasks belong to whenever the loop's next wave starts: every wave's
// first task misses and re-sends, while loops on other backends sharing
// the workers keep theirs.
type waveEmptying struct {
	*RPCBackend
	st *workerStore

	mu      sync.Mutex
	wave    int
	emptied int
}

func (b *waveEmptying) RunTask(ctx *Context, t *Task) (Value, error) {
	if rt := t.Remote; rt != nil {
		b.mu.Lock()
		if w := ctx.Span.Iter; w != b.wave {
			b.wave = w
			loop := rt.Affinity[:strings.LastIndexByte(rt.Affinity, '-')]
			b.st.mu.Lock()
			for k := range b.st.m {
				if k == loop || strings.HasPrefix(k, loop+"-") {
					delete(b.st.m, k)
				}
			}
			b.st.mu.Unlock()
			b.emptied++
		}
		b.mu.Unlock()
	}
	return b.RPCBackend.RunTask(ctx, t)
}

// TestConcurrentLoopsRecycleBuffers: two K-Means loops run at once on one
// backend of two pipe workers, so their request bodies, frames and reply
// frames pass through the same recycled buffers, and one loop's worker
// state is emptied before each of its waves — its stashed centroid blocks
// are dropped with their frames and every wave re-sends. Both loops must
// give the local digest.
func TestConcurrentLoopsRecycleBuffers(t *testing.T) {
	m := overlapMatrix()
	pool := par.NewPool(2)
	defer pool.Close()
	local, err := runKMPlan(NewContext(pool), m, LocalBackend{})
	if err != nil {
		t.Fatal(err)
	}
	want := clusteringDigest(local)
	rpc, st := pipeWorkers(t, 2, nil)
	emptying := &waveEmptying{RPCBackend: rpc, st: st, wave: -1}
	var wg sync.WaitGroup
	for _, b := range []Backend{rpc, emptying} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool := par.NewPool(2)
			defer pool.Close()
			ctx := NewContext(pool)
			ctx.Tracer = obs.NewTracer()
			res, err := runKMPlan(ctx, m, b)
			if err != nil {
				t.Errorf("%T: %v", b, err)
				return
			}
			if d := clusteringDigest(res); d != want {
				t.Errorf("%T: digest %#x, local %#x", b, d, want)
			}
		}()
	}
	wg.Wait()
	if emptying.emptied < 3 {
		t.Errorf("the worker state was emptied before %d waves: the test tested little", emptying.emptied)
	}
	if n := st.entries(); n != 0 {
		t.Errorf("%d store entries left after both loops", n)
	}
}

// failAfter is an RPCBackend that fails the nth kmeans.assign task after
// the worker ran it: a loop that fails mid-way, with sessions on both
// workers.
type failAfter struct {
	*RPCBackend
	n atomic.Int32
}

func (b *failAfter) RunTask(ctx *Context, t *Task) (Value, error) {
	v, err := b.RPCBackend.RunTask(ctx, t)
	if t.Remote != nil && t.Remote.Op == "kmeans.assign" && b.n.Add(-1) == 0 {
		return nil, errors.New("injected failure")
	}
	return v, err
}

// TestWorkerStoreEmptiesAfterRuns: nothing a run puts in the worker store
// outlives it — after many runs on one backend, after a run whose loop
// fails mid-way (the executor's scope release is all that runs), and after
// the connection that put the state closes.
func TestWorkerStoreEmptiesAfterRuns(t *testing.T) {
	m := overlapMatrix()
	t.Run("30 runs", func(t *testing.T) {
		b, st := pipeWorkers(t, 2, nil)
		for i := 0; i < 30; i++ {
			if _, err := runKMPlan(testCtx(t, 4), m, b); err != nil {
				t.Fatalf("run %d: %v", i, err)
			}
			if n := st.entries(); n != 0 {
				t.Fatalf("%d store entries left after run %d", n, i)
			}
		}
		if n := b.pins(); n != 0 {
			t.Errorf("%d affinity pins left after the runs", n)
		}
	})
	t.Run("failed loop", func(t *testing.T) {
		rpc, st := pipeWorkers(t, 2, nil)
		b := &failAfter{RPCBackend: rpc}
		b.n.Store(6) // in the second iteration of four shards
		if _, err := runKMPlan(testCtx(t, 4), m, b); err == nil || !strings.Contains(err.Error(), "injected failure") {
			t.Fatalf("run error %v, want the injected failure", err)
		}
		if n := st.entries(); n != 0 {
			t.Errorf("%d store entries left after the failed run", n)
		}
	})
	t.Run("closed connection", func(t *testing.T) {
		st := newWorkerStore()
		serve := func() (*wireClient, chan struct{}) {
			coord, work := net.Pipe()
			done := make(chan struct{})
			go func() {
				serveConn(work, st)
				close(done)
			}()
			return newWireClient(coord), done
		}
		docs := []sparse.Vector{{Idx: []uint32{0}, Val: []float64{1}}}
		seed := func(c *wireClient, loop string, shard int) {
			t.Helper()
			a := &KMSeedTaskArgs{Loop: loop, Shard: shard, Last: docs[0], D2: []float64{1},
				Init: &KMShardInit{Vectors: docs, Norms: []float64{1}, Dim: 2, K: 2}}
			if _, err := c.call("kmeans.seed", a.AppendFlat(nil)); err != nil {
				t.Fatal(err)
			}
		}
		// Connection a puts loop L, its shard 0 and a lone centroid block
		// for loop M; connection b puts L's shard 1.
		a, aDone := serve()
		b, bDone := serve()
		seed(a, "L", 0)
		if _, err := a.call("kmeans.centroids", storeFrame("M", 0, noCentroidBase)); err != nil {
			t.Fatal(err)
		}
		seed(b, "L", 1)
		if n := st.entries(); n != 4 {
			t.Fatalf("%d store entries, want 4", n)
		}
		// Closing a leaves L to b's session, which depends on it.
		a.close()
		<-aDone
		if st.get("L") == nil || st.get(loopShardKey("L", 1)) == nil || st.entries() != 2 {
			t.Fatalf("after the first connection closed: %d entries, want loop L and its shard 1", st.entries())
		}
		b.close()
		<-bDone
		if n := st.entries(); n != 0 {
			t.Errorf("%d store entries left after both connections closed", n)
		}
	})
}

// missCalls counts test.miss kernel runs.
var missCalls atomic.Int32

// TestSecondMissFailsTheTask: a worker that misses the inlined resend too
// fails the task with an error naming the op, after exactly two sends.
func TestSecondMissFailsTheTask(t *testing.T) {
	b := pipeBackend(t, 1)
	missCalls.Store(0)
	_, err := b.RunTask(nil, &Task{Remote: &RemoteTask{
		Op:     "test.miss",
		Args:   func(dst []byte) []byte { return dst },
		Absorb: func([]byte) (Value, error) { return nil, nil },
	}})
	if err == nil || !strings.Contains(err.Error(), "task test.miss") || !strings.Contains(err.Error(), "still missing") {
		t.Fatalf("error %v, want one naming test.miss and the second miss", err)
	}
	if n := missCalls.Load(); n != 2 {
		t.Errorf("the kernel ran %d times, want 2", n)
	}
}
