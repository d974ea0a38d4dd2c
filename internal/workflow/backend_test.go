package workflow

import (
	"io"
	"math"
	"net"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hpa/internal/corpus"
	"hpa/internal/kmeans"
	"hpa/internal/par"
	"hpa/internal/pario"
	"hpa/internal/sparse"
	"hpa/internal/tfidf"
)

// pipeBackend starts n in-process workers, each serving the worker
// protocol over one end of a net.Pipe, and returns an RPCBackend over
// them — real serialization and a real frame loop, no network dependency.
func pipeBackend(t testing.TB, n int) *RPCBackend {
	b, _ := pipeWorkers(t, n, nil)
	return b
}

// pipeWorkers is pipeBackend that also returns the workers' store: one
// fresh store for all n, as in one worker process. wrap, when non-nil,
// wraps each coordinator-side connection.
func pipeWorkers(t testing.TB, n int, wrap func(io.ReadWriteCloser) io.ReadWriteCloser) (*RPCBackend, *workerStore) {
	t.Helper()
	st := newWorkerStore()
	conns := make([]io.ReadWriteCloser, n)
	for i := range conns {
		coord, work := net.Pipe()
		go serveConn(work, st)
		conns[i] = coord
		if wrap != nil {
			conns[i] = wrap(coord)
		}
	}
	b := NewRPCBackendConns(conns...)
	t.Cleanup(func() { b.Close() })
	return b, st
}

// pins reports how many affinity pins the backend holds.
func (b *RPCBackend) pins() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.affinity)
}

// entries reports how many entries the store holds.
func (s *workerStore) entries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// diskCorpus writes a small deterministic corpus to a temp dir and opens
// it as a FileSource — remotable shards need an on-disk identity.
func diskCorpus(t testing.TB) *pario.FileSource {
	t.Helper()
	c := corpus.Generate(corpus.Mix().Scaled(0.01), nil)
	dir := t.TempDir()
	if err := c.WriteDir(dir, 64); err != nil {
		t.Fatalf("WriteDir: %v", err)
	}
	src, err := corpus.OpenDir(dir, nil)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	return src
}

func runTFKMOn(t *testing.T, src pario.Source, shards int, backend Backend, scratch string) *TFKMReport {
	t.Helper()
	pool := par.NewPool(4)
	defer pool.Close()
	ctx := NewContext(pool)
	ctx.ScratchDir = scratch
	ctx.Backend = backend
	cfg := TFKMConfig{
		Mode:   Merged,
		Shards: shards,
		TFIDF:  tfidf.Options{Normalize: true},
		KMeans: kmeans.Options{K: 8, Seed: 1},
	}
	rep, err := RunTFKM(src, ctx, cfg)
	if err != nil {
		t.Fatalf("RunTFKM(shards=%d, backend=%s): %v", shards, backend.Name(), err)
	}
	return rep
}

// TestCrossBackendDeterminism is the acceptance suite: the full
// TF/IDF→K-Means plan over real worker serialization must produce
// bit-identical scores, assignments and iteration counts to the local
// pool, at every shard count.
func TestCrossBackendDeterminism(t *testing.T) {
	src := diskCorpus(t)
	scratch := t.TempDir()
	for _, shards := range []int{1, 4, 7} {
		local := runTFKMOn(t, src, shards, LocalBackend{}, scratch)
		remote := runTFKMOn(t, src, shards, pipeBackend(t, 2), scratch)

		lr, rr := local.Clustering.Result, remote.Clustering.Result
		if lr.Iterations != rr.Iterations {
			t.Errorf("shards=%d: iterations differ: local %d, rpc %d", shards, lr.Iterations, rr.Iterations)
		}
		if lr.Inertia != rr.Inertia {
			t.Errorf("shards=%d: inertia differs: local %v, rpc %v", shards, lr.Inertia, rr.Inertia)
		}
		if !reflect.DeepEqual(lr.Assign, rr.Assign) {
			t.Errorf("shards=%d: assignments differ across backends", shards)
		}
		if !reflect.DeepEqual(lr.Counts, rr.Counts) {
			t.Errorf("shards=%d: cluster counts differ across backends", shards)
		}
		if !reflect.DeepEqual(lr.Centroids, rr.Centroids) {
			t.Errorf("shards=%d: centroids differ across backends", shards)
		}

		lt, rt := local.Clustering.TFIDF, remote.Clustering.TFIDF
		if lt == nil || rt == nil {
			t.Fatalf("shards=%d: merged run dropped the TF/IDF result", shards)
		}
		if !reflect.DeepEqual(lt.Terms, rt.Terms) || !reflect.DeepEqual(lt.DF, rt.DF) {
			t.Errorf("shards=%d: term tables differ across backends", shards)
		}
		if len(lt.Vectors) != len(rt.Vectors) {
			t.Fatalf("shards=%d: vector counts differ", shards)
		}
		for i := range lt.Vectors {
			if !sparse.Equal(&lt.Vectors[i], &rt.Vectors[i]) {
				t.Fatalf("shards=%d: TF/IDF vector %d differs across backends", shards, i)
			}
		}
		if !reflect.DeepEqual(local.Clustering.DocNames, remote.Clustering.DocNames) {
			t.Errorf("shards=%d: document names differ across backends", shards)
		}
	}
}

// TestAffinityReleasedAfterLoop: a finished loop must drop its session
// pins so a long-lived backend does not grow one entry per loop shard
// forever, and the workers must drop the state under them.
func TestAffinityReleasedAfterLoop(t *testing.T) {
	b, st := pipeWorkers(t, 2, nil)
	src := diskCorpus(t)
	runTFKMOn(t, src, 4, b, t.TempDir())
	b.mu.Lock()
	left := len(b.affinity)
	b.mu.Unlock()
	if left != 0 {
		t.Errorf("%d affinity pins left after the loop finished", left)
	}
	if n := st.entries(); n != 0 {
		t.Errorf("%d worker store entries left after the loop finished", n)
	}
}

// TestRPCBackendFallsBackLocally: shards of an in-memory corpus have no
// serializable identity, so every task must quietly run on the
// coordinator — same results, no errors.
func TestRPCBackendFallsBackLocally(t *testing.T) {
	c := corpus.Generate(corpus.Mix().Scaled(0.01), nil)
	src := c.Source(nil)
	scratch := t.TempDir()
	local := runTFKMOn(t, src, 4, LocalBackend{}, scratch)
	remote := runTFKMOn(t, src, 4, pipeBackend(t, 2), scratch)
	if !reflect.DeepEqual(local.Clustering.Result.Assign, remote.Clustering.Result.Assign) {
		t.Errorf("in-memory fallback produced different assignments")
	}
}

// TestWorkerCrashFailsRun: a worker that dies mid-protocol must surface a
// wrapped error from Plan.Run — never hang the join.
func TestWorkerCrashFailsRun(t *testing.T) {
	coord, work := net.Pipe()
	go func() {
		// Accept the first bytes, then die — the rudest possible worker.
		buf := make([]byte, 16)
		work.Read(buf)
		work.Close()
	}()
	b := NewRPCBackendConns(coord)
	defer b.Close()

	src := diskCorpus(t)
	pool := par.NewPool(4)
	defer pool.Close()
	ctx := NewContext(pool)
	ctx.ScratchDir = t.TempDir()
	ctx.Backend = b
	_, err := RunTFKM(src, ctx, TFKMConfig{
		Mode:   Merged,
		Shards: 4,
		TFIDF:  tfidf.Options{Normalize: true},
		KMeans: kmeans.Options{K: 8, Seed: 1},
	})
	if err == nil {
		t.Fatalf("crashed worker did not fail the run")
	}
	if !strings.Contains(err.Error(), "worker") {
		t.Errorf("crash error does not name the worker: %v", err)
	}
}

// TestUnknownKernelErrors: a version-skewed worker without the requested
// kernel reports a clean error.
func TestUnknownKernelErrors(t *testing.T) {
	b := pipeBackend(t, 1)
	_, err := b.RunTask(nil, &Task{Remote: &RemoteTask{
		Op:     "no.such.kernel",
		Args:   func(dst []byte) []byte { return dst },
		Absorb: func([]byte) (Value, error) { return nil, nil },
	}})
	if err == nil || !strings.Contains(err.Error(), "no kernel") {
		t.Fatalf("unknown kernel error = %v", err)
	}
}

// TestTaskDescriptorsFlatRoundTrip covers the flat argument codecs of every
// built-in kernel.
func TestTaskDescriptorsFlatRoundTrip(t *testing.T) {
	count := &CountTaskArgs{
		Shard:   pario.SourceSpec{Paths: []string{"/a/doc1.txt", "/a/doc2.txt"}, Lo: 4, Hi: 6},
		Session: "tf-9-1-0",
		Opts:    tfidf.WireOptions{DictKind: 1, MinWordLen: 2, Stem: true, Normalize: true},
	}
	if got, err := DecodeFlatCountTaskArgs(count.AppendFlat(nil)); err != nil || !reflect.DeepEqual(got, count) {
		t.Errorf("CountTaskArgs round trip: got %+v (%v), want %+v", got, err, count)
	}
	for _, tr := range []*TransformTaskArgs{
		{
			CountsSession: "tf-9-1-0",
			Terms:         &tfidf.ShardTerms{Remap: []uint32{3, 700}, IDF: []float64{0.25, math.Log(7)}, Dim: 701},
			Opts:          tfidf.WireOptions{DictKind: 2, GlobalPresize: 1 << 10, DocPresize: 8},
		},
		{CountsSession: "tf-9-1-0", Recount: count, Terms: &tfidf.ShardTerms{Dim: 7}, Opts: count.Opts},
	} {
		if got, err := DecodeFlatTransformTaskArgs(tr.AppendFlat(nil)); err != nil || !reflect.DeepEqual(got, tr) {
			t.Errorf("TransformTaskArgs round trip: got %+v (%v), want %+v", got, err, tr)
		}
	}
	km := &KMAssignTaskArgs{
		Loop:  "km-1-2",
		Shard: 3,
		Iter:  17,
		Init: &KMShardInit{
			Vectors: []sparse.Vector{{Idx: []uint32{0, 5}, Val: []float64{1.25, -2.5}}},
			Norms:   []float64{7.8125},
			Dim:     6,
			K:       2,
			Block:   8,
		},
		Assign: []int32{-1},
	}
	if got, err := DecodeFlatKMAssignTaskArgs(km.AppendFlat(nil)); err != nil || !reflect.DeepEqual(got, km) {
		t.Errorf("KMAssignTaskArgs round trip: got %+v (%v), want %+v", got, err, km)
	}
	seed := &KMSeedTaskArgs{
		Loop:  "km-1-2",
		Shard: 3,
		Last:  sparse.Vector{Idx: []uint32{2, 4}, Val: []float64{0.5, -1}},
		D2:    []float64{math.Inf(1), 0.25},
	}
	if got, err := DecodeFlatKMSeedTaskArgs(seed.AppendFlat(nil)); err != nil || !reflect.DeepEqual(got, seed) {
		t.Errorf("KMSeedTaskArgs round trip: got %+v (%v), want %+v", got, err, seed)
	}
}

// TestSourceSpecDescribe covers the shard descriptor derivation.
func TestSourceSpecDescribe(t *testing.T) {
	fs := &pario.FileSource{Paths: []string{"p0", "p1", "p2", "p3", "p4", "p5"}}
	spec, ok := pario.Describe(pario.Partition(fs, 3, 1))
	if !ok {
		t.Fatalf("SubSource over FileSource not describable")
	}
	if spec.Lo != 2 || spec.Hi != 4 || !reflect.DeepEqual(spec.Paths, []string{"p2", "p3"}) {
		t.Errorf("shard 1/3 described as %+v", spec)
	}
	// Nested SubSources compose offsets.
	outer := &pario.SubSource{Src: fs, Lo: 1, Hi: 6}
	inner := &pario.SubSource{Src: outer, Lo: 2, Hi: 4}
	spec, ok = pario.Describe(inner)
	if !ok || spec.Lo != 3 || spec.Hi != 5 || !reflect.DeepEqual(spec.Paths, []string{"p3", "p4"}) {
		t.Errorf("nested shard described as %+v (ok=%v)", spec, ok)
	}
	if _, ok := pario.Describe(&pario.MemSource{Docs: [][]byte{[]byte("x")}}); ok {
		t.Errorf("MemSource claims to be describable")
	}
	// A disk-simulated scan must stay local: the simulator's contention
	// state cannot ship, and an unthrottled worker read would falsify the
	// simulated timings.
	throttled := &pario.FileSource{Paths: []string{"p0"}, Disk: pario.HDD2016()}
	if _, ok := pario.Describe(throttled); ok {
		t.Errorf("disk-simulated FileSource claims to be describable")
	}
	if _, ok := pario.Describe(pario.Partition(throttled, 1, 0)); ok {
		t.Errorf("shard of a disk-simulated FileSource claims to be describable")
	}
}

// TestAnnotateBackend: Explain must say where tasks run.
func TestAnnotateBackend(t *testing.T) {
	src := &pario.FileSource{Paths: []string{filepath.Join("x", "d.txt")}}
	plan := TFKMPlan(src, TFKMConfig{Mode: Merged, Shards: 4, KMeans: kmeans.Options{K: 1}})
	AnnotateBackend(plan, pipeBackend(t, 2))
	out := plan.Explain()
	for _, want := range []string{"backend: rpc (2 workers)", "tasks: remote", "loop shard tasks: remote"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain lacks %q:\n%s", want, out)
		}
	}
	local := TFKMPlan(src, TFKMConfig{Mode: Merged})
	AnnotateBackend(local, LocalBackend{})
	if !strings.Contains(local.Explain(), "backend: local") {
		t.Errorf("local Explain lacks backend note:\n%s", local.Explain())
	}
}
