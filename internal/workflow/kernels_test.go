package workflow

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"hpa/internal/flatwire"
	"hpa/internal/kmeans"
	"hpa/internal/par"
	"hpa/internal/pario"
	"hpa/internal/sparse"
	"hpa/internal/tfidf"
)

// runTFKMWith runs the full plan with an explicit K-Means option set — the
// matrix below flips Empty and Block per run.
func runTFKMWith(t *testing.T, src pario.Source, shards int, backend Backend, scratch string, km kmeans.Options) *TFKMReport {
	t.Helper()
	pool := par.NewPool(4)
	defer pool.Close()
	ctx := NewContext(pool)
	ctx.ScratchDir = scratch
	ctx.Backend = backend
	rep, err := RunTFKM(src, ctx, TFKMConfig{
		Mode:   Merged,
		Shards: shards,
		TFIDF:  tfidf.Options{Normalize: true},
		KMeans: km,
	})
	if err != nil {
		t.Fatalf("RunTFKM(shards=%d, backend=%s, block=%d): %v", shards, backend.Name(), km.Block, err)
	}
	return rep
}

// TestShardedAssignMatchesSerialDriver is the sharded-seeding and
// blocked-kernel acceptance suite. Two baselines anchor the matrix:
//
//   - the library driver (tfidf.Run, then kmeans.Run on a 4-worker pool) —
//     serial K-Means++ seeding, one assignment range per pool worker.
//     Every sharded cell must reproduce its clustering bit for bit: seed
//     picks (the decomposed scan rounds replay the serial RNG
//     draw-for-draw), assignments, counts, iteration count, every centroid
//     and inertia bit — the contract sameClustering asserts;
//   - the sharded local run at the same shard count, on the scalar kernel.
//     {local, rpc} × block widths must agree with it bit for bit too —
//     backend and kernel shape never touch a float.
//
// Both baselines pin the scalar distance kernel (Block: -1) while the
// matrix cells cycle the blocked kernel's lane widths {4, 8}, so every
// cell's bit-for-bit comparison doubles as the blocked-kernel equality
// proof — at k=13, deliberately not a multiple of either width, so the
// ragged tail lanes are exercised too. Under -short (the CI race run) the
// matrix shrinks to one shard count and one empty policy — still covering
// sharded seeding on both backends under the race detector.
func TestShardedAssignMatchesSerialDriver(t *testing.T) {
	src := diskCorpus(t)
	pool := par.NewPool(4)
	defer pool.Close()
	tf, err := tfidf.Run(src, pool, tfidf.Options{Normalize: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	scratch := t.TempDir()
	empties := []kmeans.EmptyPolicy{kmeans.KeepCentroid, kmeans.ReseedFarthest}
	shardCounts := []int{1, 4, 7}
	if testing.Short() {
		empties = empties[:1]
		shardCounts = []int{4}
	}
	blocks := []int{4, 8}
	for ei, empty := range empties {
		// The driver seeds serially inside the clusterer, not as executor
		// prepare tasks.
		br, err := kmeans.Run(tf.Vectors, tf.Dim(), pool,
			kmeans.Options{K: 13, Seed: 3, Empty: empty, Block: -1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for si, shards := range shardCounts {
			// Per-shard-count bit-exact reference: the scalar local run.
			ref := runTFKMWith(t, src, shards, LocalBackend{}, scratch,
				kmeans.Options{K: 13, Seed: 3, Empty: empty, Block: -1}).Clustering.Result
			backends := []struct {
				name string
				b    Backend
			}{{"local", LocalBackend{}}, {"rpc", pipeBackend(t, 2)}}
			for bi, bk := range backends {
				// Both widths meet both backends across the matrix.
				block := blocks[(ei+si+bi)%len(blocks)]
				pr := runTFKMWith(t, src, shards, bk.b, scratch,
					kmeans.Options{K: 13, Seed: 3, Empty: empty, Block: block}).Clustering.Result
				tag := fmt.Sprintf("empty=%v shards=%d backend=%s block=%d", empty, shards, bk.name, block)

				// Against the serial-seeded driver baseline: one clustering.
				if !reflect.DeepEqual(pr.Seeds, br.Seeds) {
					t.Errorf("%s: seed picks: got %v, serial driver %v", tag, pr.Seeds, br.Seeds)
				}
				sameClustering(t, tag+" vs driver", br, pr)

				// Against the same-shard-count scalar reference:
				// bit-for-bit, floats included.
				if math.Float64bits(pr.Inertia) != math.Float64bits(ref.Inertia) {
					t.Errorf("%s: inertia: got %v, scalar ref %v", tag, pr.Inertia, ref.Inertia)
				}
				if !reflect.DeepEqual(pr.History, ref.History) {
					t.Errorf("%s: inertia history differs from scalar ref", tag)
				}
				if !reflect.DeepEqual(pr.Centroids, ref.Centroids) {
					t.Errorf("%s: centroids differ bitwise from scalar ref", tag)
				}
			}
		}
	}
}

// shardFiles writes one file per document to a temp dir and returns the
// descriptor of them as a shard at [lo, lo+len(docs)).
func shardFiles(t *testing.T, lo int, docs ...string) pario.SourceSpec {
	t.Helper()
	dir := t.TempDir()
	spec := pario.SourceSpec{Lo: lo, Hi: lo + len(docs)}
	for i, doc := range docs {
		path := filepath.Join(dir, fmt.Sprintf("d%d.txt", i))
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		spec.Paths = append(spec.Paths, path)
	}
	return spec
}

// TestTransformKernelCacheProtocol drives the worker side of the one
// transform miss: counts named by a key the worker store does not hold.
// The kernel answers errMiss and leaves every stored session in place; the
// resend, carrying the count's descriptor, recounts the shard and scores
// the same bytes as the session path, which consumes the stored counts;
// and a descriptor whose recount has another vocabulary than the terms
// is malformed.
func TestTransformKernelCacheProtocol(t *testing.T) {
	st := newWorkerStore()
	call := func(fn func(*workerStore, *kernelCall, []byte) ([]byte, error), args []byte) ([]byte, error) {
		return fn(st, &kernelCall{conn: 1, args: args}, nil)
	}
	opts := tfidf.Options{Normalize: true}
	wopts, ok := opts.Wire()
	if !ok {
		t.Fatalf("options do not serialize")
	}
	count := &CountTaskArgs{
		Shard:   shardFiles(t, 5, "alpha beta beta gamma", "beta gamma gamma", "alpha delta epsilon epsilon"),
		Session: "sess-b",
		Opts:    wopts,
	}
	reply, err := call(runCountKernel, count.AppendFlat(nil))
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	sc, err := tfidf.DecodeFlatShardCounts(reply)
	if err != nil {
		t.Fatalf("decode count reply: %v", err)
	}
	pool := par.NewPool(2)
	defer pool.Close()
	terms := tfidf.MergeShards([]*tfidf.ShardCounts{sc}, pool, opts).Resolve(sc.Words)

	// 1. Counts by a key the store does not hold: the one miss, and the
	// stored session stays.
	if _, err := call(runTransformKernel, (&TransformTaskArgs{CountsSession: "sess-a", Terms: terms, Opts: wopts}).AppendFlat(nil)); !errors.Is(err, errMiss) {
		t.Fatalf("unknown session: error %v, want errMiss", err)
	}
	if st.get("sess-b") == nil {
		t.Fatalf("a miss removed another session's counts")
	}

	// 2. The resend recounts from the descriptor: the store is untouched,
	// and the reply is the session path's, byte for byte.
	recounted, err := call(runTransformKernel, (&TransformTaskArgs{CountsSession: "sess-a", Recount: count, Terms: terms, Opts: wopts}).AppendFlat(nil))
	if err != nil {
		t.Fatalf("resend with the descriptor: %v", err)
	}
	if st.get("sess-b") == nil {
		t.Fatalf("a recount removed a stored session")
	}
	stored, err := call(runTransformKernel, (&TransformTaskArgs{CountsSession: "sess-b", Terms: terms, Opts: wopts}).AppendFlat(nil))
	if err != nil {
		t.Fatalf("stored session: %v", err)
	}
	if !slices.Equal(recounted, stored) {
		t.Errorf("the recount scored %d bytes unlike the stored counts' %d", len(recounted), len(stored))
	}
	vs, err := tfidf.DecodeFlatVectorShard(stored)
	if err != nil || vs.Lo != 5 || vs.Hi != 8 || len(vs.Vectors) != 3 {
		t.Fatalf("stored session: shard %+v, %v", vs, err)
	}
	if n := st.entries(); n != 0 {
		t.Errorf("transform left %d entries, the consumed counts among them", n)
	}

	// 3. A descriptor whose recount has another vocabulary size than the
	// terms resolved for the shard: malformed, not scored.
	other := &CountTaskArgs{Shard: shardFiles(t, 5, "alpha beta"), Session: "sess-c", Opts: wopts}
	_, err = call(runTransformKernel, (&TransformTaskArgs{CountsSession: "sess-c", Recount: other, Terms: terms, Opts: wopts}).AppendFlat(nil))
	if !errors.Is(err, flatwire.ErrMalformed) || !strings.Contains(err.Error(), "a remap of 5 terms for a vocabulary of 2") {
		t.Errorf("recount of another vocabulary: error %v, want a malformed remap", err)
	}
}

// assertShardEqual compares two vector shards bit-exactly.
func assertShardEqual(t *testing.T, what string, got, want *tfidf.VectorShard) {
	t.Helper()
	if len(got.Vectors) != len(want.Vectors) {
		t.Fatalf("%s: %d vectors, want %d", what, len(got.Vectors), len(want.Vectors))
	}
	for i := range want.Vectors {
		if !sparse.Equal(&got.Vectors[i], &want.Vectors[i]) {
			t.Errorf("%s: vector %d differs", what, i)
		}
		if math.Float64bits(got.Norms[i]) != math.Float64bits(want.Norms[i]) {
			t.Errorf("%s: norm %d bits differ", what, i)
		}
	}
	if !reflect.DeepEqual(got.DocNames, want.DocNames) {
		t.Errorf("%s: names differ", what)
	}
}

// storeFrameBackend is an RPC backend that records the ops of remote
// tasks carrying a keyed body — the only tasks that can put a store frame
// on the wire ahead of their own.
type storeFrameBackend struct {
	*RPCBackend
	mu    sync.Mutex
	keyed map[string]int
}

func (b *storeFrameBackend) RunTask(ctx *Context, t *Task) (Value, error) {
	if t.Remote != nil && t.Remote.keyed != nil {
		b.mu.Lock()
		b.keyed[t.Remote.Op]++
		b.mu.Unlock()
	}
	return b.RPCBackend.RunTask(ctx, t)
}

// TestTransformShipsNoStoreFrames runs the full plan on two pipe workers,
// twice over one corpus: no tfidf.transform task carries a keyed body, so
// none sends a store frame — the global term table never crosses the
// wire — and each run's clustering digest and Figure 4 numbers (dictionary
// footprint, vocabulary counters) equal the local run's. The affinity pins
// and the worker store's entries are gone after the runs.
func TestTransformShipsNoStoreFrames(t *testing.T) {
	rpc, st := pipeWorkers(t, 2, nil)
	b := &storeFrameBackend{RPCBackend: rpc, keyed: map[string]int{}}
	src := diskCorpus(t)
	scratch := t.TempDir()
	pool := par.NewPool(1)
	defer pool.Close()
	run := func(backend Backend) *TFKMReport {
		ctx := NewContext(pool)
		ctx.ScratchDir = scratch
		ctx.Backend = backend
		rep, err := RunTFKM(src, ctx, TFKMConfig{
			Mode:   Merged,
			Shards: 7,
			TFIDF:  tfidf.Options{Normalize: true},
			KMeans: kmeans.Options{K: 8, Seed: 1},
		})
		if err != nil {
			t.Fatalf("RunTFKM: %v", err)
		}
		return rep
	}
	local := run(LocalBackend{})
	want := clusteringDigest(local.Clustering.Result)
	for i := 0; i < 2; i++ {
		rep := run(b)
		if d := clusteringDigest(rep.Clustering.Result); d != want {
			t.Errorf("run %d on two workers: digest %#x, local %#x", i, d, want)
		}
		if rep.DictFootprint != local.DictFootprint || rep.DictStats != local.DictStats {
			t.Errorf("run %d on two workers: footprint %d, counters %+v; local %d, %+v",
				i, rep.DictFootprint, rep.DictStats, local.DictFootprint, local.DictStats)
		}
	}
	if local.DictStats.Capacity == 0 {
		t.Errorf("the local run reports no vocabulary counters: %+v", local.DictStats)
	}
	if n := b.keyed["tfidf.transform"]; n != 0 {
		t.Errorf("%d tfidf.transform tasks carried a keyed body", n)
	}
	if b.keyed["kmeans.assign"] == 0 {
		t.Errorf("no kmeans.assign task carried its centroid block: the recorder saw no keyed body at all")
	}
	if n := b.pins(); n != 0 {
		t.Errorf("%d affinity pins left after the runs (scope release failed)", n)
	}
	if n := st.entries(); n != 0 {
		t.Errorf("%d worker store entries left after the runs", n)
	}
}

// TestKMAssignReplyFlat covers the flat kmeans.assign reply codec: exact
// round trips, a distance block that is always there — one distance per
// assignment, never optional — and structural rejection of malformed
// buffers.
func TestKMAssignReplyFlat(t *testing.T) {
	acc := &kmeans.AccumWire{Changed: 2}
	for _, rep := range []*KMAssignReply{
		{Accum: acc, Assign: []int32{0, 1, 0}, Dists: []float64{0.5, math.Copysign(0, -1), math.Inf(1)}},
		{Accum: acc, Assign: []int32{}, Dists: []float64{}},
	} {
		got, err := DecodeFlatKMAssignReply(rep.AppendFlat(nil))
		if err != nil {
			t.Fatalf("DecodeFlatKMAssignReply: %v", err)
		}
		if !slices.Equal(got.Assign, rep.Assign) || len(got.Dists) != len(rep.Dists) || *got.Accum != *acc {
			t.Errorf("round trip: got %+v", got)
		}
		for i, d := range rep.Dists {
			if math.Float64bits(got.Dists[i]) != math.Float64bits(d) {
				t.Errorf("distance %d: got %v, want %v", i, got.Dists[i], d)
			}
		}
	}

	good := (&KMAssignReply{Accum: acc, Assign: []int32{0, 1}, Dists: []float64{0.5, 1.5}}).AppendFlat(nil)
	for name, b := range map[string][]byte{
		"empty":          {},
		"bad magic":      append([]byte{1, 1, 1, 1}, good[4:]...),
		"truncated":      good[:len(good)-3],
		"no distances":   good[:len(good)-16],
		"one distance":   good[:len(good)-8],
		"trailing":       append(append([]byte{}, good...), 0xff),
		"negative moved": (&KMAssignReply{Accum: &kmeans.AccumWire{Changed: -1}, Assign: []int32{0}, Dists: []float64{1}}).AppendFlat(nil),
	} {
		if rep, err := DecodeFlatKMAssignReply(b); err == nil {
			t.Errorf("%s: decoded without error: %+v", name, rep)
		}
	}
}

// pipeWorker serves the worker protocol over the given store on one end of
// a net.Pipe and returns a raw client on the other: kernel calls with
// hand-built bodies over the real frame loop.
func pipeWorker(t testing.TB, st *workerStore) *wireClient {
	t.Helper()
	coord, work := net.Pipe()
	go serveConn(work, st)
	c := newWireClient(coord)
	t.Cleanup(func() { c.close() })
	return c
}

// call ships one request and returns the kernel's reply body.
func (c *wireClient) call(op string, body []byte) ([]byte, error) {
	rep, _, err := c.roundTrip(op, body, nil, 0, false)
	return rep.body, err
}

// TestKMKernelsRejectMalformedRequests: a worker serves whatever arrives on
// its socket, so every shape the K-Means kernels index by must come back as
// an error wrapping flatwire.ErrMalformed — a panic here used to be a dead
// worker process. A healthy request on the same worker still succeeds
// afterwards.
func TestKMKernelsRejectMalformedRequests(t *testing.T) {
	docs := []sparse.Vector{
		{Idx: []uint32{0, 2}, Val: []float64{1, 2}},
		{Idx: []uint32{1}, Val: []float64{3}},
	}
	goodInit := func() *KMShardInit {
		return &KMShardInit{Vectors: docs, Norms: []float64{5, 9}, Dim: 3, K: 2, Block: 4}
	}
	goodAssign := func(loop string) *KMAssignTaskArgs {
		return &KMAssignTaskArgs{Loop: loop, Init: goodInit(), Assign: []int32{-1, -1}}
	}
	goodSeed := func(loop string) *KMSeedTaskArgs {
		return &KMSeedTaskArgs{Loop: loop, Init: goodInit(), Last: docs[1], D2: []float64{math.Inf(1), math.Inf(1)}}
	}
	// block is a store-frame body: the loop's iteration-0 centroids, every
	// row; rawBlock writes one whatever its rows and base.
	block := func(loop string, cents [][]float64, cnorms []float64) []byte {
		return kmeans.AppendFlatCentroids(storeFrame(loop, 0, noCentroidBase), cents, cnorms, nil)
	}
	goodBlock := func(loop string) []byte {
		return block(loop, [][]float64{{1, 0, 2}, {0, 3, 0}}, []float64{5, 9})
	}
	rows := []sparse.Vector{{Idx: []uint32{0, 2}, Val: []float64{1, 2}}, {Idx: []uint32{1}, Val: []float64{3}},
		{Idx: []uint32{0}, Val: []float64{1}}}
	rawBlock := func(loop string, base uint64, k int, ids []uint32, cnorms []float64, rows []sparse.Vector) []byte {
		return appendRawCentroidBlock(storeFrame(loop, 0, base), k, ids, cnorms, rows)
	}
	inits := map[string]func(*KMShardInit){
		"k=0":              func(in *KMShardInit) { in.K = 0 },
		"k<0":              func(in *KMShardInit) { in.K = -3 },
		"dim<0":            func(in *KMShardInit) { in.Dim = -1 },
		"k × dim > frame":  func(in *KMShardInit) { in.K, in.Dim = 1<<14+1, 1<<13 },
		"k × dim overflow": func(in *KMShardInit) { in.K, in.Dim = 1<<40, 1<<40 },
		"block=3":          func(in *KMShardInit) { in.Block = 3 },
		"block=16":         func(in *KMShardInit) { in.Block = 16 },
		"block<0":          func(in *KMShardInit) { in.Block = -1 },
		"short norms":      func(in *KMShardInit) { in.Norms = in.Norms[:1] },
		"idx/val mismatch": func(in *KMShardInit) { in.Vectors = []sparse.Vector{{Idx: []uint32{0, 1}, Val: []float64{1}}, docs[1]} },
		"index past dim":   func(in *KMShardInit) { in.Vectors = []sparse.Vector{{Idx: []uint32{7}, Val: []float64{1}}, docs[1]} },
		"unsorted indices": func(in *KMShardInit) {
			in.Vectors = []sparse.Vector{{Idx: []uint32{2, 0}, Val: []float64{1, 2}}, docs[1]}
		},
	}
	type request struct {
		op    string
		body  []byte
		store []byte // a centroid block shipped ahead of the request, if any
	}
	cases := map[string]request{}
	for name, mutate := range inits {
		a, s := goodAssign("hostile-assign-"+name), goodSeed("hostile-seed-"+name)
		mutate(a.Init)
		mutate(s.Init)
		cases["assign init "+name] = request{"kmeans.assign", a.AppendFlat(nil), goodBlock(a.Loop)}
		cases["seed init "+name] = request{"kmeans.seed", s.AppendFlat(nil), nil}
	}
	for name, mutate := range map[string]func(*KMAssignTaskArgs){
		"short assign": func(a *KMAssignTaskArgs) { a.Assign = a.Assign[:1] },
		"assign >= k":  func(a *KMAssignTaskArgs) { a.Assign[1] = 2 },
		"assign < -1":  func(a *KMAssignTaskArgs) { a.Assign[0] = -2 },
	} {
		a := goodAssign("hostile-assign-args-" + name)
		mutate(a)
		cases["assign args "+name] = request{"kmeans.assign", a.AppendFlat(nil), goodBlock(a.Loop)}
	}
	for name, blk := range map[string]func(loop string) []byte{
		"fewer clusters": func(loop string) []byte { return block(loop, [][]float64{{1, 0, 2}}, []float64{5}) },
		"missing centroid": func(loop string) []byte {
			return rawBlock(loop, noCentroidBase, 2, []uint32{0}, []float64{5}, rows[:1])
		},
		"missing norm": func(loop string) []byte {
			return rawBlock(loop, noCentroidBase, 2, []uint32{0, 1}, []float64{5}, rows[:2])
		},
		"row past dim": func(loop string) []byte { return block(loop, [][]float64{{1, 0, 2, 4}, {0, 3, 0}}, []float64{5, 9}) },
		"truncated":    func(loop string) []byte { b := goodBlock(loop); return b[:len(b)-3] },
		"ID = k": func(loop string) []byte {
			return rawBlock(loop, noCentroidBase, 2, []uint32{0, 2}, []float64{5, 9}, rows[:2])
		},
		"duplicate IDs": func(loop string) []byte {
			return rawBlock(loop, noCentroidBase, 2, []uint32{1, 1}, []float64{5, 9}, rows[:2])
		},
		"descending IDs": func(loop string) []byte {
			return rawBlock(loop, noCentroidBase, 2, []uint32{1, 0}, []float64{5, 9}, rows[:2])
		},
		"more rows than k": func(loop string) []byte {
			return rawBlock(loop, noCentroidBase, 2, []uint32{0, 1, 2}, []float64{5, 9, 1}, rows)
		},
		// Iteration 0 updates no earlier matrix.
		"base = iter": func(loop string) []byte {
			return rawBlock(loop, 0, 2, []uint32{1}, []float64{9}, rows[1:2])
		},
	} {
		a := goodAssign("hostile-block-" + name)
		cases["assign block "+name] = request{"kmeans.assign", a.AppendFlat(nil), blk(a.Loop)}
	}
	for name, mutate := range map[string]func(*KMSeedTaskArgs){
		"short d2":              func(s *KMSeedTaskArgs) { s.D2 = s.D2[:1] },
		"seed idx/val mismatch": func(s *KMSeedTaskArgs) { s.Last = sparse.Vector{Idx: []uint32{0, 1}, Val: []float64{1}} },
		// The seed is scattered into a dim-wide scratch: one index at the
		// loop's dimension, and one that would size a 32 GiB scratch.
		"seed index = dim":  func(s *KMSeedTaskArgs) { s.Last = sparse.Vector{Idx: []uint32{1, 3}, Val: []float64{1, 1}} },
		"seed index 2^32-1": func(s *KMSeedTaskArgs) { s.Last = sparse.Vector{Idx: []uint32{math.MaxUint32}, Val: []float64{1}} },
	} {
		s := goodSeed("hostile-seed-args-" + name)
		mutate(s)
		cases["seed args "+name] = request{"kmeans.seed", s.AppendFlat(nil), nil}
	}
	good := goodAssign("hostile-truncated").AppendFlat(nil)
	cases["assign args truncated"] = request{"kmeans.assign", good[:len(good)-2], nil}
	cases["assign args trailing"] = request{"kmeans.assign", append(good, 0), nil}
	cases["seed args empty"] = request{"kmeans.seed", nil, nil}
	// No init can produce a session whose norms and documents disagree, so
	// plant one: the scan indexes norms by document.
	st := newWorkerStore()
	bad := &kmLoop{k: 2, dim: 3}
	st.put(0, "hostile-session-norms", "", func() any { return bad })
	st.put(0, loopShardKey("hostile-session-norms", 0), "hostile-session-norms",
		func() any { return &kmSession{loop: bad, docs: docs, norms: []float64{5}} })
	s := goodSeed("hostile-session-norms")
	s.Init = nil
	cases["seed session short norms"] = request{"kmeans.seed", s.AppendFlat(nil), nil}
	cases["centroid store without a key"] = request{"kmeans.centroids", []byte{1, 2}, nil}

	c := pipeWorker(t, st)
	for name, rq := range cases {
		if rq.store != nil {
			if _, err := c.call("kmeans.centroids", rq.store); err != nil {
				t.Errorf("%s: storing the block: %v", name, err)
			}
		}
		if _, err := c.call(rq.op, rq.body); !errors.Is(err, flatwire.ErrMalformed) {
			t.Errorf("%s: error %v, want one wrapping flatwire.ErrMalformed", name, err)
		}
	}

	reply, err := c.call("kmeans.seed", goodSeed("healthy").AppendFlat(nil))
	if err != nil {
		t.Fatalf("healthy seed request after the hostile ones: %v", err)
	}
	if d2, err := DecodeFlatKMSeedReply(reply); err != nil || len(d2) != 2 || d2[1] != 0 {
		t.Fatalf("healthy seed reply: %v, %v", d2, err)
	}
	healthy := goodAssign("healthy")
	healthy.Init = nil // the seed request above created the session
	// Without the iteration's block the worker misses rather than scanning
	// against stale centroids.
	if _, err = c.call("kmeans.assign", healthy.AppendFlat(nil)); !errors.Is(err, errMiss) {
		t.Fatalf("assign without a centroid block: error %v, want errMiss", err)
	}
	if _, err := c.call("kmeans.centroids", goodBlock("healthy")); err != nil {
		t.Fatalf("healthy centroid store: %v", err)
	}
	reply, err = c.call("kmeans.assign", healthy.AppendFlat(nil))
	if err != nil {
		t.Fatalf("healthy assign request after the hostile ones: %v", err)
	}
	rep, err := DecodeFlatKMAssignReply(reply)
	if err != nil || !reflect.DeepEqual(rep.Assign, []int32{0, 1}) {
		t.Fatalf("healthy assign reply: %+v, %v", rep, err)
	}
}

// storeFrame starts a kmeans.centroids store-frame body: the loop's key,
// the iteration the block brings a worker to and the one whose matrix it
// updates.
func storeFrame(loop string, iter int, base uint64) []byte {
	return flatwire.AppendU64(flatwire.AppendU64(flatwire.AppendString(nil, loop), uint64(iter)), base)
}

// appendRawCentroidBlock appends a kmeans centroid block for k clusters
// carrying the given IDs, norms and rows as they are — what the encoder
// would never write.
func appendRawCentroidBlock(b []byte, k int, ids []uint32, cnorms []float64, rows []sparse.Vector) []byte {
	b = flatwire.AppendU32(b, 0x4850434e) // "HPCN"
	b = flatwire.AppendU8(b, flatwire.CodecRaw)
	b = flatwire.AppendU32(b, uint32(k))
	b = flatwire.AppendU32(b, uint32(len(ids)))
	b = flatwire.AppendU32s(b, ids)
	b = flatwire.AppendF64s(b, cnorms)
	return sparse.AppendFlatVectors(b, rows)
}

// TestShardInitEncodeAllocatesOnce: a loop shard's init, the largest
// request body, is sized before it is written.
func TestShardInitEncodeAllocatesOnce(t *testing.T) {
	docs := overlapMatrix().Vectors
	norms := make([]float64, len(docs))
	for i := range docs {
		norms[i] = docs[i].NormSq()
	}
	in := &KMShardInit{Vectors: docs, Norms: norms, Dim: 48, K: 6, Block: 8}
	if n := testing.AllocsPerRun(20, func() { _ = in.appendFlat(nil) }); n != 1 {
		t.Errorf("a shard init's encode allocated %.0f times, want 1", n)
	}
}

// layoutRows reads a block layout's k rows of dimension dim back through
// DotsInto against unit vectors.
func layoutRows(l *sparse.BlockLayout, k, dim int) [][]float64 {
	rows := make([][]float64, k)
	for j := range rows {
		rows[j] = make([]float64, dim)
	}
	dots := kmeans.DotScratch(k)
	for t := 0; t < dim; t++ {
		l.DotsInto(&sparse.Vector{Idx: []uint32{uint32(t)}, Val: []float64{1}}, dots)
		for j := range rows {
			rows[j][t] = dots[j]
		}
	}
	return rows
}

// TestCentroidBlockDecodesInPlace: a worker applies every iteration's
// centroid block to the block layout its loop's first decode allocated,
// and keeps no dense matrix beside it — a delta overwriting just its rows'
// lanes, so the layout's dots are the new centroids' — and a block the
// decoder rejects leaves the installed iteration intact, as does a delta
// against centroids the worker does not hold, which it reports as a miss.
func TestCentroidBlockDecodesInPlace(t *testing.T) {
	const loop = "decode-in-place"
	st := newWorkerStore()
	l := &kmLoop{k: 3, dim: 3, block: 8}
	st.put(0, loop, "", func() any { return l })
	apply := func(iter int, base uint64, block []byte) (*kmCentroids, error) {
		t.Helper()
		if _, err := storeCentroidsKernel(st, &kernelCall{args: append(storeFrame(loop, iter, base), block...)}, nil); err != nil {
			t.Fatalf("storing iteration %d's block: %v", iter, err)
		}
		return l.centroids(iter)
	}
	first, err := apply(0, noCentroidBase,
		kmeans.AppendFlatCentroids(nil, [][]float64{{1, 0, 2}, {0, 3, 0}, {4, 4, 4}}, []float64{5, 9, 48}, nil))
	if err != nil || first == nil {
		t.Fatalf("iteration 0's full block: %v, %v", first, err)
	}
	if first.cents != nil {
		t.Fatal("a worker scanning with the blocked kernel keeps a dense matrix")
	}
	norm, layout := &first.cnorms[0], first.layout
	// Iteration 1 rewrites centroids 0 and 1 and ships only those rows: the
	// poisoned centroid 2 must not travel.
	want := [][]float64{{0, 4, 0}, {1, 1, 1}, {4, 4, 4}}
	wantNorms := []float64{16, 3, 48}
	second, err := apply(1, 0, kmeans.AppendFlatCentroids(nil, [][]float64{{0, 4, 0}, {1, 1, 1}, {-7, -7, -7}},
		[]float64{16, 3, -1}, []bool{true, true, false}))
	if err != nil || second == nil {
		t.Fatalf("iteration 1's delta: %v, %v", second, err)
	}
	if &second.cnorms[0] != norm || second.layout != layout {
		t.Fatal("iteration 1's block was decoded into fresh arrays")
	}
	check := func(when string) {
		t.Helper()
		if got := layoutRows(l.cur.layout, 3, 3); l.cur.iter != 1 || !reflect.DeepEqual(got, want) || !reflect.DeepEqual(l.cur.cnorms, wantNorms) {
			t.Fatalf("%s: installed centroids are iteration %d %v %v, want iteration 1 %v %v",
				when, l.cur.iter, got, l.cur.cnorms, want, wantNorms)
		}
		v := sparse.Vector{Idx: []uint32{0, 1, 2}, Val: []float64{2, 3, 5}}
		dots := make([]float64, 8)
		l.cur.layout.DotsInto(&v, dots)
		if dots[0] != 12 || dots[1] != 10 || dots[2] != 40 {
			t.Fatalf("%s: layout dots %v, want [12 10 40 …]", when, dots[:3])
		}
	}
	check("after the delta")
	rows := []sparse.Vector{{Idx: []uint32{1}, Val: []float64{2}}, {Idx: []uint32{0}, Val: []float64{3}},
		{Idx: []uint32{2}, Val: []float64{1}}, {Idx: []uint32{0}, Val: []float64{5}}}
	for name, tc := range map[string]struct {
		base  uint64
		block []byte
	}{
		"row past dim": {1, kmeans.AppendFlatCentroids(nil, [][]float64{{1, 0, 2, 4}, {0, 3, 0}, {1, 1, 1}},
			[]float64{21, 9, 3}, []bool{true, false, false})},
		"ID = k":           {1, appendRawCentroidBlock(nil, 3, []uint32{0, 3}, []float64{4, 9}, rows[:2])},
		"ID 2^32-1":        {1, appendRawCentroidBlock(nil, 3, []uint32{math.MaxUint32}, []float64{4}, rows[:1])},
		"duplicate IDs":    {1, appendRawCentroidBlock(nil, 3, []uint32{0, 0}, []float64{4, 9}, rows[:2])},
		"descending IDs":   {1, appendRawCentroidBlock(nil, 3, []uint32{2, 1}, []float64{4, 9}, rows[:2])},
		"more rows than k": {1, appendRawCentroidBlock(nil, 3, []uint32{0, 1, 2, 3}, []float64{4, 9, 1, 25}, rows)},
		"partial full":     {noCentroidBase, appendRawCentroidBlock(nil, 3, []uint32{0, 1}, []float64{4, 9}, rows[:2])},
		"base = iter":      {2, appendRawCentroidBlock(nil, 3, []uint32{0}, []float64{4}, rows[:1])},
		"base > iter":      {3, appendRawCentroidBlock(nil, 3, []uint32{0}, []float64{4}, rows[:1])},
	} {
		if c, err := apply(2, tc.base, tc.block); !errors.Is(err, flatwire.ErrMalformed) || c != nil {
			t.Errorf("%s: decoded to %v with error %v, want an error wrapping flatwire.ErrMalformed", name, c, err)
		}
		check("after rejecting " + name)
	}
	// A delta against iteration 0, which the worker no longer holds, is a
	// miss; the full resend behind it then brings the worker to iteration 2.
	miss := kmeans.AppendFlatCentroids(nil, [][]float64{{9, 9, 9}, {1, 1, 1}, {4, 4, 4}}, []float64{243, 3, 48}, []bool{true, false, false})
	if c, err := apply(2, 0, miss); c != nil || !errors.Is(err, errMiss) {
		t.Fatalf("a delta on a base the worker lacks: %v, %v; want a miss", c, err)
	}
	check("after a miss")
	want = [][]float64{{9, 9, 9}, {1, 1, 1}, {4, 4, 4}}
	full := kmeans.AppendFlatCentroids(nil, want, []float64{243, 3, 48}, nil)
	if c, err := apply(2, noCentroidBase, full); c == nil || err != nil || !reflect.DeepEqual(layoutRows(c.layout, 3, 3), want) {
		t.Fatalf("the full resend after a miss: %v, %v; want %v", c, err, want)
	}
}

// TestCentroidMissResendsFullBlock: over a real worker connection, a task
// whose centroid delta names a base the worker lacks misses (statusMiss),
// and the forced resend of the same keyed body — its full form — yields the
// assignments and distance bits the local kernel computes.
func TestCentroidMissResendsFullBlock(t *testing.T) {
	const loop = "miss-resend"
	docs := []sparse.Vector{
		{Idx: []uint32{0, 2}, Val: []float64{1, 2}},
		{Idx: []uint32{1}, Val: []float64{3}},
		{Idx: []uint32{0, 1, 2}, Val: []float64{0.5, 0.25, 1.5}},
	}
	norms := []float64{5, 9, 2.5625}
	cents := [][]float64{{1, 0, 2}, {0, 3, 0.5}}
	cnorms := []float64{5, 9.25}
	args := &KMAssignTaskArgs{Loop: loop, Iter: 4, Assign: []int32{1, 0, 1},
		Init: &KMShardInit{Vectors: docs, Norms: norms, Dim: 3, K: 2, Block: 4}}
	kb := &keyedBody{op: "kmeans.centroids",
		encode: func() []byte {
			return kmeans.AppendFlatCentroids(storeFrame(loop, 4, 3), cents, cnorms, []bool{false, true})
		},
		full: func() []byte {
			return kmeans.AppendFlatCentroids(storeFrame(loop, 4, noCentroidBase), cents, cnorms, nil)
		},
	}
	c := pipeWorker(t, newWorkerStore())
	if _, _, err := c.roundTrip("kmeans.assign", args.AppendFlat(nil), kb, 0, false); !errors.Is(err, errMiss) {
		t.Fatalf("a delta on iteration 3 reached a fresh worker: error %v, want errMiss", err)
	}
	args.Init = nil // the session survives the miss
	reply, _, err := c.roundTrip("kmeans.assign", args.AppendFlat(nil), kb, 0, true)
	if err != nil {
		t.Fatalf("the forced resend: %v", err)
	}
	rep, err := DecodeFlatKMAssignReply(reply.body)
	if err != nil {
		t.Fatal(err)
	}
	assign, dists := []int32{1, 0, 1}, make([]float64, len(docs))
	moved := kmeans.AssignRange(0, len(docs), 2, docs, norms, cents, cnorms, nil, assign, dists, nil)
	if !slices.Equal(rep.Assign, assign) || rep.Accum.Changed != moved {
		t.Fatalf("resent assignments %v (%d moved), local %v (%d moved)", rep.Assign, rep.Accum.Changed, assign, moved)
	}
	for i := range dists {
		if math.Float64bits(rep.Dists[i]) != math.Float64bits(dists[i]) {
			t.Fatalf("document %d: resent distance %v, local %v", i, rep.Dists[i], dists[i])
		}
	}
}

// TestSeedKernelKeepsItsScratch: the seed kernel scatters each shipped seed
// into one dense scratch the session keeps and zeroes it again by the
// seed's own indices, so (a) no call after the first allocates anything
// the size of the loop's dimension and (b) a round's distances never see
// the previous round's seed.
func TestSeedKernelKeepsItsScratch(t *testing.T) {
	const dim = 1 << 16
	docs := []sparse.Vector{
		{Idx: []uint32{0, dim - 1}, Val: []float64{1, 2}},
		{Idx: []uint32{0, 5}, Val: []float64{2, 3}},
	}
	norms := []float64{5, 13}
	request := func(last int, init bool) []byte {
		a := &KMSeedTaskArgs{Loop: "seed-scratch", Last: docs[last], D2: []float64{math.Inf(1), math.Inf(1)}}
		if init {
			a.Init = &KMShardInit{Vectors: docs, Norms: norms, Dim: dim, K: 1}
		}
		return a.AppendFlat(nil)
	}
	st := newWorkerStore()
	var dst []byte
	scan := func(body []byte) []float64 {
		t.Helper()
		var err error
		if dst, err = runKMSeedKernel(st, &kernelCall{args: body}, dst[:0]); err != nil {
			t.Fatal(err)
		}
		d2, err := DecodeFlatKMSeedReply(dst)
		if err != nil {
			t.Fatal(err)
		}
		return d2
	}
	// ‖a − b‖² = 5 − 2·2 + 13 either way round; a stale scatter of the other
	// seed would add its own dot to the middle term.
	for i, last := range []int{0, 1, 0} {
		want := []float64{0, 14}
		if last == 1 {
			want = []float64{14, 0}
		}
		if d2 := scan(request(last, i == 0)); !reflect.DeepEqual(d2, want) {
			t.Fatalf("call %d, seed = document %d: d2 = %v, want %v", i, last, d2, want)
		}
	}
	body := request(1, false)
	const calls = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		scan(body)
	}
	runtime.ReadMemStats(&after)
	// One scratch is 8·dim bytes; decoding a request is a few hundred.
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall > dim {
		t.Fatalf("kmeans.seed allocates %d bytes per call at dim %d: the scratch is not per session", perCall, dim)
	}
}
