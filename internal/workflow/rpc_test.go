package workflow

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hpa/internal/flatwire"
	"hpa/internal/kmeans"
	"hpa/internal/par"
	"hpa/internal/pario"
	"hpa/internal/sparse"
	"hpa/internal/tfidf"
)

func init() {
	registerKernel("test.echo", kernel{fn: func(_ *workerStore, rq *kernelCall, dst []byte) ([]byte, error) {
		return append(dst, rq.args...), nil
	}})
	registerKernel("test.sleep", kernel{fn: func(_ *workerStore, rq *kernelCall, dst []byte) ([]byte, error) {
		time.Sleep(20 * time.Millisecond)
		return append(dst, rq.args...), nil
	}})
	registerKernel("test.panic", kernel{fn: func(*workerStore, *kernelCall, []byte) ([]byte, error) { panic("kernel bug") }})
	registerKernel("test.miss", kernel{fn: func(*workerStore, *kernelCall, []byte) ([]byte, error) {
		missCalls.Add(1)
		return nil, errMiss
	}})
}

// requestFrame builds one request frame by hand.
func requestFrame(id uint64, op string, body []byte) []byte {
	b := flatwire.AppendU32(nil, uint32(8+flatwire.SizeString(op)+len(body)))
	b = flatwire.AppendU64(b, id)
	b = flatwire.AppendString(b, op)
	return append(b, body...)
}

// TestWorkerSurvivesHostileFrames: a worker serves whatever arrives on its
// socket. Every hostile input must end in an error reply — wrapping
// flatwire.ErrMalformed where the input was at fault — or, when no reply
// could be addressed, in that one connection closed; never in a dead
// worker: after each case a healthy request on a fresh connection to the
// same worker succeeds.
func TestWorkerSurvivesHostileFrames(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	st := newWorkerStore()
	served := make(chan error, 1)
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				served <- err
				return
			}
			go serveConn(conn, st)
		}
	}()
	defer func() {
		lis.Close()
		<-served
	}()

	garbage := bytes.Repeat([]byte{0xfe}, 40)
	// A well-formed seed request whose seed names component 2³²−1 of a
	// 3-dimensional loop: the worker scatters seeds into a dense scratch.
	hostileSeed := (&KMSeedTaskArgs{
		Loop: "hostile-frames",
		Init: &KMShardInit{Vectors: []sparse.Vector{{Idx: []uint32{1}, Val: []float64{3}}}, Norms: []float64{9}, Dim: 3, K: 2},
		Last: sparse.Vector{Idx: []uint32{math.MaxUint32}, Val: []float64{1}},
		D2:   []float64{math.Inf(1)},
	}).AppendFlat(nil)
	// Transform requests over a two-word vocabulary, recounted from a
	// descriptor or cached on the worker, whose shard terms the scoring loop
	// would misread.
	recount := &CountTaskArgs{Shard: shardFiles(t, 0, "alpha beta beta")}
	const cached = "hostile-frames-counts"
	counts, err := countShard(recount)
	if err != nil {
		t.Fatal(err)
	}
	st.put(0, cached, "", func() any { return counts })
	transform := func(session string, remap []uint32, idf []float64) []byte {
		a := &TransformTaskArgs{CountsSession: session, Terms: &tfidf.ShardTerms{Remap: remap, IDF: idf, Dim: 3}}
		if session == "" {
			a.Recount = recount
		}
		return a.AppendFlat(nil)
	}
	// Count descriptors whose range is not one document per path.
	count := func(lo, hi int) []byte {
		return (&CountTaskArgs{Shard: pario.SourceSpec{Paths: recount.Shard.Paths, Lo: lo, Hi: hi}}).AppendFlat(nil)
	}
	// A 60-byte assign request whose init asks for 2⁸⁰ accumulator floats.
	hostileInit := (&KMAssignTaskArgs{
		Loop:   "hostile-frames-init",
		Init:   &KMShardInit{Vectors: []sparse.Vector{{}}, Norms: []float64{0}, Dim: 1 << 40, K: 1 << 40},
		Assign: []int32{-1},
	}).AppendFlat(nil)
	drop := appendStoreDrop(nil, []string{"km-1-2-0", "tf-3-4-1"})
	cases := []struct {
		name string
		raw  []byte
		// closed: the worker must close the connection without a reply.
		// Otherwise it must reply with an error; malformed says whether
		// that error wraps flatwire.ErrMalformed.
		closed, malformed bool
		text              string
	}{
		{name: "frame over the cap", raw: flatwire.AppendU32(nil, maxFrameBytes+1), closed: true},
		{name: "length with nothing behind it", raw: flatwire.AppendU32(nil, maxFrameBytes), closed: true},
		{name: "truncated frame", raw: requestFrame(1, "test.echo", garbage)[:30], closed: true},
		{name: "header without an op", raw: append(flatwire.AppendU32(nil, 5), 1, 2, 3, 4, 5), closed: true},
		{name: "op longer than the frame", raw: append(flatwire.AppendU32(nil, 12), append(make([]byte, 8), 0xff, 0xff, 0, 0)...), closed: true},
		{name: "unknown op", raw: requestFrame(2, "no.such.kernel", nil), malformed: true, text: "no kernel"},
		{name: "count args", raw: requestFrame(3, "tfidf.count", garbage), malformed: true},
		{name: "transform args", raw: requestFrame(4, "tfidf.transform", garbage), malformed: true},
		{name: "remap shorter than the recounted vocabulary", raw: requestFrame(5, "tfidf.transform", transform("", []uint32{0}, []float64{1})),
			malformed: true, text: "a remap of 1 terms for a vocabulary of 2"},
		{name: "remap longer than the cached vocabulary", raw: requestFrame(13, "tfidf.transform", transform(cached, []uint32{0, 1, 2}, []float64{1, 2, 3})),
			malformed: true, text: "a remap of 3 terms for a vocabulary of 2"},
		{name: "IDF shorter than the remap", raw: requestFrame(14, "tfidf.transform", transform("", []uint32{0, 1}, []float64{1})),
			malformed: true, text: "1 IDF values for a remap of 2"},
		{name: "remap not strictly ascending", raw: requestFrame(15, "tfidf.transform", transform("", []uint32{1, 1}, []float64{1, 2})),
			malformed: true, text: "remap not strictly ascending at local 1"},
		{name: "remap past the dimension", raw: requestFrame(16, "tfidf.transform", transform("", []uint32{0, 5}, []float64{1, 2})),
			malformed: true, text: "global ID 5 out of dimension 3"},
		{name: "count range backwards", raw: requestFrame(20, "tfidf.count", count(1, 0)), malformed: true, text: "shard [1, 0) of 1 paths"},
		{name: "count range past its paths", raw: requestFrame(21, "tfidf.count", count(0, 2)), malformed: true, text: "shard [0, 2) of 1 paths"},
		{name: "recount range past its paths", raw: requestFrame(22, "tfidf.transform",
			(&TransformTaskArgs{Recount: &CountTaskArgs{Shard: pario.SourceSpec{Paths: recount.Shard.Paths, Lo: 3, Hi: 5}},
				Terms: &tfidf.ShardTerms{Remap: []uint32{0, 1}, IDF: []float64{1, 2}, Dim: 3}}).AppendFlat(nil)),
			malformed: true, text: "shard [3, 5) of 1 paths"},
		{name: "assign args", raw: requestFrame(6, "kmeans.assign", garbage), malformed: true},
		{name: "seed args", raw: requestFrame(7, "kmeans.seed", garbage), malformed: true},
		{name: "centroid store", raw: requestFrame(8, "kmeans.centroids", garbage[:3]), malformed: true},
		{name: "empty body", raw: requestFrame(9, "kmeans.assign", nil), malformed: true},
		{name: "kernel panic", raw: requestFrame(10, "test.panic", nil), text: "panicked"},
		{name: "seed past the loop's dimension", raw: requestFrame(11, "kmeans.seed", hostileSeed), malformed: true, text: "seed dimension 4294967296 of 3"},
		{name: "session past the frame cap", raw: requestFrame(12, "kmeans.assign", hostileInit), malformed: true, text: "more centroid floats than"},
		{name: "store.drop truncated", raw: requestFrame(17, "store.drop", drop[:len(drop)-1]), malformed: true, text: "kernel store.drop"},
		{name: "store.drop key list past the body", raw: requestFrame(18, "store.drop", append(flatwire.AppendU32(nil, 3), drop[4:]...)),
			malformed: true, text: "kernel store.drop"},
		{name: "store.drop trailing bytes", raw: requestFrame(19, "store.drop", append(drop, 0)), malformed: true, text: "trailing"},
	}
	for _, tc := range cases {
		conn, err := net.Dial("tcp", lis.Addr().String())
		if err != nil {
			t.Fatalf("%s: dial: %v", tc.name, err)
		}
		if tc.closed {
			if _, err := conn.Write(tc.raw); err != nil {
				t.Fatalf("%s: write: %v", tc.name, err)
			}
			// A frame the worker is still waiting on ends when we hang up
			// our writing half; the worker must then close, not reply.
			conn.(*net.TCPConn).CloseWrite()
			if rest, err := io.ReadAll(conn); err != nil || len(rest) != 0 {
				t.Errorf("%s: worker sent %d bytes (%v), want the connection closed silently", tc.name, len(rest), err)
			}
			conn.Close()
		} else {
			c := newWireClient(conn)
			ch := make(chan wireReply, 1)
			c.mu.Lock()
			c.pending[uint64(tc.raw[4])] = ch // ids above fit one byte
			c.mu.Unlock()
			if _, err := conn.Write(tc.raw); err != nil {
				t.Fatalf("%s: write: %v", tc.name, err)
			}
			rep := <-ch
			switch {
			case rep.err == nil:
				t.Errorf("%s: worker replied without an error", tc.name)
			case errors.Is(rep.err, flatwire.ErrMalformed) != tc.malformed:
				t.Errorf("%s: error %v, wraps ErrMalformed = %v, want %v", tc.name, rep.err, !tc.malformed, tc.malformed)
			case !strings.Contains(rep.err.Error(), tc.text):
				t.Errorf("%s: error %v lacks %q", tc.name, rep.err, tc.text)
			}
			c.close()
		}

		healthy, err := net.Dial("tcp", lis.Addr().String())
		if err != nil {
			t.Fatalf("%s: dial after: %v", tc.name, err)
		}
		c := newWireClient(healthy)
		if body, err := c.call("test.echo", []byte("still here")); err != nil || string(body) != "still here" {
			t.Fatalf("%s: healthy request afterwards: %q, %v", tc.name, body, err)
		}
		c.close()
	}
}

// TestClientRejectsHostileReplies: the coordinator's read loop must turn an
// unknown status into an error wrapping flatwire.ErrMalformed for the call
// it answers, and a reply stream it cannot parse into a failed connection
// for every call waiting on it — never a hang.
func TestClientRejectsHostileReplies(t *testing.T) {
	reply := func(id uint64, status byte, body string) []byte {
		b := flatwire.AppendU32(nil, uint32(8+1+8+len(body)))
		b = flatwire.AppendU64(b, id)
		b = flatwire.AppendU8(b, status)
		b = flatwire.AppendU64(b, 1234)
		return append(b, body...)
	}
	for name, tc := range map[string]struct {
		raw       []byte
		malformed bool
	}{
		"unknown status":   {reply(1, 9, "?"), true},
		"miss":             {reply(1, statusMiss, ""), false},
		"miss with a body": {reply(1, statusMiss, "counts"), true},
		"malformed":        {reply(1, statusMalformed, "bad body"), true},
		"kernel error":     {reply(1, statusError, "disk full"), false},
		"short reply":      {append(flatwire.AppendU32(nil, 3), 1, 2, 3), true},
		"frame over cap":   {flatwire.AppendU32(nil, maxFrameBytes+1), true},
		"closed mid-call":  {nil, false},
	} {
		coord, work := net.Pipe()
		go func() {
			readFrame(work, nil) // the request
			work.Write(tc.raw)
			work.Close()
		}()
		c := newWireClient(coord)
		_, err := c.call("test.echo", []byte("x"))
		if err == nil || errors.Is(err, flatwire.ErrMalformed) != tc.malformed {
			t.Errorf("%s: error %v, want one wrapping ErrMalformed = %v", name, err, tc.malformed)
		}
		c.close()
	}
}

// lyingWorker is a one-worker backend whose worker answers every request
// with status OK and the given body, whatever was asked.
func lyingWorker(t *testing.T, body []byte) *RPCBackend {
	coord, work := net.Pipe()
	go func() {
		defer work.Close()
		for {
			req, err := readFrame(work, nil)
			if err != nil {
				return
			}
			b := flatwire.AppendU32(nil, uint32(8+1+8+len(body)))
			b = append(b, req[:8]...) // the request's id
			b = flatwire.AppendU8(b, statusOK)
			b = flatwire.AppendU64(b, 0)
			if _, err := work.Write(append(b, body...)); err != nil {
				return
			}
		}
	}()
	b := NewRPCBackendConns(coord)
	t.Cleanup(func() { b.Close() })
	return b
}

// TestCoordinatorRejectsLyingReplies: a worker's reply is input from
// outside the process. A TF/IDF reply for other documents than its task's
// shard — past the corpus, or another shard's window — or whose counts
// disagree with its range fails the task with an error wrapping
// flatwire.ErrMalformed: never a panic in the gather, never a silently
// inflated document count or overwritten window.
func TestCoordinatorRejectsLyingReplies(t *testing.T) {
	paths := []string{"d0", "d1", "d2", "d3", "d4", "d5"}
	shard := pario.Partition(&pario.FileSource{Paths: paths}, 3, 2) // documents [4, 6)
	pair := newTFShipPair()
	pool := par.NewPool(1)
	defer pool.Close()
	countTask := func() *RemoteTask {
		rt, ok := (&TFMapOp{pair: pair}).RemoteTask([]Value{shard}, 2, 3)
		if !ok {
			t.Fatal("the count task does not ship")
		}
		return rt
	}
	transformTask := func() *RemoteTask {
		sc := &tfidf.ShardCounts{Lo: 4, Hi: 6, Words: []string{"w"}, DF: []uint32{1}, DocNames: paths[4:]}
		pair.recordCount(sc, &CountTaskArgs{Shard: pario.SourceSpec{Paths: paths[4:], Lo: 4, Hi: 6}, Session: pair.countSession(2)})
		g := tfidf.MergeShards([]*tfidf.ShardCounts{sc}, pool, tfidf.Options{})
		rt, ok := (&TransformOp{pair: pair}).RemoteTask([]Value{sc, g}, 2, 3)
		if !ok {
			t.Fatal("the transform task does not ship")
		}
		return rt
	}
	counts := func(lo, hi int, names ...string) []byte {
		return (&tfidf.ShardCounts{Lo: lo, Hi: hi, Words: []string{"w"}, DF: []uint32{1}, DocNames: names}).EncodeFlat(nil)
	}
	vectors := func(lo, hi, n int) []byte {
		vs := &tfidf.VectorShard{Lo: lo, Hi: hi, Dim: 1, Vectors: make([]sparse.Vector, n), Norms: make([]float64, n), DocNames: make([]string, n)}
		return vs.EncodeFlat(nil)
	}
	for _, tc := range []struct {
		name string
		task func() *RemoteTask
		body []byte
		text string
	}{
		{"count reply for other documents", countTask, counts(0, 2, "d0", "d1"), "documents [0, 2) for shard [4, 6)"},
		{"count reply with an extra name", countTask, counts(4, 6, "d4", "d5", "d6"), "3 names for documents [4, 6)"},
		{"transform reply past the corpus", transformTask, vectors(4, 9, 5), "documents [4, 9) for shard [4, 6)"},
		{"transform reply for another shard's window", transformTask, vectors(0, 2, 2), "documents [0, 2) for shard [4, 6)"},
		{"transform reply with an extra vector", transformTask, vectors(4, 6, 3), "3 documents for [4, 6)"},
	} {
		_, err := lyingWorker(t, tc.body).RunTask(nil, &Task{Remote: tc.task()})
		if !errors.Is(err, flatwire.ErrMalformed) || !strings.Contains(err.Error(), tc.text) {
			t.Errorf("%s: error %v, want one wrapping ErrMalformed with %q", tc.name, err, tc.text)
		}
	}
	// Sanity: the honest replies are absorbed.
	if v, err := lyingWorker(t, counts(4, 6, "d4", "d5")).RunTask(nil, &Task{Remote: countTask()}); err != nil || v.(*tfidf.ShardCounts).Hi != 6 {
		t.Errorf("honest count reply: %v, %v", v, err)
	}
	if _, err := lyingWorker(t, vectors(4, 6, 2)).RunTask(nil, &Task{Remote: transformTask()}); err != nil {
		t.Errorf("honest transform reply: %v", err)
	}
}

// TestReadFrameAllocatesWhatArrives: a length prefix with nothing behind
// it must cost a chunk, not the length it names.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	hostile := append(flatwire.AppendU32(nil, maxFrameBytes), 1, 2, 3)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := readFrame(bytes.NewReader(hostile), nil); err == nil {
		t.Fatal("truncated frame read without error")
	}
	runtime.ReadMemStats(&m1)
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 4*frameChunk {
		t.Errorf("a 7-byte input made readFrame allocate %d bytes", grew)
	}
	big := make([]byte, 3*frameChunk+17)
	for i := range big {
		big[i] = byte(i)
	}
	got, err := readFrame(bytes.NewReader(append(flatwire.AppendU32(nil, uint32(len(big))), big...)), nil)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("multi-chunk frame: %d bytes, %v", len(got), err)
	}
}

// TestShipEWMAExcludesWorkerRun: the ship EWMA prices shipping, not the
// kernel — a kernel that sleeps 20 ms must leave it within a few ms of the
// echo kernel's.
func TestShipEWMAExcludesWorkerRun(t *testing.T) {
	measure := func(op string) float64 {
		b := pipeBackend(t, 1)
		payload := bytes.Repeat([]byte{7}, 4096)
		task := &Task{Remote: &RemoteTask{
			Op:     op,
			Args:   func(dst []byte) []byte { return append(dst, payload...) },
			Absorb: func([]byte) (Value, error) { return nil, nil },
		}}
		for i := 0; i < 5; i++ {
			if _, err := b.RunTask(nil, task); err != nil {
				t.Fatalf("%s: %v", op, err)
			}
		}
		ns, n := b.MeasuredShipNS()
		if n != 5 {
			t.Fatalf("%s: %d ship samples, want 5", op, n)
		}
		return ns
	}
	echo, sleep := measure("test.echo"), measure("test.sleep")
	if diff := math.Abs(sleep - echo); diff > 10e6 {
		t.Errorf("ship EWMA %.2f ms behind a 20 ms kernel vs %.2f ms behind echo: the kernel's run time leaked in",
			sleep/1e6, echo/1e6)
	}
}

// blockLoser is an RPCBackend that, for one wave of the K-Means loop,
// behaves as if every worker had been sent the wave's centroid block when
// none was: the workers miss, and the run must recover through the resend.
type blockLoser struct {
	*RPCBackend
	mu   sync.Mutex
	seen map[*keyedBody]bool
	lose int // which distinct block (0-based) to lose; -1 for none
}

func (b *blockLoser) RunTask(ctx *Context, t *Task) (Value, error) {
	if rt := t.Remote; rt != nil && rt.Op == "kmeans.assign" {
		b.mu.Lock()
		if !b.seen[rt.keyed] {
			if len(b.seen) == b.lose {
				for w := range b.clients {
					rt.keyed.claim(w, false)
				}
			}
			b.seen[rt.keyed] = true
		}
		b.mu.Unlock()
	}
	return b.RPCBackend.RunTask(ctx, t)
}

// frameCounter wraps a coordinator-side connection and counts the request
// frames written through it, by op.
type frameCounter struct {
	io.ReadWriteCloser
	mu      sync.Mutex
	pending []byte // written bytes not yet a whole frame
	ops     map[string]int
}

func (c *frameCounter) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.pending = append(c.pending, p...)
	for len(c.pending) >= 4 {
		n := 4 + int(binary.LittleEndian.Uint32(c.pending))
		if len(c.pending) < n {
			break
		}
		r := flatwire.NewReader(c.pending[4:n])
		r.U64()
		c.ops[r.String()]++
		c.pending = c.pending[n:]
	}
	c.mu.Unlock()
	return c.ReadWriteCloser.Write(p)
}

// storeFrames counts the kmeans.centroids frames the counters saw.
func storeFrames(counters []*frameCounter) int {
	n := 0
	for _, c := range counters {
		c.mu.Lock()
		n += c.ops["kmeans.centroids"]
		c.mu.Unlock()
	}
	return n
}

// countedPipeBackend is a two-worker pipe backend whose connections count
// their request frames.
func countedPipeBackend(t *testing.T) (*RPCBackend, []*frameCounter) {
	var counters []*frameCounter
	b, _ := pipeWorkers(t, 2, func(conn io.ReadWriteCloser) io.ReadWriteCloser {
		c := &frameCounter{ReadWriteCloser: conn, ops: map[string]int{}}
		counters = append(counters, c)
		return c
	})
	return b, counters
}

// TestCentroidBlockShipsOncePerWorker: 4 loop shards on 2 workers over N
// iterations must put exactly 2 × N centroid blocks on the wire — one per
// worker per iteration, whatever the shard count — and a run whose workers
// lose a wave's block recovers through the miss and resend with the same
// bits.
func TestCentroidBlockShipsOncePerWorker(t *testing.T) {
	m := overlapMatrix()
	run := func(backend Backend) *kmeans.Result {
		res, err := runKMPlan(testCtx(t, 4), m, backend)
		if err != nil {
			t.Fatalf("K-Means plan on %s: %v", backend.Name(), err)
		}
		return res
	}
	same := func(what string, got, want *kmeans.Result) {
		t.Helper()
		if !reflect.DeepEqual(got.Assign, want.Assign) || !reflect.DeepEqual(got.Centroids, want.Centroids) ||
			!reflect.DeepEqual(got.History, want.History) || got.Iterations != want.Iterations {
			t.Errorf("%s: clustering differs from the local run", what)
		}
	}
	local := run(LocalBackend{})
	if local.Iterations < 3 {
		t.Fatalf("corpus converged in %d iterations; the test needs a few", local.Iterations)
	}

	b, counters := countedPipeBackend(t)
	same("rpc", run(b), local)
	if got, want := storeFrames(counters), 2*local.Iterations; got != want {
		t.Errorf("%d centroid blocks shipped over %d iterations on 2 workers, want %d", got, local.Iterations, want)
	}

	// Lose the third wave's block: every other wave ships its 2, and in the
	// lost one a task that misses is re-sent behind a block of its own —
	// at least one of the four does (the pipe workers share one store, as
	// workers of one process do, so the first resend's block can serve all
	// of them), at most all four.
	b, counters = countedPipeBackend(t)
	loser := &blockLoser{RPCBackend: b, seen: make(map[*keyedBody]bool), lose: 2}
	same("rpc after a lost block", run(loser), local)
	got, rest := storeFrames(counters), 2*(local.Iterations-1)
	if got < rest+1 || got > rest+4 {
		t.Errorf("%d centroid blocks shipped around a lost wave, want %d to %d", got, rest+1, rest+4)
	}
}
