package workflow

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"

	"hpa/internal/dict"
	"hpa/internal/flatwire"
	"hpa/internal/kmeans"
	"hpa/internal/par"
	"hpa/internal/pario"
	"hpa/internal/sparse"
	"hpa/internal/tfidf"
)

// This file holds the built-in worker kernels — the serializable forms of
// the shard tasks that can leave the coordinator process — and the
// Remotable implementations of the operators that produce them:
//
//   - tfidf.count: a corpus shard described by pario.SourceSpec in, the
//     shard's vocabulary, DF and document names back (a tfidf.ShardCounts
//     without documents); the per-document counts stay in the worker store;
//   - tfidf.transform: the store key of a shard's counts — or, in the
//     resend after a miss, the count's descriptor to recount them from —
//     plus the shard's slice of the term table (tfidf.ShardTerms: the
//     local → global remap, the IDF of every local term, the dimension)
//     in, the shard's score vectors (*tfidf.VectorShard) back;
//   - kmeans.assign: one loop shard's assignment iteration — the key of the
//     iteration's centroid block and the shard's previous assignments in,
//     the moved count, new assignments and distances back. The shard's
//     documents ship once, on the first contact, into a session in the
//     worker store that backend affinity keeps on one worker;
//   - kmeans.seed: one K-Means++ seed round's min-distance scan over one
//     loop shard — the last chosen seed and the shard's current distance
//     window in, the min-updated window back. It shares the assignment
//     loop's sessions (same affinity key), so the shard's documents ship
//     once for seeding and iterations combined;
//   - kmeans.centroids: the inline store kernel of the keyed body
//     (backend.go, keyedBody) — an iteration's centroid block;
//   - store.drop: the inline kernel that removes keys from the worker
//     store (workerStore), where kernels keep state between tasks.
//
// Kernels run the same functions the local path runs (tfidf.CountShard,
// tfidf.TransformTerms, kmeans.AssignRange), so remote results are
// bit-identical to local ones by construction; the wire forms only ever
// flatten vocabularies, vectors and per-document results, never recompute
// scores.
//
// Every argument and every reply is a flat buffer (flatwire): scalars
// little-endian, floats as IEEE 754 bit patterns, so shipping preserves
// the bit-identity contract, and every decoder validates what the kernel
// indexes by and fails with an error wrapping flatwire.ErrMalformed.

func init() {
	registerKernel("tfidf.count", kernel{fn: runCountKernel})
	registerKernel("tfidf.transform", kernel{fn: runTransformKernel})
	registerKernel("kmeans.assign", kernel{fn: runKMAssignKernel})
	registerKernel("kmeans.seed", kernel{fn: runKMSeedKernel})
	registerKernel("kmeans.centroids", kernel{fn: storeCentroidsKernel, inline: true})
	registerKernel("store.drop", kernel{fn: storeDropKernel, inline: true})
}

// workerPool is the worker process's compute pool, shared by every kernel
// invocation (kernels may serve several shards concurrently).
var workerPool = sync.OnceValue(func() *par.Pool { return par.NewPool(runtime.GOMAXPROCS(0)) })

// appendWireOptions appends the TF/IDF option subset.
func appendWireOptions(b []byte, o tfidf.WireOptions) []byte {
	b = flatwire.AppendI64s(b, []int64{int64(o.DictKind), int64(o.GlobalPresize), int64(o.DocPresize), int64(o.MinWordLen)})
	var flags byte
	if o.Stem {
		flags |= 1
	}
	if o.Normalize {
		flags |= 2
	}
	return flatwire.AppendU8(b, flags)
}

// consumeWireOptions is appendWireOptions' inverse. An unknown dictionary
// kind fails the reader: dict.New panics on one.
func consumeWireOptions(r *flatwire.Reader) tfidf.WireOptions {
	v := r.I64s(4)
	flags := r.U8()
	if r.Err() != nil {
		return tfidf.WireOptions{}
	}
	if !slices.Contains(dict.Kinds(), dict.Kind(v[0])) || flags > 3 {
		r.Fail("tfidf options: dictionary kind %d, flags %#x", v[0], flags)
	}
	return tfidf.WireOptions{
		DictKind: dict.Kind(v[0]), GlobalPresize: int(v[1]), DocPresize: int(v[2]), MinWordLen: int(v[3]),
		Stem: flags&1 != 0, Normalize: flags&2 != 0,
	}
}

// CountTaskArgs are the tfidf.count kernel arguments, and the descriptor a
// transform's resend after a miss recounts its shard from.
type CountTaskArgs struct {
	// Shard describes the corpus shard (paths + global [Lo, Hi) range).
	Shard pario.SourceSpec
	// Session is the store key under which the worker keeps the live
	// ShardCounts after replying, for the matching transform task (routed
	// here by the shared affinity key): the documents' counts never leave
	// the worker.
	Session string
	// Opts is the serializable option subset of the TF/IDF operator.
	Opts tfidf.WireOptions
}

// AppendFlat appends the arguments in flat form:
//
//	lo u64 | hi u64 | nPaths u32 | paths (u32 len + bytes) × nPaths | session | opts
func (a *CountTaskArgs) AppendFlat(b []byte) []byte {
	b = flatwire.AppendU64(b, uint64(a.Shard.Lo))
	b = flatwire.AppendU64(b, uint64(a.Shard.Hi))
	b = flatwire.AppendU32(b, uint32(len(a.Shard.Paths)))
	for _, p := range a.Shard.Paths {
		b = flatwire.AppendString(b, p)
	}
	b = flatwire.AppendString(b, a.Session)
	return appendWireOptions(b, a.Opts)
}

// DecodeFlatCountTaskArgs is AppendFlat's inverse. It rejects a range that
// is not one document per path.
func DecodeFlatCountTaskArgs(body []byte) (*CountTaskArgs, error) {
	r := flatwire.NewReader(body)
	a := &CountTaskArgs{}
	a.Shard.Lo, a.Shard.Hi = int(r.U64()), int(r.U64())
	if n := r.Count(4); n > 0 {
		a.Shard.Paths = make([]string, n)
		for i := range a.Shard.Paths {
			a.Shard.Paths[i] = r.String()
		}
	}
	if s := a.Shard; s.Lo < 0 || s.Hi < s.Lo || s.Hi-s.Lo != len(s.Paths) {
		r.Fail("shard [%d, %d) of %d paths", s.Lo, s.Hi, len(s.Paths))
	}
	a.Session = r.String()
	a.Opts = consumeWireOptions(r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("decode args: %w", err)
	}
	return a, nil
}

// countShard runs phase 1 over the described shard on the worker's pool —
// the count kernel's work, and a transform's after a miss.
func countShard(a *CountTaskArgs) (*tfidf.ShardCounts, error) {
	sc, err := tfidf.CountShard(a.Shard.Open(nil), workerPool().Workers(), a.Opts.Options())
	if err != nil {
		return nil, err
	}
	// CountShard derives [Lo, Hi) from SubSources; a spec-opened shard is a
	// plain FileSource, so restore the global range from the descriptor.
	sc.Lo, sc.Hi = a.Shard.Lo, a.Shard.Hi
	return sc, nil
}

// runCountKernel executes phase 1 over the described shard on the worker
// and keeps the live counts in the store under the task's session; the
// reply is what the coordinator's DF merge reads, in flat form.
func runCountKernel(st *workerStore, rq *kernelCall, dst []byte) ([]byte, error) {
	a, err := DecodeFlatCountTaskArgs(rq.args)
	if err != nil {
		return nil, fmt.Errorf("workflow: kernel tfidf.count: %w", err)
	}
	sc, err := countShard(a)
	if err != nil {
		return nil, fmt.Errorf("workflow: kernel tfidf.count: %w", err)
	}
	dst = sc.EncodeFlat(dst)
	st.put(rq.conn, a.Session, "", func() any { return sc })
	return dst, nil
}

// TransformTaskArgs are the tfidf.transform kernel arguments. The counts
// are never among them: they stay on the worker that counted the shard,
// or are recounted there. Neither is the global term table: the
// coordinator resolves the shard's vocabulary against it
// (tfidf.Global.Resolve) and ships what the scoring loop reads, indexed by
// shard-local term.
type TransformTaskArgs struct {
	// CountsSession is the store key of the count kernel's ShardCounts on
	// the worker the shared affinity routed both tasks to.
	CountsSession string
	// Recount, set only in the resend after a miss, is the shard's count
	// task: the worker recounts the shard from it instead of reading
	// CountsSession.
	Recount *CountTaskArgs
	// Terms is the shard's slice of the term table. Always set.
	Terms *tfidf.ShardTerms
	// Opts is the serializable option subset.
	Opts tfidf.WireOptions
}

// AppendFlat appends the arguments in flat form:
//
//	session | opts | terms | [recount (CountTaskArgs flat, to the end)]
//	terms = dim u64 | n u32 | remap (delta-coded varints) × n | nIDF u32 | idf f64 × nIDF
func (a *TransformTaskArgs) AppendFlat(b []byte) []byte {
	b = flatwire.AppendString(b, a.CountsSession)
	b = appendWireOptions(b, a.Opts)
	b = flatwire.AppendU64(b, uint64(a.Terms.Dim))
	b = flatwire.AppendU32(b, uint32(len(a.Terms.Remap)))
	b = flatwire.AppendDeltaU32s(b, a.Terms.Remap)
	b = flatwire.AppendU32(b, uint32(len(a.Terms.IDF)))
	b = flatwire.AppendF64s(b, a.Terms.IDF)
	if a.Recount == nil {
		return b
	}
	return a.Recount.AppendFlat(b)
}

// DecodeFlatTransformTaskArgs is AppendFlat's inverse. It rejects terms
// the scoring loop would misread: an IDF block of another length than the
// remap, a remap that does not strictly ascend, a global ID at or past the
// dimension. That the remap has one entry per shard word is the kernel's
// check, since the counts are in the worker store or recounted.
func DecodeFlatTransformTaskArgs(body []byte) (*TransformTaskArgs, error) {
	r := flatwire.NewReader(body)
	a := &TransformTaskArgs{CountsSession: r.String()}
	a.Opts = consumeWireOptions(r)
	t := &tfidf.ShardTerms{Dim: int(r.U64())}
	if n := r.Count(1); n > 0 { // ≥ 1 byte per varint
		t.Remap = make([]uint32, n)
		r.DeltaU32sInto(t.Remap)
	}
	t.IDF = r.F64s(r.Count(8))
	a.Terms = t
	if n := len(t.Remap); r.Err() == nil {
		switch {
		case len(t.IDF) != n:
			r.Fail("terms: %d IDF values for a remap of %d", len(t.IDF), n)
		case n > 0 && int64(t.Remap[n-1]) >= int64(t.Dim):
			r.Fail("terms: global ID %d out of dimension %d", t.Remap[n-1], t.Dim)
		}
		for i := 1; i < n; i++ {
			if t.Remap[i] <= t.Remap[i-1] {
				r.Fail("terms: remap not strictly ascending at local %d", i)
				break
			}
		}
	}
	recount := r.Rest()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decode args: %w", err)
	}
	if len(recount) > 0 {
		var err error
		if a.Recount, err = DecodeFlatCountTaskArgs(recount); err != nil {
			return nil, fmt.Errorf("decode args: recount: %w", err)
		}
	}
	return a, nil
}

// runTransformKernel executes phase 2 over one shard on the worker, or
// misses when the counts the arguments name by key are not in the store.
func runTransformKernel(st *workerStore, rq *kernelCall, dst []byte) ([]byte, error) {
	a, err := DecodeFlatTransformTaskArgs(rq.args)
	if err != nil {
		return nil, fmt.Errorf("workflow: kernel tfidf.transform: %w", err)
	}
	// The counts: the count kernel's live shard, removed only once the
	// transform ran — or, after a miss, the shard recounted.
	var sc *tfidf.ShardCounts
	if a.Recount != nil {
		if sc, err = countShard(a.Recount); err != nil {
			return nil, fmt.Errorf("workflow: kernel tfidf.transform: recount: %w", err)
		}
	} else if sc, _ = st.get(a.CountsSession).(*tfidf.ShardCounts); sc == nil {
		return nil, errMiss
	}
	if len(a.Terms.Remap) != len(sc.Words) {
		return nil, fmt.Errorf("workflow: kernel tfidf.transform: %w: a remap of %d terms for a vocabulary of %d",
			flatwire.ErrMalformed, len(a.Terms.Remap), len(sc.Words))
	}
	vs := tfidf.TransformTerms(a.Terms, sc, workerPool(), a.Opts.Options())
	if a.Recount == nil {
		st.del(a.CountsSession) // TransformTerms consumed the dictionaries
	}
	return vs.EncodeFlat(dst), nil
}

// workerStore is a worker process's state between tasks, by key: count
// sessions' *tfidf.ShardCounts, loop shards' *kmSession and their *kmLoop,
// all re-derivable from what the coordinator holds, so an absent key is a
// miss.
// An entry lives until the coordinator drops its key (store.drop) or the
// connection that put it closes; an entry others depend on (a loop) until
// the last of them goes. One store serves all of a process's connections,
// so a loop's shards on two connections share one centroid matrix.
type workerStore struct {
	mu sync.Mutex
	m  map[string]*storeEntry
}

type storeEntry struct {
	v      any
	conn   uint64 // the connection that put the entry
	parent string // the entry this one depends on, or ""
	deps   int    // entries depending on this one
}

func newWorkerStore() *workerStore { return &workerStore{m: make(map[string]*storeEntry)} }

var processStore = newWorkerStore() // the store of this process's worker connections

// get returns key's value, nil when absent.
func (s *workerStore) get(key string) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.m[key]; e != nil {
		return e.v
	}
	return nil
}

// put returns key's value, first storing mk's for connection conn when the
// key is absent — unless parent is named and absent: then it returns nil.
func (s *workerStore) put(conn uint64, key, parent string, mk func() any) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.m[key]; e != nil {
		return e.v
	}
	if parent != "" {
		if s.m[parent] == nil {
			return nil
		}
		s.m[parent].deps++
	}
	e := &storeEntry{v: mk(), conn: conn, parent: parent}
	s.m[key] = e
	return e.v
}

// del removes the keys' entries but those others depend on, then every
// parent left without dependents.
func (s *workerStore) del(keys ...string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range keys {
		s.delLocked(k)
	}
}

func (s *workerStore) delLocked(key string) {
	e := s.m[key]
	if e == nil || e.deps > 0 {
		return
	}
	delete(s.m, key)
	if p := s.m[e.parent]; e.parent != "" && p != nil {
		if p.deps--; p.deps == 0 {
			s.delLocked(e.parent)
		}
	}
}

// closeConn is del of every key connection conn put.
func (s *workerStore) closeConn(conn uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, e := range s.m {
		if e.conn == conn {
			s.delLocked(k)
		}
	}
}

// appendStoreDrop appends a store.drop body: n u32 | keys (u32 len + bytes) × n.
func appendStoreDrop(b []byte, keys []string) []byte {
	b = flatwire.AppendU32(b, uint32(len(keys)))
	for _, k := range keys {
		b = flatwire.AppendString(b, k)
	}
	return b
}

// decodeStoreDrop is appendStoreDrop's inverse.
func decodeStoreDrop(body []byte) ([]string, error) {
	r := flatwire.NewReader(body)
	keys := make([]string, r.Count(4)) // ≥ 4 length bytes per key
	for i := range keys {
		keys[i] = r.String()
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("workflow: kernel store.drop: %w", err)
	}
	return keys, nil
}

func storeDropKernel(st *workerStore, rq *kernelCall, dst []byte) ([]byte, error) {
	keys, err := decodeStoreDrop(rq.args)
	st.del(keys...)
	return dst, err
}

// KMShardInit carries a loop shard's per-loop constants, shipped on the
// shard's first contact with a worker and kept in its session there.
type KMShardInit struct {
	// Vectors and Norms are the shard's documents and their squared norms.
	Vectors []sparse.Vector
	Norms   []float64
	// Dim is the dense dimensionality, K the cluster count.
	Dim, K int
	// Block is the loop's resolved blocked-kernel lane width
	// (kmeans.BlockSize of its options; 0 = scalar, else 4 or 8). It never
	// affects results — any width is bit-identical — it only picks the
	// kernel the worker scans with.
	Block int
}

// appendFlat appends the init, or its absence, in flat form, growing b at
// most once:
//
//	present u8 | [k i64 | dim i64 | block i64 | n u32 | norms f64 × n | vectors (sparse.AppendFlatVectors)]
func (in *KMShardInit) appendFlat(b []byte) []byte {
	if in == nil {
		return flatwire.AppendU8(b, 0)
	}
	b = flatwire.Reserve(b, 1+3*8+4+8*len(in.Norms)+sparse.SizeFlatVectors(in.Vectors))
	b = flatwire.AppendU8(b, 1)
	b = flatwire.AppendI64s(b, []int64{int64(in.K), int64(in.Dim), int64(in.Block)})
	b = flatwire.AppendU32(b, uint32(len(in.Vectors)))
	b = flatwire.AppendF64s(b, in.Norms)
	return sparse.AppendFlatVectors(b, in.Vectors)
}

// consumeKMShardInit is appendFlat's inverse (nil for an absent init). It
// rejects what the session constructors or the kernels would panic on — a
// worker serves whatever arrives on its socket — so every shape they index
// by is checked here, once per session (the codec itself ties norm, index
// and value counts to the document count and makes indices ascend).
func consumeKMShardInit(r *flatwire.Reader) *KMShardInit {
	present := r.U8()
	if present > 1 {
		r.Fail("loop shard init marker %d", present)
	}
	if present != 1 || r.Err() != nil {
		return nil
	}
	v := r.I64s(3)
	n := r.Count(12) // ≥ 8 (norm) + 4 (nnz) bytes per document follow
	if r.Err() != nil {
		return nil
	}
	in := &KMShardInit{K: int(v[0]), Dim: int(v[1]), Block: int(v[2]), Norms: r.F64s(n)}
	in.Vectors = sparse.ConsumeFlatVectors(r, n)
	switch {
	case in.K < 1:
		r.Fail("loop shard init has k=%d", in.K)
	case in.Dim < 0:
		r.Fail("loop shard init has dimension %d", in.Dim)
	case in.Block != 0 && in.Block != 4 && in.Block != 8:
		r.Fail("loop shard init has block width %d", in.Block)
	case in.Dim > 0 && in.K > maxFrameBytes/8/in.Dim:
		// The loop decodes its centroid blocks into k × dim dense floats;
		// a shape past what one frame could hold densely is no real loop.
		r.Fail("loop shard init has k=%d × dimension %d, more centroid floats than a %d-byte frame holds", in.K, in.Dim, maxFrameBytes)
	}
	for i := range in.Vectors {
		// Indices ascend, so the last is the largest.
		if ix := in.Vectors[i].Idx; len(ix) > 0 && int64(ix[len(ix)-1]) >= int64(in.Dim) {
			r.Fail("loop shard init document %d has index %d out of dimension %d", i, ix[len(ix)-1], in.Dim)
		}
	}
	return in
}

// KMAssignTaskArgs are the kmeans.assign kernel arguments — one shard's
// assignment iteration. The centroids are not among them: (Loop, Iter) is
// the key of the iteration's centroid block, the task's keyed body.
type KMAssignTaskArgs struct {
	// Loop names the K-Means loop's worker-side state, Shard the shard's
	// session within it.
	Loop  string
	Shard int
	// Iter is the iteration whose centroids the shard is assigned against.
	Iter int
	// Init is present on the shard's first contact with the worker and on
	// a resend after a miss.
	Init *KMShardInit
	// Assign holds the shard's previous assignments (shard-local indexing),
	// so the moved count stays exact whether or not the session survived.
	Assign []int32
}

// AppendFlat appends the arguments in flat form:
//
//	loop | shard u32 | iter u64 | n u32 | assign i32 × n | init
func (a *KMAssignTaskArgs) AppendFlat(b []byte) []byte {
	b = flatwire.AppendString(b, a.Loop)
	b = flatwire.AppendU32(b, uint32(a.Shard))
	b = flatwire.AppendU64(b, uint64(a.Iter))
	b = flatwire.AppendU32(b, uint32(len(a.Assign)))
	b = flatwire.AppendI32s(b, a.Assign)
	return a.Init.appendFlat(b)
}

// DecodeFlatKMAssignTaskArgs is AppendFlat's inverse; a present init is
// validated.
func DecodeFlatKMAssignTaskArgs(body []byte) (*KMAssignTaskArgs, error) {
	r := flatwire.NewReader(body)
	a := &KMAssignTaskArgs{Loop: r.String(), Shard: int(r.U32()), Iter: int(r.U64())}
	a.Assign = r.I32s(r.Count(4))
	a.Init = consumeKMShardInit(r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("decode args: %w", err)
	}
	return a, nil
}

// KMAssignReply is the kmeans.assign kernel reply: the shard's
// position-independent results — moved count, assignments, distances.
type KMAssignReply struct {
	// Accum is the shard's partial (its moved count) in wire form.
	Accum *kmeans.AccumWire
	// Assign holds the shard's new assignments.
	Assign []int32
	// Dists holds the shard's per-document distances, one per assignment.
	Dists []float64
}

// kmLoop is the worker-side state of one K-Means loop: the one decoded
// set of centroids its shards' sessions all assign against. It lives in
// the worker store while any of its sessions does.
type kmLoop struct {
	mu sync.Mutex // guards every field; never held across a scan
	// k, dim and block are the loop's shape, fixed by its first session's
	// init (k = 0 until then); every later init must agree.
	k, dim, block int
	// raw is the last centroid block a store frame delivered, undecoded
	// (nil once decoded): only a session's init carries the shape a block
	// decodes into, and the loop's first block can precede it. rawFrame is
	// the recycled frame raw lies in, rawIter the iteration it brings the
	// centroids to, rawBase the one whose centroids its rows update
	// (noCentroidBase: it carries every row).
	raw      []byte
	rawFrame *[]byte
	rawIter  int
	rawBase  uint64
	// cur is the decoded block; scans read it without a lock.
	cur *kmCentroids
}

// kmCentroids is the loop's centroids: allocated at the first decode and
// updated in place by every later one, which overwrites the rows its block
// carries. Under the blocked kernel they live only in the layout's lanes,
// the one form AssignRange reads then; the scalar kernel reads the dense
// matrix. A scan reads them unchanged, because iteration i+1's block
// reaches a worker only after the coordinator holds every iteration-i
// reply — no scan of the previous iteration is still running when the next
// block decodes.
type kmCentroids struct {
	iter   int
	cents  [][]float64         // nil under the blocked kernel
	layout *sparse.BlockLayout // nil under the scalar kernel
	cnorms []float64
}

// noCentroidBase is the base of a store frame whose block carries every
// centroid row: it updates no earlier matrix, so any worker can apply it.
const noCentroidBase = math.MaxUint64

// kmSession is a worker-side loop shard: its loop, the documents, and the
// distance and dot scratch reused across the loop's waves.
type kmSession struct {
	loop  *kmLoop
	mu    sync.Mutex
	docs  []sparse.Vector
	norms []float64
	dists []float64
	dots  []float64 // blocked-kernel scratch (kmeans.DotScratch)
	seed  []float64 // seeding scratch: dim floats, all zero between calls
}

// loopShardKey is the store key of a loop shard's session, and the shard's
// affinity key.
func loopShardKey(loop string, shard int) string { return loop + "-" + strconv.Itoa(shard) }

// loopShard returns one loop shard's session, made from init when absent;
// it misses without either, or on a key that holds something else.
func loopShard(st *workerStore, conn uint64, loop string, shard int, init *KMShardInit) (*kmSession, error) {
	key := loopShardKey(loop, shard)
	if init == nil {
		if s, ok := st.get(key).(*kmSession); ok {
			return s, nil
		}
		return nil, errMiss
	}
	l, ok := st.put(conn, loop, "", func() any { return new(kmLoop) }).(*kmLoop)
	if !ok {
		return nil, errMiss
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.k == 0:
		l.k, l.dim, l.block = init.K, init.Dim, init.Block
	case init.K != l.k || init.Dim != l.dim || init.Block != l.block:
		return nil, fmt.Errorf("%w: loop %q shard %d init has shape k=%d dim=%d block=%d, the loop's is k=%d dim=%d block=%d",
			flatwire.ErrMalformed, loop, shard, init.K, init.Dim, init.Block, l.k, l.dim, l.block)
	}
	if s, ok := st.put(conn, key, loop, func() any {
		return &kmSession{loop: l, docs: init.Vectors, norms: init.Norms,
			dists: make([]float64, len(init.Vectors)), dots: kmeans.DotScratch(init.K)}
	}).(*kmSession); ok {
		return s, nil
	}
	return nil, errMiss
}

// storeCentroidsKernel stashes a shipped centroid block (loop | iter u64 |
// base u64 | kmeans.AppendFlatCentroids) in its loop for the first
// assignment task naming iteration iter to decode; the block stays in its
// request frame, which goes back to the pool once decoded. A block
// updating iteration base's matrix carries the rows that changed since;
// one with noCentroidBase carries every row. A second connection's copy of
// a block already decoded is dropped, and so is a delta for an iteration
// whose full block is stashed.
func storeCentroidsKernel(st *workerStore, rq *kernelCall, dst []byte) ([]byte, error) {
	r := flatwire.NewReader(rq.args)
	loop, iter, base := r.String(), int(r.U64()), r.U64()
	raw := r.Rest()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("workflow: kernel kmeans.centroids: %w", err)
	}
	l, ok := st.put(rq.conn, loop, "", func() any { return new(kmLoop) }).(*kmLoop)
	if !ok {
		return dst, nil // the task naming the block misses
	}
	l.mu.Lock()
	// A stashed full block of this iteration applies whatever the loop
	// holds; a delta sent on another connection must not displace it.
	fullStashed := l.raw != nil && l.rawIter == iter && l.rawBase == noCentroidBase
	if (l.cur == nil || l.cur.iter != iter) && !fullStashed {
		putBuf(l.rawFrame) // a block never decoded is replaced
		l.raw, l.rawFrame, l.rawIter, l.rawBase = raw, rq.frame, iter, base
		rq.kept = true
	}
	l.mu.Unlock()
	return dst, nil
}

// centroids returns iteration iter's centroid matrix, applying the
// stashed block if it is that iteration's and nobody has yet — a sibling
// task of the same wave waits on the lock for the decode instead of
// repeating it. It misses when the loop cannot reach iter: it holds no
// block for it, or a delta whose base matrix it does not hold; the resend
// carries every row.
func (l *kmLoop) centroids(iter int) (*kmCentroids, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur != nil && l.cur.iter == iter {
		return l.cur, nil
	}
	if l.raw == nil || l.rawIter != iter {
		return nil, errMiss
	}
	full := l.rawBase == noCentroidBase
	if !full && l.rawBase >= uint64(iter) {
		return nil, fmt.Errorf("%w: centroid block for iteration %d updates iteration %d", flatwire.ErrMalformed, iter, l.rawBase)
	}
	if !full && (l.cur == nil || uint64(l.cur.iter) != l.rawBase) {
		return nil, errMiss
	}
	c := l.cur
	if c == nil {
		c = &kmCentroids{cnorms: make([]float64, l.k)}
		if l.block > 0 {
			// Block width never changes results: purely a work-shape choice.
			c.layout = sparse.NewBlockLayout(l.k, l.dim, l.block)
		} else {
			c.cents = make([][]float64, l.k)
			for j := range c.cents {
				c.cents[j] = make([]float64, l.dim)
			}
		}
	}
	raw, frame := l.raw, l.rawFrame
	l.raw, l.rawFrame = nil, nil
	defer putBuf(frame)
	// The decoders check the whole block before they write a value, so a
	// rejected block leaves the previous iteration's intact.
	var err error
	if c.layout != nil {
		_, err = kmeans.DecodeFlatCentroidLanes(raw, c.layout, c.cnorms, full)
	} else {
		_, err = kmeans.DecodeFlatCentroids(raw, c.cents, c.cnorms, full)
	}
	if err != nil {
		return nil, err
	}
	c.iter = iter
	l.cur = c
	return c, nil
}

// runKMAssignKernel executes one loop shard's assignment iteration on the
// worker: the same kmeans.AssignRange the coordinator would run, over the
// session's documents against the loop's decoded centroids. It misses
// without the session or the iteration's centroids.
func runKMAssignKernel(st *workerStore, rq *kernelCall, dst []byte) ([]byte, error) {
	a, err := DecodeFlatKMAssignTaskArgs(rq.args)
	if err != nil {
		return nil, fmt.Errorf("workflow: kernel kmeans.assign: %w", err)
	}
	s, err := loopShard(st, rq.conn, a.Loop, a.Shard, a.Init)
	if err != nil {
		return nil, fmt.Errorf("workflow: kernel kmeans.assign: %w", err)
	}
	l := s.loop
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.docs)
	if len(a.Assign) != n {
		return nil, fmt.Errorf("workflow: kernel kmeans.assign: %w: loop %q shard %d: %d previous assignments for %d documents",
			flatwire.ErrMalformed, a.Loop, a.Shard, len(a.Assign), n)
	}
	for i, c := range a.Assign {
		if c < -1 || int(c) >= l.k {
			return nil, fmt.Errorf("workflow: kernel kmeans.assign: %w: loop %q shard %d: document %d assigned to cluster %d of %d",
				flatwire.ErrMalformed, a.Loop, a.Shard, i, c, l.k)
		}
	}
	c, err := l.centroids(a.Iter)
	if err != nil {
		return nil, fmt.Errorf("workflow: kernel kmeans.assign: %w", err)
	}
	moved := kmeans.AssignRange(0, n, l.k, s.docs, s.norms, c.cents, c.cnorms, c.layout, a.Assign, s.dists, s.dots)
	return (&KMAssignReply{Accum: &kmeans.AccumWire{Changed: moved}, Assign: a.Assign, Dists: s.dists}).AppendFlat(dst), nil
}

// kmAssignReplyMagic identifies a flat kmeans.assign reply buffer.
const kmAssignReplyMagic uint32 = 0x48504b41 // "HPKA"

// AppendFlat appends the reply in flat layout: magic, the partial's flat
// wire form, then the assignment and distance blocks:
//
//	magic u32 | accum | n u32 | assign i32 × n | dists f64 × n
//
// Floats travel as IEEE 754 bits; the absorbed state is bit-identical to
// the worker's. Dists must hold one distance per assignment.
func (r *KMAssignReply) AppendFlat(dst []byte) []byte {
	b := r.Accum.EncodeFlat(flatwire.AppendU32(dst, kmAssignReplyMagic))
	b = flatwire.AppendU32(b, uint32(len(r.Assign)))
	b = flatwire.AppendI32s(b, r.Assign)
	return flatwire.AppendF64s(b, r.Dists)
}

// DecodeFlatKMAssignReply decodes a flat kmeans.assign reply, validating
// magic, counts, truncation and trailing bytes.
func DecodeFlatKMAssignReply(body []byte) (*KMAssignReply, error) {
	r := flatwire.NewReader(body)
	r.Magic(kmAssignReplyMagic, "kmeans assign reply")
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("workflow: decode kmeans.assign reply: %w", err)
	}
	acc, err := kmeans.ConsumeFlatAccumWire(r)
	if err != nil {
		return nil, fmt.Errorf("workflow: decode kmeans.assign reply: %w", err)
	}
	n := r.Count(12) // 4 (assignment) + 8 (distance) bytes per document
	rep := &KMAssignReply{Accum: acc, Assign: r.I32s(n), Dists: r.F64s(n)}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("workflow: decode kmeans.assign reply: %w", err)
	}
	return rep, nil
}

// KMSeedTaskArgs are the kmeans.seed kernel arguments — one seed round's
// min-distance scan over one loop shard.
type KMSeedTaskArgs struct {
	// Loop and Shard identify the shard's worker-side session — the same
	// one the assignment iterations use, so documents ship once for both.
	Loop  string
	Shard int
	// Init is present on the shard's first contact with the worker
	// (usually the first seed round; the assignment tasks then find the
	// session warm) and on a resend after a miss.
	Init *KMShardInit
	// Last is the most recently chosen seed document.
	Last sparse.Vector
	// D2 is the shard's current window of the running min-distance array.
	D2 []float64
}

// AppendFlat appends the arguments in flat form:
//
//	loop | shard u32 | last (one sparse row) | n u32 | d2 f64 × n | init
func (a *KMSeedTaskArgs) AppendFlat(b []byte) []byte {
	b = flatwire.AppendString(b, a.Loop)
	b = flatwire.AppendU32(b, uint32(a.Shard))
	b = sparse.AppendFlatVectors(b, []sparse.Vector{a.Last})
	b = flatwire.AppendU32(b, uint32(len(a.D2)))
	b = flatwire.AppendF64s(b, a.D2)
	return a.Init.appendFlat(b)
}

// DecodeFlatKMSeedTaskArgs is AppendFlat's inverse; a present init is
// validated.
func DecodeFlatKMSeedTaskArgs(body []byte) (*KMSeedTaskArgs, error) {
	r := flatwire.NewReader(body)
	a := &KMSeedTaskArgs{Loop: r.String(), Shard: int(r.U32())}
	if last := sparse.ConsumeFlatVectors(r, 1); last != nil {
		a.Last = last[0]
	}
	a.D2 = r.F64s(r.Count(8))
	a.Init = consumeKMShardInit(r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("decode args: %w", err)
	}
	return a, nil
}

// kmSeedReplyMagic identifies a flat kmeans.seed reply buffer.
const kmSeedReplyMagic uint32 = 0x48505344 // "HPSD"

// runKMSeedKernel executes one seed round's scan on the worker: the same
// kmeans.SeedScanRange the coordinator's local path runs, over the
// session's documents against the shipped seed scattered into the
// session's scratch — so the returned window (magic, count, then the
// min-updated distances as IEEE 754 bits) is bit-identical to a local
// scan. The decoder only makes the seed's indices ascend: they are checked
// against the loop's dimension before the scratch is sized or written.
func runKMSeedKernel(st *workerStore, rq *kernelCall, dst []byte) ([]byte, error) {
	a, err := DecodeFlatKMSeedTaskArgs(rq.args)
	if err != nil {
		return nil, fmt.Errorf("workflow: kernel kmeans.seed: %w", err)
	}
	s, err := loopShard(st, rq.conn, a.Loop, a.Shard, a.Init)
	if err != nil {
		return nil, fmt.Errorf("workflow: kernel kmeans.seed: %w", err)
	}
	l := s.loop
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(a.D2) != len(s.docs) || len(s.norms) != len(s.docs) || a.Last.Dim() > l.dim {
		return nil, fmt.Errorf("workflow: kernel kmeans.seed: %w: loop %q shard %d: %d seed distances and %d norms for %d documents, seed dimension %d of %d",
			flatwire.ErrMalformed, a.Loop, a.Shard, len(a.D2), len(s.norms), len(s.docs), a.Last.Dim(), l.dim)
	}
	if s.seed == nil {
		s.seed = make([]float64, l.dim)
	}
	sparse.AddInto(s.seed, &a.Last, 1)
	kmeans.SeedScanRange(s.docs, s.norms, s.seed, a.Last.NormSq(), a.D2)
	for _, idx := range a.Last.Idx {
		s.seed[idx] = 0
	}
	b := flatwire.AppendU32(dst, kmSeedReplyMagic)
	b = flatwire.AppendU32(b, uint32(len(a.D2)))
	return flatwire.AppendF64s(b, a.D2), nil
}

// DecodeFlatKMSeedReply decodes a flat kmeans.seed reply, validating magic,
// count, truncation and trailing bytes.
func DecodeFlatKMSeedReply(body []byte) ([]float64, error) {
	r := flatwire.NewReader(body)
	r.Magic(kmSeedReplyMagic, "kmeans seed reply")
	n := r.Count(8)
	d2 := r.F64s(n)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("workflow: decode kmeans.seed reply: %w", err)
	}
	return d2, nil
}

// RemoteTask implements Remotable: a tf-map shard ships when it is linked
// to its transform stage (pair), the corpus shard has an on-disk identity
// and the options serialize. The task names a store key for the counts
// plus the matching affinity key, so the shard's transform lands on the
// same worker and reads the live dictionaries this task leaves behind; the
// reply is the shard without its documents, and the pair records the
// task's descriptor for the transform to recount from after a miss.
func (o *TFMapOp) RemoteTask(ins []Value, idx, total int) (*RemoteTask, bool) {
	pair := o.pair
	if pair == nil {
		return nil, false
	}
	src, ok := ins[0].(pario.Source)
	if !ok {
		return nil, false
	}
	spec, ok := pario.Describe(src)
	if !ok {
		return nil, false
	}
	wopts, ok := o.Opts.Wire()
	if !ok {
		return nil, false
	}
	args := &CountTaskArgs{Shard: *spec, Session: pair.countSession(idx), Opts: wopts}
	return &RemoteTask{
		Op:       "tfidf.count",
		Args:     args.AppendFlat,
		Affinity: args.Session,
		Absorb: func(body []byte) (Value, error) {
			sc, err := tfidf.DecodeFlatShardCounts(body)
			if err != nil {
				return nil, fmt.Errorf("workflow: tfidf.count reply: %w", err)
			}
			if sc.Lo != spec.Lo || sc.Hi != spec.Hi {
				return nil, fmt.Errorf("workflow: tfidf.count reply: %w: documents [%d, %d) for shard [%d, %d)",
					flatwire.ErrMalformed, sc.Lo, sc.Hi, spec.Lo, spec.Hi)
			}
			pair.recordCount(sc, args)
			return sc, nil
		},
	}, true
}

// RemoteTask implements Remotable: a transform shard ships exactly when its
// count shipped — its documents are on that worker, or re-derivable from
// the count's descriptor; a shard counted here is transformed here. It
// ships the shard's vocabulary resolved against the global table on the
// coordinator — the remap, the IDF of every local term and the dimension —
// with its counts by store key (the count's descriptor in the resend after
// a miss), and absorbs the flat VectorShard reply.
func (o *TransformOp) RemoteTask(ins []Value, idx, total int) (*RemoteTask, bool) {
	sc, ok := ins[0].(*tfidf.ShardCounts)
	if !ok || o.pair == nil {
		return nil, false
	}
	g, ok := ins[1].(*tfidf.Global)
	if !ok {
		return nil, false
	}
	count := o.pair.takeCount(sc)
	if count == nil {
		return nil, false
	}
	args := &TransformTaskArgs{CountsSession: count.Session, Terms: g.Resolve(sc.Words), Opts: count.Opts}
	return &RemoteTask{
		Op:       "tfidf.transform",
		Args:     args.AppendFlat,
		Affinity: count.Session,
		Inline: func(dst []byte) []byte {
			a := *args
			a.Recount = count
			return a.AppendFlat(dst)
		},
		Absorb: func(body []byte) (Value, error) {
			vs, err := tfidf.DecodeFlatVectorShard(body)
			if err != nil {
				return nil, fmt.Errorf("workflow: tfidf.transform reply: %w", err)
			}
			if vs.Lo != sc.Lo || vs.Hi != sc.Hi {
				return nil, fmt.Errorf("workflow: tfidf.transform reply: %w: documents [%d, %d) for shard [%d, %d)",
					flatwire.ErrMalformed, vs.Lo, vs.Hi, sc.Lo, sc.Hi)
			}
			return vs, nil
		},
	}, true
}
