package workflow

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

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
//     shard's term counts (tfidf.WireShardCounts, DF included) back;
//   - tfidf.transform: a shard's counts plus the global term table in,
//     the shard's score vectors (*tfidf.VectorShard) back;
//   - kmeans.assign: one loop shard's assignment iteration — the key of the
//     iteration's centroid block and the shard's previous assignments in,
//     the moved count, new assignments and distances back. The
//     shard's documents ship once, on the first iteration, and are cached
//     in a worker-side session that backend affinity keeps on one worker;
//   - kmeans.seed: one K-Means++ seed round's min-distance scan over one
//     loop shard — the last chosen seed and the shard's current distance
//     window in, the min-updated window back. It shares the assignment
//     loop's sessions (same affinity key), so the shard's documents ship
//     once for seeding and iterations combined;
//   - tfidf.global and kmeans.centroids: the inline store kernels of the
//     two keyed bodies (backend.go, keyedBody) — the global term table,
//     cached by content hash, and an iteration's centroid block, cached
//     per loop.
//
// Kernels run the same functions the local path runs (tfidf.CountShard,
// tfidf.TransformShard, kmeans.AssignRange), so remote results are
// bit-identical to local ones by construction; the wire forms only ever
// flatten dictionaries, vectors and per-document results, never recompute
// scores.
//
// Every argument and every reply is a flat buffer (flatwire): scalars
// little-endian, floats as IEEE 754 bit patterns, so shipping preserves
// the bit-identity contract, and every decoder validates what the kernel
// indexes by and fails with an error wrapping flatwire.ErrMalformed.

func init() {
	registerKernel("tfidf.count", kernel{fn: runCountKernel})
	registerKernel("tfidf.transform", kernel{fn: runTransformKernel})
	registerKernel("tfidf.global", kernel{fn: storeGlobalKernel, inline: true})
	registerKernel("kmeans.assign", kernel{fn: runKMAssignKernel})
	registerKernel("kmeans.seed", kernel{fn: runKMSeedKernel})
	registerKernel("kmeans.centroids", kernel{fn: storeCentroidsKernel, inline: true})
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

// CountTaskArgs are the tfidf.count kernel arguments.
type CountTaskArgs struct {
	// Shard describes the corpus shard (paths + global [Lo, Hi) range).
	Shard pario.SourceSpec
	// Session, when non-empty, makes the worker keep the live ShardCounts
	// cached under this key after replying, so the matching transform task
	// (routed here by the shared affinity key) can consume them without the
	// coordinator re-serializing every document's term counts.
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

// DecodeFlatCountTaskArgs is AppendFlat's inverse.
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
	a.Session = r.String()
	a.Opts = consumeWireOptions(r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("decode args: %w", err)
	}
	return a, nil
}

// runCountKernel executes phase 1 over the described shard on the worker;
// the reply is the shard's full term counts, DF included, in flat form.
func runCountKernel(body, dst []byte) ([]byte, error) {
	a, err := DecodeFlatCountTaskArgs(body)
	if err != nil {
		return nil, fmt.Errorf("workflow: kernel tfidf.count: %w", err)
	}
	opts := a.Opts.Options()
	readers := workerPool().Workers()
	sc, err := tfidf.CountShard(a.Shard.Open(nil), readers, opts)
	if err != nil {
		return nil, fmt.Errorf("workflow: kernel tfidf.count: %w", err)
	}
	// CountShard derives [Lo, Hi) from SubSources; a spec-opened shard is a
	// plain FileSource, so restore the global range from the descriptor.
	sc.Lo, sc.Hi = a.Shard.Lo, a.Shard.Hi
	w := sc.Wire(true)
	if a.Session != "" {
		// The reply carries everything the coordinator's DF merge needs;
		// the live dictionaries stay here for the transform task.
		countCache.put(a.Session, sc)
	}
	return w.EncodeFlat(dst), nil
}

// TransformTaskArgs are the tfidf.transform kernel arguments. The global
// term table is never among them: GlobalHash names it, and its body
// travels as the task's keyed body on a worker's first miss.
type TransformTaskArgs struct {
	// Counts is the shard's phase-1 output inlined (DF omitted — only the
	// global merge reads it). Nil when CountsSession names the worker's
	// cached live shard instead; a resend after a session miss inlines it.
	Counts *tfidf.WireShardCounts
	// CountsSession, when non-empty, keys the count kernel's cached
	// ShardCounts on the worker the shared affinity routed both tasks to.
	CountsSession string
	// GlobalHash is the table's content digest (tfidf.Global.ContentHash),
	// the worker's cache key. Always set.
	GlobalHash uint64
	// Opts is the serializable option subset.
	Opts tfidf.WireOptions
}

// AppendFlat appends the arguments in flat form:
//
//	session | hash u64 | opts | hasCounts u8 | [counts (WireShardCounts flat, to the end)]
func (a *TransformTaskArgs) AppendFlat(b []byte) []byte {
	b = flatwire.AppendString(b, a.CountsSession)
	b = flatwire.AppendU64(b, a.GlobalHash)
	b = appendWireOptions(b, a.Opts)
	if a.Counts == nil {
		return flatwire.AppendU8(b, 0)
	}
	return a.Counts.EncodeFlat(flatwire.AppendU8(b, 1))
}

// DecodeFlatTransformTaskArgs is AppendFlat's inverse.
func DecodeFlatTransformTaskArgs(body []byte) (*TransformTaskArgs, error) {
	r := flatwire.NewReader(body)
	a := &TransformTaskArgs{CountsSession: r.String(), GlobalHash: r.U64()}
	a.Opts = consumeWireOptions(r)
	hasCounts := r.U8()
	counts := r.Rest()
	if hasCounts > 1 || hasCounts == 0 && len(counts) > 0 {
		r.Fail("counts marker %d before %d bytes", hasCounts, len(counts))
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decode args: %w", err)
	}
	if hasCounts == 1 {
		var err error
		if a.Counts, err = tfidf.DecodeFlatWireShardCounts(counts); err != nil {
			return nil, fmt.Errorf("decode args: %w", err)
		}
	}
	return a, nil
}

// Replies of the kernels that resolve a body from a worker-side cache open
// with a magic and a miss mask: zero and the payload, or the bodies the
// worker lacks and nothing else.
const (
	transformReplyMagic uint32 = 0x48505452 // "HPTR"
	// needGlobalFlag reports the worker has no table under GlobalHash.
	needGlobalFlag uint32 = 1 << 0
	// needCountsFlag reports the worker has no counts under CountsSession.
	needCountsFlag uint32 = 1 << 1
	// needCentroidsFlag reports the worker holds no centroid block for the
	// iteration a kmeans.assign task named.
	needCentroidsFlag uint32 = 1 << 2
)

// runTransformKernel executes phase 2 over one shard on the worker, or
// replies with a miss mask when a body the arguments only name (the global
// table by hash, the counts by session) is absent — the coordinator then
// re-sends the task with the table shipped ahead and the counts inlined.
func runTransformKernel(body, dst []byte) ([]byte, error) {
	a, err := DecodeFlatTransformTaskArgs(body)
	if err != nil {
		return nil, fmt.Errorf("workflow: kernel tfidf.transform: %w", err)
	}
	opts := a.Opts.Options()
	g, _ := globalCache.get(globalCacheKey{a.GlobalHash, opts.DictKind}, nil)
	// Resolve the counts: an inlined body wins; otherwise the count
	// kernel's cached live shard. The cache entry is not consumed yet — a
	// global miss must leave it in place for the resend.
	var sc *tfidf.ShardCounts
	fromCache := false
	if a.Counts != nil {
		sc = a.Counts.ShardCounts(opts)
	} else if a.CountsSession != "" {
		sc, fromCache = countCache.get(a.CountsSession, nil)
	}
	var flags uint32
	if g == nil {
		flags |= needGlobalFlag
	}
	if sc == nil {
		flags |= needCountsFlag
	}
	b := flatwire.AppendU32(dst, transformReplyMagic)
	b = flatwire.AppendU32(b, flags)
	if flags != 0 {
		return b, nil
	}
	vs := tfidf.TransformShard(g, sc, workerPool(), opts)
	if fromCache {
		countCache.drop(a.CountsSession) // TransformShard consumed the dictionaries
	}
	return vs.EncodeFlat(b), nil
}

// appendGlobalStore appends the tfidf.global store argument: the cache key
// (dictionary kind, content hash), then the table in flat form.
func appendGlobalStore(b []byte, kind dict.Kind, g *tfidf.Global) []byte {
	b = flatwire.AppendI64(b, int64(kind))
	b = flatwire.AppendU64(b, g.ContentHash())
	return g.Wire().EncodeFlat(b)
}

// storeGlobalKernel caches a shipped global term table, rebuilt with the
// run's dictionary kind, for every later shard this worker transforms.
func storeGlobalKernel(body, dst []byte) ([]byte, error) {
	r := flatwire.NewReader(body)
	kind, hash := dict.Kind(r.I64()), r.U64()
	table := r.Rest()
	if !slices.Contains(dict.Kinds(), kind) {
		r.Fail("dictionary kind %d", kind)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("workflow: kernel tfidf.global: %w", err)
	}
	wg, err := tfidf.DecodeFlatWireGlobal(table)
	if err != nil {
		return nil, fmt.Errorf("workflow: kernel tfidf.global: %w", err)
	}
	globalInlineShips.Add(1)
	globalCache.put(globalCacheKey{hash, kind}, wg.Global(kind))
	return dst, nil
}

// workerCacheTTL bounds how long an idle worker-side cache entry (global
// table, shard counts, K-Means loop) survives, so a long-running worker
// does not accumulate state from finished runs.
const workerCacheTTL = 10 * time.Minute

// workerCache is a worker-side cache whose idle entries expire, evicted
// lazily on the next get.
type workerCache[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*workerCacheEntry[V]
}

type workerCacheEntry[V any] struct {
	v       V
	lastUse time.Time
}

// get returns key's value — made by mk, when non-nil, on a miss — and
// evicts every other entry idle past the TTL.
func (c *workerCache[K, V]) get(key K, mk func() V) (v V, ok bool) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, e := range c.m {
		if k != key && now.Sub(e.lastUse) > workerCacheTTL {
			delete(c.m, k)
		}
	}
	e := c.m[key]
	if e == nil {
		if mk == nil {
			return v, false
		}
		e = &workerCacheEntry[V]{v: mk()}
		if c.m == nil {
			c.m = make(map[K]*workerCacheEntry[V])
		}
		c.m[key] = e
	}
	e.lastUse = now
	return e.v, true
}

// put stores (or replaces) key's value; drop removes it.
func (c *workerCache[K, V]) put(key K, v V) {
	c.drop(key)
	c.get(key, func() V { return v })
}

func (c *workerCache[K, V]) drop(key K) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.m, key)
}

// globalCacheKey identifies one cached global term table: the content hash
// plus the dictionary kind the lookup table was rebuilt with (two runs may
// share a corpus but configure different dictionaries).
type globalCacheKey struct {
	hash uint64
	kind dict.Kind
}

var (
	// globalCache holds rebuilt global term tables.
	globalCache workerCache[globalCacheKey, *tfidf.Global]
	// countCache keeps a count kernel's live shard, by session, for the
	// matching transform task. Re-caching a session overwrites the entry
	// with identical content (shard counts are a pure function of the shard
	// and the options); the transform drops it once consumed.
	countCache workerCache[string, *tfidf.ShardCounts]
	// kmLoops holds the K-Means loops with state on this worker.
	kmLoops workerCache[string, *kmLoop]

	// globalInlineShips counts global term tables that arrived on this
	// worker — the resend path after a worker cache miss. In steady state
	// a table body reaches a worker process at most once per (hash, kind);
	// the ship-bound test asserts on this counter.
	globalInlineShips atomic.Int64
	// globalReships counts, coordinator-side, how many transform tasks had
	// to re-ship the global term table after a worker cache miss — the same
	// traffic globalInlineShips counts on the worker, observable from the
	// process that scheduled it (hpa-serve exposes it on /metrics).
	globalReships atomic.Int64
	// centroidInlineShips counts centroid blocks that arrived on this
	// worker: in steady state one per worker connection per iteration,
	// however many shards the worker holds (the ship-bound test asserts it).
	centroidInlineShips atomic.Int64
)

// GlobalReships returns the process-wide count of global term-table
// re-ships this coordinator performed.
func GlobalReships() int64 { return globalReships.Load() }

// KMShardInit carries a loop shard's per-loop constants, shipped once on
// the shard's first contact with a worker and cached in the worker session.
type KMShardInit struct {
	// Vectors and Norms are the shard's documents and their squared norms.
	Vectors []sparse.Vector
	Norms   []float64
	// Dim is the dense dimensionality, K the cluster count.
	Dim, K int
	// Block is the coordinator's resolved blocked-kernel lane width
	// (kmeans.Clusterer.BlockWidth; 0 = scalar, else 4 or 8). It never
	// affects results — any width is bit-identical — it only keeps the
	// kernel shape consistent across backends.
	Block int
}

// appendFlat appends the init, or its absence, in flat form:
//
//	present u8 | [k i64 | dim i64 | block i64 | n u32 | norms f64 × n | vectors (sparse.AppendFlatVectors)]
func (in *KMShardInit) appendFlat(b []byte) []byte {
	if in == nil {
		return flatwire.AppendU8(b, 0)
	}
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
	// Init is present on the shard's first contact with the worker only.
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
// position-independent results — moved count, assignments, distances — or
// the report that the worker holds no centroid block for the iteration.
type KMAssignReply struct {
	// NeedCentroids reports a centroid-block miss; the other fields are
	// then empty.
	NeedCentroids bool
	// Accum is the shard's partial (its moved count) in wire form.
	Accum *kmeans.AccumWire
	// Assign holds the shard's new assignments.
	Assign []int32
	// Dists holds the shard's per-document distances, one per assignment.
	Dists []float64
}

// kmLoop is the worker-side state of one K-Means loop: its shards'
// sessions, and the one decoded centroid matrix and filled block layout
// they all assign against.
type kmLoop struct {
	mu       sync.Mutex // guards every field; never held across a scan
	sessions map[int]*kmSession
	// k, dim and block are the loop's shape, fixed by its first session's
	// init; every later init must agree.
	k, dim, block int
	// raw is the last centroid block a store frame delivered, undecoded
	// (nil once decoded): only a session's init carries the shape a block
	// decodes into, and the loop's first block can precede it. rawIter is
	// the iteration it brings the matrix to, rawBase the one whose matrix
	// its rows update (noCentroidBase: it carries every row).
	raw     []byte
	rawIter int
	rawBase uint64
	// cur is the decoded block; scans read it without a lock.
	cur *kmCentroids
}

// kmCentroids is the loop's centroid matrix: allocated at the first decode
// and updated in place by every later one, which overwrites the rows its
// block carries and refills just their layout lanes. A scan reads it
// unchanged, because iteration i+1's block reaches a worker only after the
// coordinator holds every iteration-i reply — no scan of the previous
// iteration is still running when the next block decodes.
type kmCentroids struct {
	iter   int
	cents  [][]float64
	cnorms []float64
	layout *sparse.BlockLayout // nil under the scalar kernel
	rows   []bool              // scratch: the rows the last decode overwrote
}

// noCentroidBase is the base of a store frame whose block carries every
// centroid row: it updates no earlier matrix, so any worker can apply it.
const noCentroidBase = math.MaxUint64

// kmSession is a worker-side loop shard: the cached documents plus the
// distance and dot scratch reused across the loop's iterations.
type kmSession struct {
	mu    sync.Mutex
	docs  []sparse.Vector
	norms []float64
	dists []float64
	dots  []float64 // blocked-kernel scratch (kmeans.DotScratch)
	seed  []float64 // seeding scratch: dim floats, all zero between calls
}

// kmLoopFor returns the named loop's state, created on first sight.
func kmLoopFor(id string) *kmLoop {
	l, _ := kmLoops.get(id, func() *kmLoop { return &kmLoop{sessions: make(map[int]*kmSession)} })
	return l
}

// session returns (creating if init allows) one shard's session.
func (l *kmLoop) session(loop string, shard int, init *KMShardInit) (*kmSession, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.sessions[shard]
	if s != nil {
		return s, nil
	}
	switch {
	case init == nil:
		return nil, fmt.Errorf("loop %q shard %d session lost (worker restarted mid-loop?)", loop, shard)
	case len(l.sessions) == 0:
		l.k, l.dim, l.block = init.K, init.Dim, init.Block
	case init.K != l.k || init.Dim != l.dim || init.Block != l.block:
		return nil, fmt.Errorf("%w: loop %q shard %d init has shape k=%d dim=%d block=%d, the loop's is k=%d dim=%d block=%d",
			flatwire.ErrMalformed, loop, shard, init.K, init.Dim, init.Block, l.k, l.dim, l.block)
	}
	s = &kmSession{docs: init.Vectors, norms: init.Norms,
		dists: make([]float64, len(init.Vectors)), dots: kmeans.DotScratch(init.K)}
	l.sessions[shard] = s
	return s, nil
}

// storeCentroidsKernel stashes a shipped centroid block (loop | iter u64 |
// base u64 | kmeans.AppendFlatCentroids) for the first assignment task
// naming iteration iter to decode. A block updating iteration base's
// matrix carries the rows that changed since; one with noCentroidBase
// carries every row. A second connection's copy of a block already
// decoded is dropped.
func storeCentroidsKernel(body, dst []byte) ([]byte, error) {
	r := flatwire.NewReader(body)
	loop, iter, base := r.String(), int(r.U64()), r.U64()
	raw := r.Rest()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("workflow: kernel kmeans.centroids: %w", err)
	}
	centroidInlineShips.Add(1)
	l := kmLoopFor(loop)
	l.mu.Lock()
	if l.cur == nil || l.cur.iter != iter {
		l.raw, l.rawIter, l.rawBase = raw, iter, base
	}
	l.mu.Unlock()
	return dst, nil
}

// centroids returns iteration iter's centroid matrix, applying the
// stashed block if it is that iteration's and nobody has yet — a sibling
// task of the same wave waits on the lock for the decode instead of
// repeating it. Nil without an error means the loop cannot reach iter: it
// holds no block for it, or a delta whose base matrix it does not hold;
// the caller answers "need centroids", and the resend carries every row.
func (l *kmLoop) centroids(iter int) (*kmCentroids, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur != nil && l.cur.iter == iter {
		return l.cur, nil
	}
	if l.raw == nil || l.rawIter != iter {
		return nil, nil
	}
	full := l.rawBase == noCentroidBase
	if !full && l.rawBase >= uint64(iter) {
		return nil, fmt.Errorf("%w: centroid block for iteration %d updates iteration %d", flatwire.ErrMalformed, iter, l.rawBase)
	}
	if !full && (l.cur == nil || uint64(l.cur.iter) != l.rawBase) {
		return nil, nil
	}
	c := l.cur
	if c == nil {
		c = &kmCentroids{cents: make([][]float64, l.k), cnorms: make([]float64, l.k), rows: make([]bool, l.k)}
		for j := range c.cents {
			c.cents[j] = make([]float64, l.dim)
		}
		if l.block > 0 {
			// Block width never changes results: purely a work-shape choice.
			c.layout = sparse.NewBlockLayout(l.k, l.dim, l.block)
		}
	}
	raw := l.raw
	l.raw = nil
	// The decoder checks the whole block before it writes a value, so a
	// rejected block leaves the previous iteration's intact.
	ids, err := kmeans.DecodeFlatCentroids(raw, c.cents, c.cnorms, full)
	if err != nil {
		return nil, err
	}
	if c.layout != nil {
		clear(c.rows)
		for _, j := range ids {
			c.rows[j] = true
		}
		for bi := 0; bi < c.layout.Blocks(); bi++ {
			c.layout.FillRange(c.cents, c.rows, bi, 0, l.dim)
		}
	}
	c.iter = iter
	l.cur = c
	return c, nil
}

// runKMAssignKernel executes one loop shard's assignment iteration on the
// worker: the same kmeans.AssignRange the coordinator would run, over the
// session's cached documents against the loop's decoded centroids.
func runKMAssignKernel(body, dst []byte) ([]byte, error) {
	a, err := DecodeFlatKMAssignTaskArgs(body)
	if err != nil {
		return nil, fmt.Errorf("workflow: kernel kmeans.assign: %w", err)
	}
	l := kmLoopFor(a.Loop)
	s, err := l.session(a.Loop, a.Shard, a.Init)
	if err != nil {
		return nil, fmt.Errorf("workflow: kernel kmeans.assign: %w", err)
	}
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
	if c == nil {
		return (&KMAssignReply{NeedCentroids: true}).AppendFlat(dst), nil
	}
	moved := kmeans.AssignRange(0, n, l.k, s.docs, s.norms, c.cents, c.cnorms, c.layout, a.Assign, s.dists, s.dots)
	return (&KMAssignReply{Accum: &kmeans.AccumWire{Changed: moved}, Assign: a.Assign, Dists: s.dists}).AppendFlat(dst), nil
}

// kmAssignReplyMagic identifies a flat kmeans.assign reply buffer.
const kmAssignReplyMagic uint32 = 0x48504b41 // "HPKA"

// AppendFlat appends the reply in flat layout: magic, the miss mask, and —
// unless that reports a miss — the partial's flat wire form, then the
// assignment and distance blocks:
//
//	magic u32 | flags u32 | [accum | n u32 | assign i32 × n | dists f64 × n]
//
// Floats travel as IEEE 754 bits; the absorbed state is bit-identical to
// the worker's. Dists must hold one distance per assignment.
func (r *KMAssignReply) AppendFlat(dst []byte) []byte {
	b := flatwire.AppendU32(dst, kmAssignReplyMagic)
	if r.NeedCentroids {
		return flatwire.AppendU32(b, needCentroidsFlag)
	}
	b = flatwire.AppendU32(b, 0)
	b = r.Accum.EncodeFlat(b)
	b = flatwire.AppendU32(b, uint32(len(r.Assign)))
	b = flatwire.AppendI32s(b, r.Assign)
	return flatwire.AppendF64s(b, r.Dists)
}

// DecodeFlatKMAssignReply decodes a flat kmeans.assign reply, validating
// magic, miss mask, counts, truncation and trailing bytes.
func DecodeFlatKMAssignReply(body []byte) (*KMAssignReply, error) {
	r := flatwire.NewReader(body)
	r.Magic(kmAssignReplyMagic, "kmeans assign reply")
	flags := r.U32()
	if flags&^needCentroidsFlag != 0 {
		r.Fail("unknown miss flags %#x", flags)
	}
	if flags != 0 && r.Done() == nil {
		return &KMAssignReply{NeedCentroids: true}, nil
	}
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
	// Init is present on the shard's first contact with the worker only
	// (usually the first seed round; the assignment tasks then find the
	// session warm).
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
// session's cached documents against the shipped seed scattered into the
// session's scratch — so the returned window (magic, count, then the
// min-updated distances as IEEE 754 bits) is bit-identical to a local
// scan. The decoder only makes the seed's indices ascend: they are checked
// against the loop's dimension before the scratch is sized or written.
func runKMSeedKernel(body, dst []byte) ([]byte, error) {
	a, err := DecodeFlatKMSeedTaskArgs(body)
	if err != nil {
		return nil, fmt.Errorf("workflow: kernel kmeans.seed: %w", err)
	}
	l := kmLoopFor(a.Loop)
	s, err := l.session(a.Loop, a.Shard, a.Init)
	if err != nil {
		return nil, fmt.Errorf("workflow: kernel kmeans.seed: %w", err)
	}
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

// RemoteTask implements Remotable: a tf-map shard ships when the corpus
// shard has an on-disk identity and the options serialize. With a linked
// transform stage (pair), the task carries a counts-cache session plus the
// matching affinity key, so the shard's transform lands on the same worker
// and reuses the live dictionaries this task leaves behind.
func (o *TFMapOp) RemoteTask(ins []Value, idx, total int) (*RemoteTask, bool) {
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
	opts := o.Opts
	pair := o.pair
	args := &CountTaskArgs{Shard: *spec, Opts: wopts}
	affinity := ""
	if pair != nil {
		args.Session = pair.countSession(idx)
		affinity = args.Session
	}
	return &RemoteTask{
		Op:       "tfidf.count",
		Args:     args.AppendFlat,
		Affinity: affinity,
		Absorb: func(body []byte) (Value, error) {
			w, err := tfidf.DecodeFlatWireShardCounts(body)
			if err != nil {
				return nil, fmt.Errorf("workflow: tfidf.count reply: %w", err)
			}
			if pair != nil {
				pair.markCounted(idx)
			}
			return w.ShardCounts(opts), nil
		},
	}, true
}

// RemoteTask implements Remotable: a transform shard ships by reference
// where it can — the global table always as its content hash (the body is
// the task's keyed body, shipped only on the first miss per worker), the
// counts by session key when the map stage cached them on a worker — and
// absorbs the flat VectorShard reply. Shards counted locally inline their
// counts.
func (o *TransformOp) RemoteTask(ins []Value, idx, total int) (*RemoteTask, bool) {
	sc, ok := ins[0].(*tfidf.ShardCounts)
	if !ok {
		return nil, false
	}
	g, ok := ins[1].(*tfidf.Global)
	if !ok {
		return nil, false
	}
	wopts, ok := o.Opts.Wire()
	if !ok {
		return nil, false
	}
	pair := o.pair
	args := &TransformTaskArgs{GlobalHash: g.ContentHash(), Opts: wopts}
	affinity := ""
	if pair != nil && pair.wasCounted(idx) {
		args.CountsSession = pair.countSession(idx)
		affinity = args.CountsSession
	} else {
		args.Counts = sc.Wire(false)
	}
	return &RemoteTask{
		Op:       "tfidf.transform",
		Args:     args.AppendFlat,
		Affinity: affinity,
		keyed: &keyedBody{op: "tfidf.global", encode: func() []byte {
			globalReships.Add(1)
			return appendGlobalStore(nil, wopts.DictKind, g)
		}},
		Absorb: func(body []byte) (Value, error) {
			r := flatwire.NewReader(body)
			r.Magic(transformReplyMagic, "transform reply")
			flags := r.U32()
			if err := r.Err(); err != nil {
				return nil, fmt.Errorf("workflow: tfidf.transform reply: %w", err)
			}
			if flags&^(needGlobalFlag|needCountsFlag) != 0 {
				return nil, fmt.Errorf("workflow: tfidf.transform reply: unknown miss flags %#x", flags)
			}
			if flags != 0 {
				nr := &needResend{Keyed: flags&needGlobalFlag != 0}
				if flags&needCountsFlag != 0 {
					resend := *args
					resend.Counts, resend.CountsSession = sc.Wire(false), ""
					nr.Args = resend.AppendFlat
				}
				return nil, nr
			}
			vs, err := tfidf.DecodeFlatVectorShard(body[8:])
			if err != nil {
				return nil, fmt.Errorf("workflow: tfidf.transform reply: %w", err)
			}
			return vs, nil
		},
	}, true
}
