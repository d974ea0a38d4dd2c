package workflow

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"runtime"
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
//   - kmeans.assign: one loop shard's assignment iteration — centroids and
//     previous assignments in, the shard's kmeans.Accum (wire form) and
//     new assignments back. The shard's documents ship once, on the first
//     iteration, and are cached in a worker-side session that backend
//     affinity keeps on one worker;
//   - kmeans.seed: one K-Means++ seed round's min-distance scan over one
//     loop shard — the last chosen seed and the shard's current distance
//     window in, the min-updated window back. It shares the assignment
//     loop's sessions (same affinity key), so the shard's documents ship
//     once for seeding and iterations combined.
//
// Kernels run the same functions the local path runs (tfidf.CountShard,
// tfidf.TransformShard, kmeans.AssignRange), so remote results are
// bit-identical to local ones by construction; the wire forms only ever
// flatten dictionaries and accumulators, never recompute scores.
//
// Every kernel reply bypasses gob: the tfidf.count reply (a flat
// WireShardCounts), the tfidf.transform reply (a flat VectorShard behind a
// miss-flag header), the kmeans.assign reply (a flat AccumWire plus
// assignment/distance blocks) and the kmeans.seed reply (a flat distance
// window). Inlined global term-table bodies travel flat too
// (tfidf.WireGlobal.EncodeFlat); only the small argument envelopes stay
// gob. Flat payloads carry floats as IEEE 754 bit patterns, so flat
// shipping preserves the bit-identity contract. The transform kernel
// additionally resolves two worker-side caches before computing: the
// global term table by content hash (shipped as a hash, pulled inline only
// on the first miss per worker) and the shard's phase-1 counts by session
// key (cached by the count kernel on the same worker, routed back by
// affinity).

func init() {
	RegisterKernel("tfidf.count", runCountKernelFlat)
	RegisterKernel("tfidf.transform", runTransformKernelFlat)
	RegisterKernel("kmeans.assign", runKMAssignKernelFlat)
	RegisterKernel("kmeans.seed", runKMSeedKernelFlat)
}

// workerPool is the worker process's compute pool, shared by every kernel
// invocation (kernels may serve several shards concurrently).
var workerPool = sync.OnceValue(func() *par.Pool { return par.NewPool(runtime.GOMAXPROCS(0)) })

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

// runCountKernel executes phase 1 over the described shard on the worker.
func runCountKernel(a *CountTaskArgs) (*tfidf.WireShardCounts, error) {
	opts := a.Opts.Options()
	readers := workerPool().Workers()
	sc, err := tfidf.CountShard(a.Shard.Open(nil), readers, opts)
	if err != nil {
		return nil, err
	}
	// CountShard derives [Lo, Hi) from SubSources; a spec-opened shard is a
	// plain FileSource, so restore the global range from the descriptor.
	sc.Lo, sc.Hi = a.Shard.Lo, a.Shard.Hi
	w := sc.Wire(true)
	if a.Session != "" {
		// The reply carries everything the coordinator's DF merge needs;
		// the live dictionaries stay here for the transform task.
		cacheCounts(a.Session, sc)
	}
	return w, nil
}

// runCountKernelFlat is the registered kernel: gob args in (a shard
// descriptor — tiny), flat reply out (the shard's full term counts, DF
// included — a cold path per run but a large body per shard).
func runCountKernelFlat(body []byte) ([]byte, error) {
	var a CountTaskArgs
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&a); err != nil {
		return nil, fmt.Errorf("workflow: kernel tfidf.count: decode args: %w", err)
	}
	w, err := runCountKernel(&a)
	if err != nil {
		return nil, fmt.Errorf("workflow: kernel tfidf.count: %w", err)
	}
	return w.EncodeFlat(nil), nil
}

// TransformTaskArgs are the tfidf.transform kernel arguments.
type TransformTaskArgs struct {
	// Counts is the shard's phase-1 output inlined (DF omitted — only the
	// global merge reads it). Nil when CountsSession names the worker's
	// cached live shard instead; a resend after a session miss inlines it.
	Counts *tfidf.WireShardCounts
	// CountsSession, when non-empty, keys the count kernel's cached
	// ShardCounts on the worker the shared affinity routed both tasks to.
	CountsSession string
	// GlobalFlat is the merged term table inlined, in flat wire form
	// (tfidf.WireGlobal.EncodeFlat). Nil on the optimistic first send —
	// GlobalHash alone identifies it — and populated only on the resend
	// answering a worker cache miss.
	GlobalFlat []byte
	// GlobalHash is the table's content digest (tfidf.Global.ContentHash),
	// the worker's cache key. Always set.
	GlobalHash uint64
	// Opts is the serializable option subset.
	Opts tfidf.WireOptions
}

// Transform reply framing: a magic header and a miss bitmask, followed by
// the flat VectorShard payload only when no body was missing.
const (
	transformReplyMagic uint32 = 0x48505452 // "HPTR"
	// needGlobalFlag reports the worker has no table under GlobalHash.
	needGlobalFlag uint32 = 1 << 0
	// needCountsFlag reports the worker has no counts under CountsSession.
	needCountsFlag uint32 = 1 << 1
)

// runTransformKernelFlat executes phase 2 over one shard on the worker, or
// replies with a miss bitmask when a keyed body (global table, cached
// counts) is absent — the coordinator then re-sends the task with the
// missing bodies inlined.
func runTransformKernelFlat(body []byte) ([]byte, error) {
	var a TransformTaskArgs
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&a); err != nil {
		return nil, fmt.Errorf("workflow: kernel tfidf.transform: decode args: %w", err)
	}
	if a.GlobalFlat != nil {
		globalInlineShips.Add(1)
	}
	opts := a.Opts.Options()
	// Resolve the global table: content-hash cache first, else the inlined
	// body (cached for every later shard this worker transforms).
	g := cachedGlobal(a.GlobalHash, opts.DictKind)
	if g == nil && a.GlobalFlat != nil {
		wg, err := tfidf.DecodeFlatWireGlobal(a.GlobalFlat)
		if err != nil {
			return nil, fmt.Errorf("workflow: kernel tfidf.transform: %w", err)
		}
		g = wg.Global(opts.DictKind)
		storeGlobal(a.GlobalHash, opts.DictKind, g)
	}
	// Resolve the counts: an inlined body wins; otherwise the count
	// kernel's cached live shard. The cache entry is not consumed yet — a
	// global miss must leave it in place for the resend.
	var sc *tfidf.ShardCounts
	fromCache := false
	if a.Counts != nil {
		sc = a.Counts.ShardCounts(opts)
	} else if a.CountsSession != "" {
		sc = peekCounts(a.CountsSession)
		fromCache = sc != nil
	}
	var flags uint32
	if g == nil {
		flags |= needGlobalFlag
	}
	if sc == nil {
		flags |= needCountsFlag
	}
	if flags != 0 {
		b := flatwire.AppendU32(nil, transformReplyMagic)
		return flatwire.AppendU32(b, flags), nil
	}
	vs := tfidf.TransformShard(g, sc, workerPool(), opts)
	if fromCache {
		dropCounts(a.CountsSession) // TransformShard consumed the dictionaries
	}
	b := flatwire.AppendU32(nil, transformReplyMagic)
	b = flatwire.AppendU32(b, 0)
	return vs.EncodeFlat(b), nil
}

// workerCacheTTL bounds how long an idle worker-side cache entry (global
// table, shard counts) survives; entries are evicted lazily on the next
// kernel call, like loop-shard sessions.
const workerCacheTTL = 10 * time.Minute

// globalInlineShips counts transform arguments that arrived with the
// global term table inlined — the resend path after a worker cache miss.
// In steady state a table body reaches a worker process at most once per
// (hash, kind); the ship-bound test asserts on this counter.
var globalInlineShips atomic.Int64

// globalReships counts, coordinator-side, how many transform tasks had to
// re-ship the global term table after a worker cache miss — the same
// traffic globalInlineShips counts on the worker, observable from the
// process that scheduled it (hpa-serve exposes it on /metrics).
var globalReships atomic.Int64

// GlobalReships returns the process-wide count of global term-table
// re-ships this coordinator performed.
func GlobalReships() int64 { return globalReships.Load() }

// globalCacheKey identifies one cached global term table: the content hash
// plus the dictionary kind the lookup table was rebuilt with (two runs may
// share a corpus but configure different dictionaries).
type globalCacheKey struct {
	hash uint64
	kind dict.Kind
}

type globalCacheEntry struct {
	g       *tfidf.Global
	lastUse time.Time
}

var globalCache = struct {
	sync.Mutex
	m map[globalCacheKey]*globalCacheEntry
}{m: make(map[globalCacheKey]*globalCacheEntry)}

// cachedGlobal returns the cached table for (hash, kind), nil on a miss,
// evicting expired entries on the way.
func cachedGlobal(hash uint64, kind dict.Kind) *tfidf.Global {
	now := time.Now()
	key := globalCacheKey{hash, kind}
	globalCache.Lock()
	defer globalCache.Unlock()
	for k, e := range globalCache.m {
		if k != key && now.Sub(e.lastUse) > workerCacheTTL {
			delete(globalCache.m, k)
		}
	}
	e := globalCache.m[key]
	if e == nil {
		return nil
	}
	e.lastUse = now
	return e.g
}

// storeGlobal caches a rebuilt table under (hash, kind).
func storeGlobal(hash uint64, kind dict.Kind, g *tfidf.Global) {
	globalCache.Lock()
	defer globalCache.Unlock()
	globalCache.m[globalCacheKey{hash, kind}] = &globalCacheEntry{g: g, lastUse: time.Now()}
}

type countCacheEntry struct {
	sc      *tfidf.ShardCounts
	lastUse time.Time
}

var countCache = struct {
	sync.Mutex
	m map[string]*countCacheEntry
}{m: make(map[string]*countCacheEntry)}

// cacheCounts keeps a count kernel's live shard for the matching transform
// task, evicting expired entries on the way. Re-caching a session key
// overwrites the entry with identical content (shard counts are a pure
// function of the shard and the options).
func cacheCounts(session string, sc *tfidf.ShardCounts) {
	now := time.Now()
	countCache.Lock()
	defer countCache.Unlock()
	for k, e := range countCache.m {
		if k != session && now.Sub(e.lastUse) > workerCacheTTL {
			delete(countCache.m, k)
		}
	}
	countCache.m[session] = &countCacheEntry{sc: sc, lastUse: now}
}

// peekCounts returns the cached shard without consuming the entry (a
// transform task that misses the global must leave the counts for its
// resend), nil on a miss.
func peekCounts(session string) *tfidf.ShardCounts {
	countCache.Lock()
	defer countCache.Unlock()
	e := countCache.m[session]
	if e == nil {
		return nil
	}
	e.lastUse = time.Now()
	return e.sc
}

// dropCounts removes a consumed entry.
func dropCounts(session string) {
	countCache.Lock()
	defer countCache.Unlock()
	delete(countCache.m, session)
}

// KMShardInit carries a loop shard's per-loop constants, shipped once on
// the shard's first iteration and cached in the worker session.
type KMShardInit struct {
	// Vectors and Norms are the shard's documents and their squared norms.
	Vectors []sparse.Vector
	Norms   []float64
	// Dim is the dense dimensionality, K the cluster count.
	Dim, K int
	// WantDists makes the worker track and return per-document distances
	// (the coordinator's ReseedFarthest policy needs them).
	WantDists bool
	// Block is the coordinator's resolved blocked-kernel lane width
	// (kmeans.Clusterer.BlockWidth; 0 = scalar, else 4 or 8). It never
	// affects results — any width is bit-identical — it only keeps the
	// kernel shape consistent across backends.
	Block int
}

// validate rejects an init the session constructors or the kernels would
// panic on: a worker serves whatever arrives on its socket, and net/rpc
// does not recover, so every shape the code below indexes by is checked
// here once per session. Errors wrap flatwire.ErrMalformed.
func (in *KMShardInit) validate() error {
	switch {
	case in.K < 1:
		return fmt.Errorf("%w: loop shard init has k=%d", flatwire.ErrMalformed, in.K)
	case in.Dim < 0:
		return fmt.Errorf("%w: loop shard init has dimension %d", flatwire.ErrMalformed, in.Dim)
	case in.Block != 0 && in.Block != 4 && in.Block != 8:
		return fmt.Errorf("%w: loop shard init has block width %d", flatwire.ErrMalformed, in.Block)
	case len(in.Norms) != len(in.Vectors):
		return fmt.Errorf("%w: loop shard init has %d norms for %d documents",
			flatwire.ErrMalformed, len(in.Norms), len(in.Vectors))
	}
	for i := range in.Vectors {
		v := &in.Vectors[i]
		if len(v.Idx) != len(v.Val) {
			return fmt.Errorf("%w: loop shard init document %d has %d indices for %d values",
				flatwire.ErrMalformed, i, len(v.Idx), len(v.Val))
		}
		for _, ix := range v.Idx {
			if int64(ix) >= int64(in.Dim) {
				return fmt.Errorf("%w: loop shard init document %d has index %d out of dimension %d",
					flatwire.ErrMalformed, i, ix, in.Dim)
			}
		}
	}
	return nil
}

// KMAssignTaskArgs are the kmeans.assign kernel arguments — one shard's
// assignment iteration.
type KMAssignTaskArgs struct {
	// Session identifies the shard's worker-side session (loop + shard).
	Session string
	// Init is present on the shard's first iteration only.
	Init *KMShardInit
	// Centroids and CNorms are the current iteration's centroids.
	Centroids [][]float64
	CNorms    []float64
	// Assign holds the shard's previous assignments (shard-local indexing),
	// so the moved count stays exact whether or not the session survived.
	Assign []int32
}

// KMAssignReply is the kmeans.assign kernel reply: exactly the state the
// coordinator's ordered per-iteration reduce needs.
type KMAssignReply struct {
	// Accum is the shard's accumulator set in wire form.
	Accum *kmeans.AccumWire
	// Assign holds the shard's new assignments.
	Assign []int32
	// Dists holds per-document distances when the init requested them.
	Dists []float64
}

// kmSession is a worker-side loop shard: the cached documents plus the
// recycled accumulator, reused across the loop's iterations.
type kmSession struct {
	mu      sync.Mutex
	docs    []sparse.Vector
	norms   []float64
	k       int
	acc     *kmeans.Accum
	dists   []float64
	layout  *sparse.BlockLayout // blocked-kernel transpose, refilled per call
	lastUse time.Time
}

// kmSessionTTL bounds how long an idle loop-shard session survives on a
// worker; sessions are evicted lazily on the next kernel call, so a
// long-running worker does not accumulate state from finished loops.
const kmSessionTTL = 10 * time.Minute

var kmSessions = struct {
	sync.Mutex
	m map[string]*kmSession
}{m: make(map[string]*kmSession)}

// kmSessionFor returns (creating if init allows) the session for one loop
// shard, evicting expired sessions on the way.
func kmSessionFor(id string, init *KMShardInit) (*kmSession, error) {
	now := time.Now()
	kmSessions.Lock()
	defer kmSessions.Unlock()
	for key, s := range kmSessions.m {
		if key != id && now.Sub(s.lastUse) > kmSessionTTL {
			delete(kmSessions.m, key)
		}
	}
	s := kmSessions.m[id]
	if s == nil {
		if init == nil {
			return nil, fmt.Errorf("loop shard session %q lost (worker restarted mid-loop?)", id)
		}
		if err := init.validate(); err != nil {
			return nil, err
		}
		s = &kmSession{
			docs:  init.Vectors,
			norms: init.Norms,
			k:     init.K,
			acc:   kmeans.NewAccumFor(init.K, init.Dim),
		}
		if init.WantDists {
			s.dists = make([]float64, len(init.Vectors))
		}
		if init.Block > 0 {
			s.layout = sparse.NewBlockLayout(init.K, init.Dim, init.Block)
		}
		kmSessions.m[id] = s
	}
	s.lastUse = now
	return s, nil
}

// runKMAssignKernel executes one loop shard's assignment iteration on the
// worker: the same kmeans.AssignRange the coordinator would run, over the
// session's cached documents.
func runKMAssignKernel(a *KMAssignTaskArgs) (*KMAssignReply, error) {
	s, err := kmSessionFor(a.Session, a.Init)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.docs)
	if len(a.Assign) != n {
		return nil, fmt.Errorf("%w: loop shard %q: %d previous assignments for %d documents",
			flatwire.ErrMalformed, a.Session, len(a.Assign), n)
	}
	for i, c := range a.Assign {
		if c < -1 || int(c) >= s.k {
			return nil, fmt.Errorf("%w: loop shard %q: document %d assigned to cluster %d of %d",
				flatwire.ErrMalformed, a.Session, i, c, s.k)
		}
	}
	if len(a.Centroids) != s.k || len(a.CNorms) != s.k {
		return nil, fmt.Errorf("%w: loop shard %q: %d centroids and %d norms for k=%d",
			flatwire.ErrMalformed, a.Session, len(a.Centroids), len(a.CNorms), s.k)
	}
	s.acc.Reset()
	if s.layout != nil {
		// Re-transpose this iteration's shipped centroids; block width never
		// changes results, so the layout is purely a work-shape choice.
		s.layout.Fill(a.Centroids)
	}
	kmeans.AssignRange(0, n, s.k, s.docs, s.norms, a.Centroids, a.CNorms, s.layout, a.Assign, s.dists, s.acc)
	return &KMAssignReply{Accum: s.acc.Wire(), Assign: a.Assign, Dists: s.dists}, nil
}

// kmAssignReplyMagic identifies a flat kmeans.assign reply buffer.
const kmAssignReplyMagic uint32 = 0x48504b41 // "HPKA"

// EncodeFlat returns the reply in flat layout: magic, the accumulator's
// flat wire form, then the assignment block and (optionally) the distance
// block. Floats travel as IEEE 754 bits; the absorbed state is
// bit-identical to the worker's.
func (r *KMAssignReply) EncodeFlat() []byte {
	b := flatwire.AppendU32(nil, kmAssignReplyMagic)
	b = r.Accum.EncodeFlat(b)
	b = flatwire.AppendU32(b, uint32(len(r.Assign)))
	b = flatwire.AppendI32s(b, r.Assign)
	if r.Dists != nil {
		b = flatwire.AppendU32(b, 1)
		b = flatwire.AppendF64s(b, r.Dists)
	} else {
		b = flatwire.AppendU32(b, 0)
	}
	return b
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
	rep := &KMAssignReply{Accum: acc}
	n := r.Count(4)
	rep.Assign = r.I32s(n)
	switch r.U32() {
	case 0:
	case 1:
		rep.Dists = r.F64s(n)
	default:
		return nil, fmt.Errorf("workflow: decode kmeans.assign reply: bad distance marker")
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("workflow: decode kmeans.assign reply: %w", err)
	}
	return rep, nil
}

// runKMAssignKernelFlat is the registered kernel: gob args in (small —
// centroids and previous assignments), flat reply out (the hot direction:
// the accumulator's sparse centroid sums every iteration).
func runKMAssignKernelFlat(body []byte) ([]byte, error) {
	var a KMAssignTaskArgs
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&a); err != nil {
		return nil, fmt.Errorf("workflow: kernel kmeans.assign: decode args: %w", err)
	}
	rep, err := runKMAssignKernel(&a)
	if err != nil {
		return nil, fmt.Errorf("workflow: kernel kmeans.assign: %w", err)
	}
	return rep.EncodeFlat(), nil
}

// KMSeedTaskArgs are the kmeans.seed kernel arguments — one seed round's
// min-distance scan over one loop shard.
type KMSeedTaskArgs struct {
	// Session identifies the shard's worker-side session — the same key the
	// assignment iterations use, so documents ship once for both.
	Session string
	// Init is present on the shard's first contact with the worker only
	// (usually the first seed round; the assignment tasks then find the
	// session warm).
	Init *KMShardInit
	// Last is the most recently chosen seed document.
	Last sparse.Vector
	// D2 is the shard's current window of the running min-distance array.
	D2 []float64
}

// kmSeedReplyMagic identifies a flat kmeans.seed reply buffer.
const kmSeedReplyMagic uint32 = 0x48505344 // "HPSD"

// runKMSeedKernel executes one seed round's scan on the worker: the same
// kmeans.SeedScanRange the coordinator's local path runs, over the
// session's cached documents — so the returned window is bit-identical to
// a local scan.
func runKMSeedKernel(a *KMSeedTaskArgs) ([]float64, error) {
	s, err := kmSessionFor(a.Session, a.Init)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(a.D2) != len(s.docs) {
		return nil, fmt.Errorf("%w: loop shard %q: %d seed distances for %d documents",
			flatwire.ErrMalformed, a.Session, len(a.D2), len(s.docs))
	}
	if len(a.Last.Idx) != len(a.Last.Val) {
		return nil, fmt.Errorf("%w: loop shard %q: seed vector has %d indices for %d values",
			flatwire.ErrMalformed, a.Session, len(a.Last.Idx), len(a.Last.Val))
	}
	kmeans.SeedScanRange(s.docs, &a.Last, a.D2)
	return a.D2, nil
}

// runKMSeedKernelFlat is the registered kernel: gob args in, flat reply out
// (magic, count, then the min-updated distance window as IEEE 754 bits).
func runKMSeedKernelFlat(body []byte) ([]byte, error) {
	var a KMSeedTaskArgs
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&a); err != nil {
		return nil, fmt.Errorf("workflow: kernel kmeans.seed: decode args: %w", err)
	}
	d2, err := runKMSeedKernel(&a)
	if err != nil {
		return nil, fmt.Errorf("workflow: kernel kmeans.seed: %w", err)
	}
	b := flatwire.AppendU32(nil, kmSeedReplyMagic)
	b = flatwire.AppendU32(b, uint32(len(d2)))
	return flatwire.AppendF64s(b, d2), nil
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
	args := CountTaskArgs{Shard: *spec, Opts: wopts}
	affinity := ""
	if pair != nil {
		args.Session = pair.countSession(idx)
		affinity = args.Session
	}
	return &RemoteTask{
		Op:       "tfidf.count",
		Args:     args,
		Affinity: affinity,
		Phase:    tfidf.PhaseInputWC,
		Codec:    "flat",
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
// pulled by resend only on the first miss per worker), the counts by
// session key when the map stage cached them on a worker — and absorbs the
// flat VectorShard reply. Shards counted locally inline their counts, as
// before.
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
	args := TransformTaskArgs{GlobalHash: g.ContentHash(), Opts: wopts}
	affinity := ""
	if pair != nil && pair.wasCounted(idx) {
		args.CountsSession = pair.countSession(idx)
		affinity = args.CountsSession
	} else {
		args.Counts = sc.Wire(false)
	}
	return &RemoteTask{
		Op:       "tfidf.transform",
		Args:     args,
		Affinity: affinity,
		Phase:    tfidf.PhaseTransform,
		Codec:    "flat",
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
				resend := args
				if flags&needGlobalFlag != 0 {
					resend.GlobalFlat = g.Wire().EncodeFlat(nil)
					globalReships.Add(1)
				}
				if flags&needCountsFlag != 0 {
					resend.Counts = sc.Wire(false)
					resend.CountsSession = ""
				}
				return nil, &needResend{Args: resend}
			}
			vs, err := tfidf.DecodeFlatVectorShard(body[8:])
			if err != nil {
				return nil, fmt.Errorf("workflow: tfidf.transform reply: %w", err)
			}
			return vs, nil
		},
	}, true
}
