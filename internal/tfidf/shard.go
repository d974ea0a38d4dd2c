package tfidf

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"hpa/internal/dict"
	"hpa/internal/par"
	"hpa/internal/pario"
	"hpa/internal/sparse"
	"hpa/internal/text"
)

// This file holds the TF/IDF kernels — the operator's only implementation.
// CountShard is the phase-1 map over one corpus shard, MergeShards is the
// tree-merge reduction producing the global term table (the workflow's only
// serial point besides output), TransformShard is the phase-2 map, and
// NewResultShell/AbsorbShard assemble the final Result as vector shards
// arrive. Run drives them over one shard per pool worker; a partitioned
// plan schedules them as (node, shard) tasks. For a fixed document set the
// assembled scores are bit-identical at any shard count: document
// frequencies are commutative integer sums, term IDs are assigned in
// lexicographic word order regardless of merge shape, and the per-document
// score expression is the same code.

// ShardCounts is the phase-1 ("input+wc") output of one corpus shard.
type ShardCounts struct {
	// Lo and Hi delimit the shard's document index range within the full
	// corpus.
	Lo, Hi int
	// DocDicts holds the per-document term-frequency dictionaries of the
	// shard, indexed by document position within the shard.
	DocDicts []dict.Map[uint32]
	// DF is the shard-local document-frequency dictionary: for every word,
	// in how many of the shard's documents it appears. IDs are zero until
	// the global merge assigns them.
	DF dict.Map[TermInfo]
	// DocNames holds the shard's document names in document order.
	DocNames []string
}

// Global is the merged term table: the reduction of every shard's DF
// dictionary, with term IDs assigned in lexicographic word order.
type Global struct {
	// Terms maps term ID to word; sorted, as in Result.
	Terms []string
	// DF maps term ID to corpus-wide document frequency.
	DF []uint32
	// NumDocs is the corpus-wide document count (the N of ln(N/df)).
	NumDocs int
	// Lookup resolves word -> (ID, DF) during the transform phase. Its
	// dictionary kind is the run's configured kind, so Figure 4's
	// lookup-cost comparison carries over to partitioned execution.
	Lookup dict.Map[TermInfo]
	// Stats accumulates the merged dictionary's counters.
	Stats dict.Stats
	// Footprint is the merged dictionary's resident size.
	Footprint int64

	// hashOnce/hash cache the content digest (ContentHash); the table is
	// immutable once built.
	hashOnce sync.Once
	hash     uint64
}

// VectorShard is the phase-2 ("transform") output of one shard: the score
// vectors of documents [Lo, Hi).
type VectorShard struct {
	// Lo and Hi delimit the shard's document index range.
	Lo, Hi int
	// Dim is the dense dimensionality (global vocabulary size), carried so
	// consumers fed shards directly — the iterative K-Means assignment —
	// agree with the monolithic Result on the matrix shape.
	Dim int
	// Vectors holds one TF/IDF vector per shard document.
	Vectors []sparse.Vector
	// DocNames holds the shard's document names.
	DocNames []string
	// Norms holds the squared Euclidean norm of every vector, precomputed
	// here so K-Means assignment can consume shards as they arrive instead
	// of re-walking all documents up front.
	Norms []float64
	// DictFootprint sums the shard's per-document dictionary footprints,
	// measured while they are still alive.
	DictFootprint int64
}

// CountShard runs phase 1 over one shard: every document is read and
// tokenized, per-document term frequencies are collected in dedicated
// dictionaries, and the shard-local DF dictionary accumulates, per word,
// the number of shard documents containing it. No cross-shard state is
// touched — the map side of the paper's "first phase can be executed in
// parallel for each of the documents".
//
// readers bounds the shard's concurrent document reads (at least 1); the
// partitioned executor divides the pool's workers among concurrently
// running shards.
func CountShard(src pario.Source, readers int, opts Options) (*ShardCounts, error) {
	if opts.GlobalPresize <= 0 {
		opts.GlobalPresize = defaultGlobalPresize
	}
	if readers < 1 {
		readers = 1
	}
	n := src.Len()
	sc := &ShardCounts{
		Hi:       n,
		DocDicts: make([]dict.Map[uint32], n),
		DF:       dict.New[TermInfo](opts.DictKind, dict.Options{Presize: opts.GlobalPresize}),
		DocNames: make([]string, n),
	}
	if sub, ok := src.(*pario.SubSource); ok {
		sc.Lo, sc.Hi = sub.Lo, sub.Hi
	}
	rec := opts.Recorder
	strands := par.NewReducer(func() *text.Tokenizer {
		return &text.Tokenizer{MinLen: opts.MinWordLen, Stopwords: opts.Stopwords, Stem: opts.Stem}
	}, nil)
	var dfMu sync.Mutex
	read := func(handler func(i int, content []byte) error) error {
		if opts.Ctx != nil {
			return pario.ReadAllContext(opts.Ctx, src, readers, handler)
		}
		return pario.ReadAll(src, readers, handler)
	}
	err := read(func(i int, content []byte) error {
		var start time.Time
		if rec.Enabled() {
			start = time.Now()
		}
		tk := strands.Claim()
		d := dict.New[uint32](opts.DictKind, dict.Options{Presize: opts.DocPresize})
		tk.Tokens(content, func(tok []byte) {
			*d.RefBytes(tok)++
		})
		// One DF bump per distinct word of this document. With a single
		// reader the lock is uncontended; with several it is held once per
		// document, not once per word.
		dfMu.Lock()
		d.Range(func(word string, _ *uint32) bool {
			sc.DF.Ref(word).DF++
			return true
		})
		dfMu.Unlock()
		sc.DocDicts[i] = d
		sc.DocNames[i] = src.Name(i)
		strands.Release(tk)
		if rec.Enabled() {
			rec.Task(time.Since(start), int64(len(content)), true)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("tfidf: %w", err)
	}
	if opts.Ctx != nil {
		if err := opts.Ctx.Err(); err != nil {
			return nil, fmt.Errorf("tfidf: %w", err)
		}
	}
	return sc, nil
}

// MergeShards reduces the shard DF dictionaries into the global term table:
// a parallel tree-merge (par.TreeReduce) whose shape depends only on shard
// indices, followed by lexicographic ID assignment, so IDs are independent
// of the shard count. The shard dictionaries are consumed by the merge. It
// is TF/IDF's serial section, and reports itself as such to opts.Recorder.
func MergeShards(shards []*ShardCounts, pool *par.Pool, opts Options) *Global {
	rec := opts.Recorder
	var start time.Time
	if rec.Enabled() {
		start = time.Now()
	}
	g := &Global{}
	dicts := make([]dict.Map[TermInfo], 0, len(shards))
	for _, sc := range shards {
		g.NumDocs += len(sc.DocDicts)
		dicts = append(dicts, sc.DF)
	}
	var merged dict.Map[TermInfo]
	if len(dicts) == 0 {
		merged = dict.New[TermInfo](opts.DictKind, dict.Options{})
	} else {
		merged = par.TreeReduce(pool, dicts, func(a, b dict.Map[TermInfo]) dict.Map[TermInfo] {
			// Merge the smaller side into the larger: both orders sum the
			// same DF counts, and sizes are shard-count-deterministic.
			if a.Len() < b.Len() {
				a, b = b, a
			}
			b.Range(func(word string, v *TermInfo) bool {
				a.Ref(word).DF += v.DF
				return true
			})
			return a
		})
	}
	// Assign IDs in lexicographic word order, written back through the
	// dictionary so the transform phase resolves (word -> ID, DF) with one
	// lookup.
	type entry struct {
		word string
		info *TermInfo
	}
	entries := make([]entry, 0, merged.Len())
	merged.Range(func(word string, v *TermInfo) bool {
		entries = append(entries, entry{word, v})
		return true
	})
	sort.Slice(entries, func(i, j int) bool { return entries[i].word < entries[j].word })
	g.Terms = make([]string, len(entries))
	g.DF = make([]uint32, len(entries))
	for i, e := range entries {
		e.info.ID = uint32(i)
		g.Terms[i] = e.word
		g.DF[i] = e.info.DF
	}
	g.Lookup = merged
	g.Stats = merged.Stats()
	g.Footprint = merged.Footprint()
	if rec.Enabled() {
		rec.Serial(time.Since(start), 0, 0)
	}
	return g
}

// scoreDoc builds one document's TF/IDF vector from its term-frequency
// dictionary: every word resolved through the global table, scored
// tf*ln(N/df) (words present in every document score zero and drop out),
// built sorted by term ID via the distinct fast path — dictionaries
// iterating in key order (the tree kinds) arrive pre-sorted and skip
// sorting entirely.
func scoreDoc(d dict.Map[uint32], global dict.Map[TermInfo],
	logN float64, normalize bool, b *sparse.Builder, out *sparse.Vector) {
	b.Reset()
	d.Range(func(word string, tf *uint32) bool {
		info, ok := global.Get(word)
		if !ok {
			panic("tfidf: word vanished from global dictionary")
		}
		idf := logN - math.Log(float64(info.DF))
		if score := float64(*tf) * idf; score != 0 {
			b.Add(info.ID, score)
		}
		return true
	})
	b.BuildDistinct(out)
	if normalize {
		out.Normalize()
	}
}

// TransformShard runs phase 2 over one shard: every document's words are
// resolved against the global table and its sparse score vector is built,
// sorted by term ID. The shard's per-document dictionaries are released
// afterwards; their summed footprint is recorded first.
func TransformShard(g *Global, sc *ShardCounts, pool *par.Pool, opts Options) *VectorShard {
	n := len(sc.DocDicts)
	vs := &VectorShard{
		Lo:       sc.Lo,
		Hi:       sc.Hi,
		Dim:      len(g.Terms),
		Vectors:  make([]sparse.Vector, n),
		DocNames: sc.DocNames,
		Norms:    make([]float64, n),
	}
	rec := opts.Recorder
	builders := par.NewReducer(func() *sparse.Builder { return &sparse.Builder{} },
		func(b *sparse.Builder) { b.Reset() })
	logN := math.Log(float64(g.NumDocs))
	pool.For(0, n, 0, func(i int) {
		var start time.Time
		if rec.Enabled() {
			start = time.Now()
		}
		b := builders.Claim()
		scoreDoc(sc.DocDicts[i], g.Lookup, logN, opts.Normalize, b, &vs.Vectors[i])
		vs.Norms[i] = vs.Vectors[i].NormSq()
		builders.Release(b)
		if rec.Enabled() {
			rec.Task(time.Since(start), 0, false)
		}
	})
	var fp int64
	for _, d := range sc.DocDicts {
		fp += d.Footprint()
	}
	vs.DictFootprint = fp
	sc.DocDicts = nil // shard dictionaries die here
	return vs
}

// NewResultShell preallocates a Result over the global term table, ready to
// absorb vector shards.
func NewResultShell(g *Global) *Result {
	return &Result{
		Terms:         g.Terms,
		DF:            g.DF,
		NumDocs:       g.NumDocs,
		Vectors:       make([]sparse.Vector, g.NumDocs),
		DocNames:      make([]string, g.NumDocs),
		DictFootprint: g.Footprint,
		GlobalStats:   g.Stats,
	}
}

// AbsorbShard installs a vector shard into its [Lo, Hi) slot of the result
// and accumulates its dictionary footprint. Shards may be absorbed in any
// completion order; the slot is fixed by the shard's document range, so the
// assembled result is deterministic.
func (r *Result) AbsorbShard(vs *VectorShard) {
	copy(r.Vectors[vs.Lo:vs.Hi], vs.Vectors)
	copy(r.DocNames[vs.Lo:vs.Hi], vs.DocNames)
	r.DictFootprint += vs.DictFootprint
}
