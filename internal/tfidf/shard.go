package tfidf

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"hpa/internal/dict"
	"hpa/internal/par"
	"hpa/internal/pario"
	"hpa/internal/sparse"
	"hpa/internal/text"
)

// This file holds the TF/IDF kernels — the operator's only implementation.
// CountShard is the phase-1 map over one corpus shard, MergeShards is the
// reduction of the shards' sorted vocabularies into the global term table
// (the workflow's only serial point besides output), TransformShard is the
// phase-2 map, and NewResultShell/AbsorbShard assemble the final Result as
// vector shards arrive. Run drives them over one shard per pool worker; a
// partitioned plan schedules them as (node, shard) tasks.
//
// Words are strings only while they are being counted. CountShard gives
// every word of its shard a shard-local term ID and the per-document
// dictionaries record that ID beside the term frequency, so phase 2 never
// touches a string per (document, word): TransformShard resolves the
// shard's sorted vocabulary against the sorted global term table by one
// linear walk into a local → global remap and the IDF of every local term
// (Global.Resolve), and scoring a word is remap[local] and idf[local].
//
// For a fixed document set the assembled scores are bit-identical at any
// shard count: document frequencies are commutative integer sums, term IDs
// are assigned in lexicographic word order regardless of merge shape, and
// the per-document score expression is the same code over the same IDF
// table.

// DocTerm is the per-document dictionary value: how often the word occurs
// in the document, and the word's shard-local term ID (its index in
// ShardCounts.Words).
type DocTerm struct {
	TF    uint32
	Local uint32
}

// ShardCounts is the phase-1 ("input+wc") output of one corpus shard.
type ShardCounts struct {
	// Lo and Hi delimit the shard's document index range within the full
	// corpus.
	Lo, Hi int
	// DocDicts holds the per-document term-frequency dictionaries of the
	// shard, indexed by document position within the shard.
	DocDicts []dict.Map[DocTerm]
	// Words is the shard's vocabulary in ascending word order; a word's
	// index is its shard-local term ID (DocTerm.Local).
	Words []string
	// DF maps shard-local term ID to the number of the shard's documents
	// containing the word.
	DF []uint32
	// DocNames holds the shard's document names in document order.
	DocNames []string
	// Bytes is the content the shard's document reads returned — its
	// input traffic (not part of the wire form).
	Bytes int64
	// VocabStats holds the shard vocabulary dictionary's counters — the
	// term dictionary of the run's kind whose rehashes Figure 4 reports
	// (MergeShards sums them on Global). The dictionary itself dies when
	// CountShard returns; its words live on in Words.
	VocabStats dict.Stats
}

// Global is the merged term table: the reduction of every shard's
// vocabulary, with term IDs assigned in lexicographic word order. It is
// arrays only: a term's ID is its position in Terms, and a shard finds its
// words' IDs by walking its own sorted vocabulary along Terms (Resolve).
type Global struct {
	// Terms maps term ID to word; sorted, as in Result.
	Terms []string
	// DF maps term ID to corpus-wide document frequency.
	DF []uint32
	// IDF maps term ID to the word's inverse document frequency (idfTable):
	// the one evaluation of the weighting every document score multiplies
	// by.
	IDF []float64
	// NumDocs is the corpus-wide document count (the N of ln(N/df)).
	NumDocs int
	// Stats sums the shard vocabulary dictionaries' counters (rehashes for
	// Hash, rotations for the trees): every term dictionary of the run's
	// kind, each pre-sized by Options.GlobalPresize.
	Stats dict.Stats
}

// idfTable evaluates the inverse document frequency ln(N/df), as
// log N − log df, once per term. It is the only place the weighting is
// computed: corpus scoring (Global.IDF) and query vectorization
// (QueryVocab) both read a table built here, so the two cannot drift.
func idfTable(df []uint32, numDocs int) []float64 {
	logN := math.Log(float64(numDocs))
	idf := make([]float64, len(df))
	for id, n := range df {
		idf[id] = logN - math.Log(float64(n))
	}
	return idf
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
// tokenized, its term frequencies are collected in a dedicated dictionary,
// and a shard dictionary accumulates, per word, the number of shard
// documents containing it and hands out the word's shard-local term ID. No
// cross-shard state is touched — the map side of the paper's "first phase
// can be executed in parallel for each of the documents". The tail sorts
// the shard's vocabulary, which is what lets MergeShards be a merge of
// sorted lists.
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
		DocDicts: make([]dict.Map[DocTerm], n),
		DocNames: make([]string, n),
	}
	if sub, ok := src.(*pario.SubSource); ok {
		sc.Lo, sc.Hi = sub.Lo, sub.Hi
	}
	// vocab is the shard dictionary: word -> (shard DF, provisional local
	// ID in first-occurrence order).
	vocab := dict.New[TermInfo](opts.DictKind, dict.Options{Presize: opts.GlobalPresize})
	// Every strand counts into one scratch dictionary, recycled across its
	// documents so it grows to the largest of them once; the shard keeps an
	// exact-size clone per document.
	type strand struct {
		tk      text.Tokenizer
		scratch dict.Map[DocTerm]
		read    int64
	}
	strands := par.NewReducer(func() *strand {
		return &strand{
			tk:      text.Tokenizer{MinLen: opts.MinWordLen, Stopwords: opts.Stopwords, Stem: opts.Stem},
			scratch: dict.New[DocTerm](opts.DictKind, dict.Options{Presize: opts.DocPresize}),
		}
	})
	var vocabMu sync.Mutex
	// firstInDoc records a word's first occurrence in a document: its shard
	// DF is bumped and the document entry takes its provisional local ID.
	firstInDoc := func(info *TermInfo, e *DocTerm) {
		if info.DF == 0 {
			info.ID = uint32(vocab.Len() - 1)
		}
		info.DF++
		e.Local = info.ID
	}
	read := func(handler func(i int, content []byte) error) error {
		if opts.Ctx != nil {
			return pario.ReadAllContext(opts.Ctx, src, readers, handler)
		}
		return pario.ReadAll(src, readers, handler)
	}
	err := read(func(i int, content []byte) error {
		st := strands.Claim()
		st.read += int64(len(content))
		d := st.scratch
		if readers == 1 {
			// The shard dictionary is this strand's alone: a word's first
			// occurrence in the document bumps its DF there and then, under
			// the hash the tokenizer computed for the document dictionary.
			st.tk.TokensHash(content, func(tok []byte, hash uint64) {
				e := d.RefHash(tok, hash)
				if e.TF == 0 {
					firstInDoc(vocab.RefHash(tok, hash), e)
				}
				e.TF++
			})
		} else {
			// Several readers share the shard dictionary: count privately,
			// then bump DFs under a lock held once per document, not once
			// per word. vocab.Ref keeps its own copy of the word, which is
			// about to be recycled with the scratch dictionary.
			st.tk.TokensHash(content, func(tok []byte, hash uint64) {
				d.RefHash(tok, hash).TF++
			})
			vocabMu.Lock()
			d.Range(func(word string, e *DocTerm) bool {
				firstInDoc(vocab.Ref(word), e)
				return true
			})
			vocabMu.Unlock()
		}
		sc.DocDicts[i] = d.Clone(opts.DocPresize)
		d.Reset()
		sc.DocNames[i] = src.Name(i)
		strands.Release(st)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("tfidf: %w", err)
	}
	for _, st := range strands.Views() {
		sc.Bytes += st.read
	}
	if opts.Ctx != nil {
		if err := opts.Ctx.Err(); err != nil {
			return nil, fmt.Errorf("tfidf: %w", err)
		}
	}
	sc.sortVocabulary(vocab)
	sc.VocabStats = vocab.Stats()
	return sc, nil
}

// sortVocabulary renumbers the shard's provisional term IDs (first-
// occurrence order, held by vocab) to ranks in ascending word order, filling
// Words and DF and rewriting every document dictionary's Local. Words are
// vocab's own key strings; vocab is never reset, so they stay valid.
func (sc *ShardCounts) sortVocabulary(vocab dict.Map[TermInfo]) {
	words := make([]string, vocab.Len())
	df := make([]uint32, len(words))
	vocab.Range(func(word string, info *TermInfo) bool {
		words[info.ID], df[info.ID] = word, info.DF
		return true
	})
	order := sortedOrder(words)
	rank := make([]uint32, len(words))
	sc.Words = make([]string, len(words))
	sc.DF = make([]uint32, len(words))
	for r, id := range order {
		rank[id] = uint32(r)
		sc.Words[r], sc.DF[r] = words[id], df[id]
	}
	for _, d := range sc.DocDicts {
		d.Range(func(_ string, e *DocTerm) bool {
			e.Local = rank[e.Local]
			return true
		})
	}
}

// sortedOrder returns the indices of words in ascending word order. It
// sorts (first 8 bytes big-endian, index) keys by stable LSD radix passes,
// one per prefix byte, with all eight histograms counted in one pre-pass
// and any byte every key shares skipped; strings.Compare then runs only
// inside runs of equal prefix (words sharing their first 8 bytes, or
// shorter words whose zero padding ties them), so most words are ordered
// without touching string memory.
func sortedOrder(words []string) []uint32 {
	type keyed struct {
		prefix uint64
		id     uint32
	}
	n := len(words)
	keys := make([]keyed, n)
	var count [8][256]uint32
	for id, w := range words {
		var p [8]byte
		copy(p[:], w)
		prefix := binary.BigEndian.Uint64(p[:])
		keys[id] = keyed{prefix, uint32(id)}
		for d := range count {
			count[d][byte(prefix>>(8*d))]++
		}
	}
	buf := make([]keyed, n)
	for d := range count {
		c := &count[d]
		shift := 8 * d
		if n == 0 || c[byte(keys[0].prefix>>shift)] == uint32(n) {
			continue // every key has this byte
		}
		var sum uint32
		for i, k := range c {
			c[i], sum = sum, sum+k
		}
		for _, k := range keys {
			at := &c[byte(k.prefix>>shift)]
			buf[*at] = k
			*at++
		}
		keys, buf = buf, keys
	}
	order := make([]uint32, n)
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && keys[hi].prefix == keys[lo].prefix {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(keys[lo:hi], func(a, b keyed) int {
				return strings.Compare(words[a.id], words[b.id])
			})
		}
		for ; lo < hi; lo++ {
			order[lo] = keys[lo].id
		}
	}
	return order
}

// termList is a sorted vocabulary with per-word document frequencies — one
// shard's, or the merge of several.
type termList struct {
	words []string
	df    []uint32
}

// mergeTermLists merges two sorted term lists into a new one, summing the
// document frequencies of words present in both. The inputs are not
// modified.
func mergeTermLists(a, b termList) termList {
	out := termList{
		words: make([]string, 0, len(a.words)+len(b.words)),
		df:    make([]uint32, 0, len(a.words)+len(b.words)),
	}
	i, j := 0, 0
	for i < len(a.words) && j < len(b.words) {
		switch c := strings.Compare(a.words[i], b.words[j]); {
		case c < 0:
			out.words, out.df = append(out.words, a.words[i]), append(out.df, a.df[i])
			i++
		case c > 0:
			out.words, out.df = append(out.words, b.words[j]), append(out.df, b.df[j])
			j++
		default:
			out.words, out.df = append(out.words, a.words[i]), append(out.df, a.df[i]+b.df[j])
			i++
			j++
		}
	}
	out.words, out.df = append(out.words, a.words[i:]...), append(out.df, a.df[i:]...)
	out.words, out.df = append(out.words, b.words[j:]...), append(out.df, b.df[j:]...)
	return out
}

// MergeShards reduces the shards' sorted vocabularies into the global term
// table: a parallel tree of pairwise sorted-list merges (par.TreeReduce)
// whose shape depends only on shard indices, then the IDF table. The merged
// list is already in lexicographic order, so a term's position is its ID,
// independent of the shard count. The shards are not modified, and the
// options do not affect the merge. It is TF/IDF's serial section.
func MergeShards(shards []*ShardCounts, pool *par.Pool, opts Options) *Global {
	g := &Global{}
	lists := make([]termList, len(shards))
	for i, sc := range shards {
		g.NumDocs += len(sc.DocNames)
		g.Stats.Rehashes += sc.VocabStats.Rehashes
		g.Stats.Rotations += sc.VocabStats.Rotations
		g.Stats.Capacity += sc.VocabStats.Capacity
		lists[i] = termList{sc.Words, sc.DF}
	}
	merged := par.TreeReduce(pool, lists, mergeTermLists)
	g.Terms, g.DF = merged.words, merged.df
	g.IDF = idfTable(g.DF, g.NumDocs)
	return g
}

// ShardTerms is what one shard's transform reads of the global term table,
// indexed by shard-local term ID.
type ShardTerms struct {
	// Remap maps a local term ID to its global ID. It strictly ascends:
	// local and global IDs both ascend with the word.
	Remap []uint32
	// IDF holds each local term's inverse document frequency, the same
	// float64 bits as Global.IDF[Remap[local]].
	IDF []float64
	// Dim is the global vocabulary size.
	Dim int
}

// Resolve resolves a shard's vocabulary (ShardCounts.Words) against the
// table by one linear walk: both lists ascend, so every word's ID lies past
// the previous word's. Every word must be in the table — MergeShards put
// it there; a missing one panics.
func (g *Global) Resolve(words []string) *ShardTerms {
	t := &ShardTerms{Remap: make([]uint32, len(words)), IDF: make([]float64, len(words)), Dim: len(g.Terms)}
	id := 0
	for local, word := range words {
		for id < len(g.Terms) && g.Terms[id] != word {
			id++
		}
		if id == len(g.Terms) {
			panic("tfidf: shard word missing from the global term table")
		}
		t.Remap[local], t.IDF[local] = uint32(id), g.IDF[id]
		id++
	}
	return t
}

// scoreDoc builds one document's TF/IDF vector from its term-frequency
// dictionary: every entry's shard-local term ID is remapped to the global
// ID and scored tf*idf (words present in every document score zero and
// drop out), built sorted by term ID via the distinct fast path —
// dictionaries iterating in key order (the tree kinds) arrive pre-sorted
// and skip sorting entirely, because the remap ascends.
func scoreDoc(d dict.Map[DocTerm], t *ShardTerms, normalize bool, b *sparse.Builder, out *sparse.Vector) {
	b.Reset()
	d.Range(func(_ string, e *DocTerm) bool {
		if score := float64(e.TF) * t.IDF[e.Local]; score != 0 {
			b.Add(t.Remap[e.Local], score)
		}
		return true
	})
	b.BuildDistinct(out)
	if normalize {
		out.Normalize()
	}
}

// TransformShard runs phase 2 over one shard against the global table: it
// resolves the shard's vocabulary (Resolve) and scores the shard
// (TransformTerms).
func TransformShard(g *Global, sc *ShardCounts, pool *par.Pool, opts Options) *VectorShard {
	return TransformTerms(g.Resolve(sc.Words), sc, pool, opts)
}

// TransformTerms runs phase 2 over one shard against its resolved slice of
// the term table: every document's sparse score vector, sorted by term ID.
// It is the one scoring loop, local and on a worker. t must hold one entry
// per shard-local term. The shard's per-document dictionaries are released
// afterwards; their summed footprint is recorded first.
func TransformTerms(t *ShardTerms, sc *ShardCounts, pool *par.Pool, opts Options) *VectorShard {
	n := len(sc.DocDicts)
	vs := &VectorShard{
		Lo:       sc.Lo,
		Hi:       sc.Hi,
		Dim:      t.Dim,
		Vectors:  make([]sparse.Vector, n),
		DocNames: sc.DocNames,
		Norms:    make([]float64, n),
	}
	builders := par.NewReducer(func() *sparse.Builder { return &sparse.Builder{} })
	pool.For(0, n, 0, func(i int) {
		b := builders.Claim()
		scoreDoc(sc.DocDicts[i], t, opts.Normalize, b, &vs.Vectors[i])
		vs.Norms[i] = vs.Vectors[i].NormSq()
		builders.Release(b)
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
		Terms:       g.Terms,
		DF:          g.DF,
		NumDocs:     g.NumDocs,
		Vectors:     make([]sparse.Vector, g.NumDocs),
		DocNames:    make([]string, g.NumDocs),
		GlobalStats: g.Stats,
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
