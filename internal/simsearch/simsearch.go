// Package simsearch implements cosine top-k document retrieval over
// TF/IDF vector collections using an inverted index. It is the third
// classic text-analytics operator (after vectorization and clustering),
// included to demonstrate that the library's substrates — sparse vectors,
// the parallel pool, deterministic reductions — compose into operators
// beyond the two the paper evaluates, and to give the workflow engine a
// realistic read-side consumer of the TF/IDF intermediate.
//
// # Pruning
//
// TopK is exact MaxScore: it reads only the postings that can change the
// answer, and returns the bits an exhaustive scan returns. Build stores,
// per term t, maxW[t], the largest w/‖d‖ over t's postings, so a query
// term of weight qw adds at most qw·maxW[t]/‖q‖ to any document's cosine:
// the term's bound. A query runs in three phases.
//
//  1. Essential, term at a time. Terms go highest bound first; their
//     postings add into per-document partial dot products. Once k touched
//     documents' partial cosines exceed the sum of the remaining terms'
//     bounds, no untouched document can enter the top k; the remaining
//     terms become non-essential, and θ, the k-th largest of those
//     partials, is a floor under the k-th best score.
//  2. Completion, term at a time over the candidates: the touched
//     documents whose partial cosine plus the remaining bound reaches θ.
//     Each non-essential term, highest bound first, is probed for every
//     candidate through one forward-only cursor, and a candidate whose
//     bound falls below θ leaves. The survivors' full cosines raise θ.
//  3. Exact. Each survivor that can still reach θ is rescored as the left
//     fold, from 0 and in the query's term order, of qw·w over its terms:
//     the sum sparse.Dot computes for BruteForceTopK, which an exhaustive
//     accumulation computes too. Survivors rank by score, then document.
//
// Pruning therefore decides only which documents are rescored, never a
// score's bits: whatever order the first two phases added things in, a
// returned score is the canonical fold divided by ‖q‖·‖d‖.
//
// # Soundness
//
// A document is dropped only when k other documents provably score
// strictly higher than it, so a tie at the k-th score is never dropped,
// and every member of the true top k is rescored. The proof needs every
// weight non-negative: Build rejects negative and non-finite document
// weights, and a query with any weight that is negative, non-finite or
// outside the range below skips nothing (nor does an index holding a
// weight outside that range). When in doubt, TopK does the work.
//
// The bounds and estimates are rounded, so each skip is charged a
// relative margin M = (q+3)·2⁻⁵⁰ for a query of q scored terms: a bound
// must be below θ·(1−M), not merely below θ. Derivation, with u = 2⁻⁵³:
// nonzero weights lie in [2⁻¹⁰⁰, 2¹⁰⁰], so every product of two weights
// lies in [2⁻²⁰⁰, 2²⁰⁰], every norm in [2⁻¹⁰⁰, 2¹¹⁶], every ‖q‖·‖d‖ in
// [2⁻²⁰⁰, 2²³²] and every nonzero cosine, bound or θ above 2⁻⁴³²; no
// result under- or overflows, and every rounding is a factor 1+δ,
// |δ| ≤ u. Let c be a cosine in exact arithmetic, with ‖q‖ and ‖d‖ the
// stored floats. Each compared number — the canonical score, a partial or
// full estimate fl(sum / fl(‖q‖·‖d‖)), a sum of bounds fl(fl(qw·maxW)/‖q‖),
// an estimate plus such a sum, and that sum scaled back by fl(‖q‖·‖d‖) —
// is a sum of non-negative terms, each through at most q+5 roundings, so
// it lies within a factor 1±ε, ε = γ(q+5) = (q+5)u/(1−(q+5)u), of the same
// expression in exact arithmetic, where an estimate never exceeds c and
// a bound never falls below it. θ·(1−M), scaled or not, takes at most
// three more roundings. Let θ be the k-th largest of k documents'
// estimates: each of them scores at least θ(1−ε)/(1+ε), and a document
// whose bound is below the rounded θ·(1−M) scores below
// θ(1−M)(1+u)³(1+ε)/(1−ε). The second is below the first when
// (1−M)(1+u)³ ≤ (1−ε)²/(1+ε)², which holds for M ≥ 4ε+3.01u, and
// 4ε+3.01u ≤ (4.04q+23.3)u ≤ (8q+24)u = (q+3)·2⁻⁵⁰.
package simsearch

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync/atomic"

	"hpa/internal/par"
	"hpa/internal/sparse"
)

// Nonzero weights inside [weightMin, weightMax] are the ones TopK's
// rounding margin covers (see the package comment). TF/IDF weights are
// many orders of magnitude inside.
const (
	weightMin = 0x1p-100
	weightMax = 0x1p100
)

// Index is an immutable inverted index: for every term, the documents
// containing it with their weights, ordered by document ID. Queries are
// served without locks.
type Index struct {
	// postingsDoc[t] lists the documents containing term t in increasing
	// document order; postingsW[t] the matching weights.
	postingsDoc [][]uint32
	postingsW   [][]float64
	// maxW[t] is the largest w/‖d‖ over term t's postings: a query weight
	// qw on t adds at most qw·maxW[t]/‖q‖ to a document's cosine.
	maxW []float64
	// norms holds each document's Euclidean norm for cosine scoring.
	norms []float64
	nDocs int
	// inRange: every nonzero weight lies in [weightMin, weightMax], so
	// TopK may prune.
	inRange bool
}

// Build constructs the index from document vectors of dimensionality dim.
// Weights must be finite and non-negative; Build names the first document
// and term that break this. Construction parallelizes over documents
// (counting and filling) and over terms (posting ordering and bounds);
// the result is deterministic regardless of worker count. Pass nil to
// build sequentially.
func Build(vectors []sparse.Vector, dim int, pool *par.Pool) (*Index, error) {
	for i := range vectors {
		if d := vectors[i].Dim(); d > dim {
			return nil, fmt.Errorf("simsearch: document %d has dimension %d > %d", i, d, dim)
		}
	}
	ix := &Index{
		postingsDoc: make([][]uint32, dim),
		postingsW:   make([][]float64, dim),
		maxW:        make([]float64, dim),
		norms:       make([]float64, len(vectors)),
		nDocs:       len(vectors),
	}

	// Pass 1: norms, posting lengths (atomic counters; contention is
	// amortized by the Zipf skew being spread over the whole vocabulary)
	// and the weight checks.
	lengths := make([]atomic.Int32, dim)
	var invalid, outOfRange atomic.Bool
	forDocs(pool, len(vectors), func(i int) {
		v := &vectors[i]
		ix.norms[i] = v.Norm()
		for j, t := range v.Idx {
			lengths[t].Add(1)
			if w := v.Val[j]; !validWeight(w) {
				invalid.Store(true)
			} else if w != 0 && (w < weightMin || w > weightMax) {
				outOfRange.Store(true)
			}
		}
	})
	if invalid.Load() {
		return nil, invalidWeight(vectors)
	}
	ix.inRange = !outOfRange.Load()

	// Allocate postings at final length; pass 2 writes by slot only, so no
	// slice headers are mutated concurrently.
	forTerms(pool, dim, func(t int) {
		if n := lengths[t].Load(); n > 0 {
			ix.postingsDoc[t] = make([]uint32, n)
			ix.postingsW[t] = make([]float64, n)
		}
	})

	// Pass 2: fill under per-term atomic cursors. Slot assignment across
	// workers is nondeterministic; pass 3 canonicalizes.
	cursors := make([]atomic.Int32, dim)
	forDocs(pool, len(vectors), func(i int) {
		v := &vectors[i]
		for j, t := range v.Idx {
			slot := cursors[t].Add(1) - 1
			ix.postingsDoc[t][slot] = uint32(i)
			ix.postingsW[t][slot] = v.Val[j]
		}
	})

	// Pass 3: order every posting by document ID (deterministic result),
	// then take the term's bound, a maximum, so independent of order too.
	forTerms(pool, dim, func(t int) {
		docs, ws := ix.postingsDoc[t], ix.postingsW[t]
		sortPosting(docs, ws)
		m := 0.0
		for j, d := range docs {
			if ws[j] > 0 {
				m = max(m, ws[j]/ix.norms[d])
			}
		}
		ix.maxW[t] = m
	})
	return ix, nil
}

// validWeight reports whether w is a weight the bounds can cover: finite
// and non-negative (NaN fails both comparisons).
func validWeight(w float64) bool { return w >= 0 && w <= math.MaxFloat64 }

// invalidWeight names the first document and term whose weight is not
// valid.
func invalidWeight(vectors []sparse.Vector) error {
	for i := range vectors {
		for j, w := range vectors[i].Val {
			if !validWeight(w) {
				return fmt.Errorf("simsearch: document %d term %d has weight %v; weights must be finite and non-negative", i, vectors[i].Idx[j], w)
			}
		}
	}
	return nil
}

// forDocs/forTerms run the body in parallel when a pool is given.
func forDocs(pool *par.Pool, n int, body func(i int)) {
	if pool == nil {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	pool.For(0, n, 0, body)
}

func forTerms(pool *par.Pool, n int, body func(t int)) { forDocs(pool, n, body) }

func sortPosting(docs []uint32, w []float64) {
	sort.Sort(&postingSort{docs, w})
}

type postingSort struct {
	docs []uint32
	w    []float64
}

func (p *postingSort) Len() int           { return len(p.docs) }
func (p *postingSort) Less(i, j int) bool { return p.docs[i] < p.docs[j] }
func (p *postingSort) Swap(i, j int) {
	p.docs[i], p.docs[j] = p.docs[j], p.docs[i]
	p.w[i], p.w[j] = p.w[j], p.w[i]
}

// NumDocs returns the indexed document count.
func (ix *Index) NumDocs() int { return ix.nDocs }

// Dim returns the vocabulary size.
func (ix *Index) Dim() int { return len(ix.postingsDoc) }

// MemBytes estimates the resident size of the index's payload arrays
// (postings, weights, term bounds, norms) in bytes — slice headers and
// the struct itself are ignored. Exact for the data that dominates.
func (ix *Index) MemBytes() int64 {
	n := int64(len(ix.norms))*8 + int64(len(ix.maxW))*8
	for t := range ix.postingsDoc {
		n += int64(len(ix.postingsDoc[t]))*4 + int64(len(ix.postingsW[t]))*8
	}
	return n
}

// PostingLen returns the document frequency of term t.
func (ix *Index) PostingLen(t uint32) int {
	if int(t) >= len(ix.postingsDoc) {
		return 0
	}
	return len(ix.postingsDoc[t])
}

// Match is one search result.
type Match struct {
	// Doc is the document index.
	Doc int
	// Score is the cosine similarity in [−1, 1] (non-negative for TF/IDF
	// weights).
	Score float64
}

// Searcher holds reusable per-query scratch so repeated queries do not
// allocate. A Searcher is not safe for concurrent use; create one per
// goroutine (they share the index).
type Searcher struct {
	ix *Index
	// scores and touched hold the partial dot products and the bitmap of
	// documents that have one; both are all zero between calls.
	scores  []float64
	touched []uint64
	terms   []queryTerm // the query's scored terms, highest bound first
	byQuery []int32     // indexes into terms, in query order
	rest    []float64   // rest[j]: sum of the bounds of terms[j:]
	heap    []float64   // min-heap of the k largest estimates
	cands   []candidate // completion's candidates, ascending
	work    int         // postings scanned plus probes, for Work
}

// queryTerm is one scored query term with its posting list.
type queryTerm struct {
	qw, bound float64
	docs      []uint32
	ws        []float64
	pos       int32 // position in the query
}

// candidate is a document the completion phase tracks: sc is its partial
// dot product, then its full cosine estimate, then, in the exact phase,
// its canonical dot product; den is ‖q‖·‖d‖.
type candidate struct {
	doc     uint32
	sc, den float64
}

// NewSearcher creates a searcher over the index.
func NewSearcher(ix *Index) *Searcher {
	return &Searcher{
		ix:      ix,
		scores:  make([]float64, ix.nDocs),
		touched: make([]uint64, (ix.nDocs+63)/64),
	}
}

// Work returns the postings scanned plus the postings probed by the last
// TopK call: the retrieval work pruning saves, as a count.
func (s *Searcher) Work() int { return s.work }

// TopK returns the k most cosine-similar documents to the query, best
// first; ties break toward the lower document index. Every score is the
// bits BruteForceTopK computes. Query terms outside the index vocabulary
// contribute nothing. Zero-norm queries, and queries that match no
// document, return nil. Once the scratch has grown, the result is the
// call's only allocation.
//
// TopK is exact MaxScore (the package comment has the phases and the
// proofs): it scans postings, highest-bound term first, until the k-th
// best partial cosine exceeds what the remaining terms could add; probes
// the remaining terms only for the documents that can still reach that
// floor; and rescores every survivor as the canonical fold, from 0 in
// query term order, which is why the bits equal BruteForceTopK's. Every
// skip needs its bound strictly below θ·(1−(q+3)·2⁻⁵⁰), a margin that
// covers the rounding of bounds and estimates; a query with a weight
// the margin does not cover skips nothing.
func (s *Searcher) TopK(query *sparse.Vector, k int) []Match {
	s.work = 0
	if k <= 0 {
		return nil
	}
	qn := query.Norm()
	if qn == 0 {
		return nil
	}
	ix := s.ix
	// A zero query weight adds ±0 to a sum that is never −0, which leaves
	// its bits alone, so such terms are not scored. The insertion sort
	// (sort.Slice allocates) is stable, so equal bounds keep query order:
	// ascending term ID.
	prune := ix.inRange
	s.terms = s.terms[:0]
	for i, t := range query.Idx {
		qw := query.Val[i]
		if int(t) >= len(ix.postingsDoc) || len(ix.postingsDoc[t]) == 0 || qw == 0 {
			continue
		}
		if !(qw >= weightMin && qw <= weightMax) {
			prune = false
		}
		s.terms = append(s.terms, queryTerm{
			qw: qw, bound: qw * ix.maxW[t] / qn,
			docs: ix.postingsDoc[t], ws: ix.postingsW[t], pos: int32(len(s.terms)),
		})
		for j := len(s.terms) - 1; j > 0 && s.terms[j].bound > s.terms[j-1].bound; j-- {
			s.terms[j], s.terms[j-1] = s.terms[j-1], s.terms[j]
		}
	}
	nt := len(s.terms)
	if nt == 0 {
		return nil
	}
	if cap(s.rest) <= nt {
		s.rest = make([]float64, nt+1)
		s.byQuery = make([]int32, nt)
	}
	s.rest, s.byQuery = s.rest[:nt+1], s.byQuery[:nt]
	s.rest[nt] = 0
	for j := nt - 1; j >= 0; j-- {
		s.rest[j] = s.rest[j+1] + s.terms[j].bound
		s.byQuery[s.terms[j].pos] = int32(j)
	}
	k = min(k, ix.nDocs)
	// A bound must be below cut = θ·(1−M) to skip; without pruning θ stays
	// −∞ and nothing is below it.
	f := 1 - float64(float64(nt+3)*0x1p-50)
	theta := math.Inf(-1)

	// Essential phase. Checking whether to stop walks every touched
	// document, so it waits until the postings scanned since the last
	// check reach twice the touched count, and until the scanned terms
	// could lift a partial past the rest (no partial exceeds the sum of
	// their bounds). Stopping later scans cheap sequential postings where
	// the completion would probe many candidates: on 60-word queries over
	// a 7 000-document index, checking at half the touched count left them
	// no faster than scanning every posting.
	e := nt
	since, touched := 0, 0
	for j := range s.terms {
		t := &s.terms[j]
		s.accumulate(t)
		since += len(t.docs)
		if !prune || j+1 == nt || since < 2*touched || s.rest[0]-s.rest[j+1] <= s.rest[j+1] {
			continue
		}
		since = 0
		theta, touched = s.kthPartial(qn, k)
		if s.rest[j+1] < theta*f {
			e = j + 1
			break
		}
	}

	// Completion phase. The gather clears the scratch; it and each pass
	// compact without a branch, because whether a candidate stays is data
	// the predictor cannot learn, and the bound tests are scaled by
	// ‖q‖·‖d‖ rather than divided. One term's probes walk its postings
	// forward once, near-sequentially while candidates are dense.
	n := 0
	for _, word := range s.touched {
		n += bits.OnesCount64(word)
	}
	if cap(s.cands) < n {
		s.cands = make([]candidate, n)
	}
	cs := s.cands[:n]
	cut := theta * f
	n = 0
	for wi, word := range s.touched {
		if word == 0 {
			continue
		}
		s.touched[wi] = 0
		for ; word != 0; word &= word - 1 {
			d := uint32(wi<<6 | bits.TrailingZeros64(word))
			c := candidate{doc: d, sc: s.scores[d], den: qn * ix.norms[d]}
			s.scores[d] = 0
			cs[n] = c
			// A zero-norm document ranks nowhere, as in BruteForceTopK.
			n += b2i(ix.norms[d] != 0) & b2i(!(c.sc+float64(s.rest[e]*c.den) < cut*c.den))
		}
	}
	for j := e; j < nt; j++ {
		t := &s.terms[j]
		last := len(t.docs) - 1
		at, m := 0, 0
		for _, c := range cs[:n] {
			at = seek(t.docs, at, c.doc)
			// A miss adds qw·0 = +0: prune implies qw is finite.
			p := min(at, last)
			hit := b2i(at == p) & b2i(t.docs[p] == c.doc)
			c.sc += float64(t.qw * (t.ws[p] * float64(hit)))
			cs[m] = c
			m += b2i(!(c.sc+float64(s.rest[j+1]*c.den) < cut*c.den))
		}
		s.work += n
		n = m
	}
	// The survivors' full estimates set θ for the exact phase.
	s.heap = s.heap[:0]
	for i := range cs[:n] {
		cs[i].sc /= cs[i].den
		if prune {
			theta = s.admit(cs[i].sc, k, theta)
		}
	}
	cut = theta * f
	cs = cs[:n]

	// Exact phase: the canonical fold for every survivor that can still
	// reach θ, ranked with less. Term-major, so each posting list is
	// walked once by one cursor; every survivor's sum still adds its
	// terms in query order.
	live := cs[:0]
	for _, c := range cs {
		if !(c.sc < cut) {
			live = append(live, candidate{doc: c.doc})
		}
	}
	for _, j := range s.byQuery {
		t := &s.terms[j]
		at := 0
		for i := range live {
			c := &live[i]
			at = seek(t.docs, at, c.doc)
			if at < len(t.docs) && t.docs[at] == c.doc {
				c.sc += float64(t.qw * t.ws[at])
			}
		}
		s.work += len(live)
	}
	var out []Match
	for _, c := range live {
		dot := c.sc
		if dot == 0 {
			continue
		}
		if out == nil {
			out = make([]Match, 0, min(k, len(live)))
		}
		m := Match{Doc: int(c.doc), Score: dot / (qn * ix.norms[c.doc])}
		pos := len(out)
		for pos > 0 && less(out[pos-1], m) {
			pos--
		}
		if pos == len(out) {
			if len(out) < k {
				out = append(out, m)
			}
			continue
		}
		if len(out) < k {
			out = append(out, Match{})
		}
		copy(out[pos+1:], out[pos:len(out)-1])
		out[pos] = m
	}
	return out
}

// accumulate adds a term's postings into the partial dot products and
// marks their documents touched. Setting the bit unconditionally keeps
// the loop free of a data-dependent branch.
func (s *Searcher) accumulate(t *queryTerm) {
	ws := t.ws[:len(t.docs)]
	for i, d := range t.docs {
		s.scores[d] += float64(t.qw * ws[i])
		s.touched[d>>6] |= 1 << (d & 63)
	}
	s.work += len(t.docs)
}

// kthPartial returns the k-th largest positive partial cosine over the
// touched documents (−∞ while fewer than k are positive) and the number
// of touched documents. A document whose partial dot product is no more
// than the heap's floor times its ‖q‖·‖d‖ is passed over without a
// division: missing one that rounding would have admitted only lowers θ,
// which is always safe.
func (s *Searcher) kthPartial(qn float64, k int) (float64, int) {
	s.heap = s.heap[:0]
	theta, n := math.Inf(-1), 0
	bar := 0.0
	for wi, word := range s.touched {
		n += bits.OnesCount64(word)
		for ; word != 0; word &= word - 1 {
			d := wi<<6 | bits.TrailingZeros64(word)
			sc, nd := s.scores[d], s.ix.norms[d]
			if sc <= bar*nd || nd == 0 {
				continue
			}
			theta = s.admit(sc/(qn*nd), k, theta)
			bar = max(theta, 0) * qn
		}
	}
	return theta, n
}

// admit offers one document's estimate to the min-heap of the k largest
// and returns θ, raised to the heap's minimum once the heap holds k. Only
// positive estimates count: a document whose score is 0 ranks nowhere,
// so it cannot be one of the k that push another document out.
func (s *Searcher) admit(est float64, k int, theta float64) float64 {
	h := s.heap
	switch {
	case !(est > 0):
		return theta
	case len(h) < k:
		h = append(h, est)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[p] <= h[i] {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
		s.heap = h
		if len(h) < k {
			return theta
		}
	case est > h[0]:
		h[0] = est
		for i := 0; ; {
			c := 2*i + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && h[c+1] < h[c] {
				c++
			}
			if h[i] <= h[c] {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	default:
		return theta
	}
	return max(theta, h[0])
}

// b2i is 1 for true and 0 for false; it compiles to a flag set, not a
// branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// seek returns the first position at or after from whose document is at
// least d, or len(docs). It first counts the next eight documents below d
// — a cursor advancing through ascending documents usually stops inside
// them — then gallops, steps 1, 2, 4, …, and bisects, so a long jump
// costs O(log gap). The count and the bisection take no data-dependent
// branch.
func seek(docs []uint32, from int, d uint32) int {
	if from+8 <= len(docs) {
		c := 0
		for _, x := range (*[8]uint32)(docs[from : from+8]) {
			c += b2i(x < d)
		}
		if c < 8 {
			return from + c // sorted, so the documents below d are a prefix
		}
		from += 8
	}
	if from >= len(docs) || docs[from] >= d {
		return from
	}
	// docs[lo] < d, and the answer lies in (lo, lo+n].
	lo, step := from, 1
	for lo+step < len(docs) && docs[lo+step] < d {
		lo += step
		step <<= 1
	}
	n := min(step, len(docs)-lo)
	for n > 1 {
		half := n >> 1
		lo += half & -b2i(docs[lo+half] < d)
		n -= half
	}
	return lo + 1
}

// less orders matches: higher score first, lower doc index on ties.
func less(a, b Match) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Doc > b.Doc
}

// BruteForceTopK computes the same result by scanning every document —
// O(n·nnz); used by tests and as a baseline for the index's benefit.
func BruteForceTopK(vectors []sparse.Vector, query *sparse.Vector, k int) []Match {
	qn := query.Norm()
	if qn == 0 || k <= 0 {
		return nil
	}
	var ms []Match
	for i := range vectors {
		dn := vectors[i].Norm()
		if dn == 0 {
			continue
		}
		dot := sparse.Dot(&vectors[i], query)
		if dot == 0 {
			continue
		}
		ms = append(ms, Match{Doc: i, Score: dot / (qn * dn)})
	}
	sort.Slice(ms, func(a, b int) bool { return less(ms[b], ms[a]) })
	if k < len(ms) {
		ms = ms[:k]
	}
	return ms
}
