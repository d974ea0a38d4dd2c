// Package simsearch implements cosine top-k document retrieval over
// TF/IDF vector collections using an inverted index. It is the third
// classic text-analytics operator (after vectorization and clustering),
// included to demonstrate that the library's substrates — sparse vectors,
// the parallel pool, deterministic reductions — compose into operators
// beyond the two the paper evaluates, and to give the workflow engine a
// realistic read-side consumer of the TF/IDF intermediate.
package simsearch

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"hpa/internal/par"
	"hpa/internal/sparse"
)

// Index is an immutable inverted index: for every term, the documents
// containing it with their weights, ordered by document ID. Queries are
// served without locks.
type Index struct {
	// postingsDoc[t] lists the documents containing term t in increasing
	// document order; postingsW[t] the matching weights.
	postingsDoc [][]uint32
	postingsW   [][]float64
	// norms holds each document's Euclidean norm for cosine scoring.
	norms []float64
	nDocs int
}

// Build constructs the index from document vectors of dimensionality dim.
// Construction parallelizes over documents (counting and filling) and over
// terms (posting ordering); the result is deterministic regardless of
// worker count. Pass nil to build sequentially.
func Build(vectors []sparse.Vector, dim int, pool *par.Pool) (*Index, error) {
	for i := range vectors {
		if d := vectors[i].Dim(); d > dim {
			return nil, fmt.Errorf("simsearch: document %d has dimension %d > %d", i, d, dim)
		}
	}
	ix := &Index{
		postingsDoc: make([][]uint32, dim),
		postingsW:   make([][]float64, dim),
		norms:       make([]float64, len(vectors)),
		nDocs:       len(vectors),
	}

	// Pass 1: posting lengths (atomic counters; contention is amortized by
	// the Zipf skew being spread over the whole vocabulary).
	lengths := make([]atomic.Int32, dim)
	forDocs(pool, len(vectors), func(i int) {
		ix.norms[i] = vectors[i].Norm()
		for _, t := range vectors[i].Idx {
			lengths[t].Add(1)
		}
	})

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

	// Pass 3: order every posting by document ID (deterministic result).
	forTerms(pool, dim, func(t int) {
		sortPosting(ix.postingsDoc[t], ix.postingsW[t])
	})
	return ix, nil
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
// (postings, weights, norms) in bytes — slice headers and the struct
// itself are ignored. Exact for the data that dominates.
func (ix *Index) MemBytes() int64 {
	n := int64(len(ix.norms)) * 8
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
	ix      *Index
	scores  []float64
	touched []int32
}

// NewSearcher creates a searcher over the index.
func NewSearcher(ix *Index) *Searcher {
	return &Searcher{ix: ix, scores: make([]float64, ix.nDocs)}
}

// TopK returns the k most cosine-similar documents to the query, best
// first; ties break toward the lower document index. Query terms outside
// the index vocabulary contribute nothing. Zero-norm queries return nil.
func (s *Searcher) TopK(query *sparse.Vector, k int) []Match {
	if k <= 0 {
		return nil
	}
	qn := query.Norm()
	if qn == 0 {
		return nil
	}
	ix := s.ix
	// Accumulate dot products over the query terms' postings.
	for i, t := range query.Idx {
		if int(t) >= len(ix.postingsDoc) {
			continue
		}
		qw := query.Val[i]
		docs := ix.postingsDoc[t]
		ws := ix.postingsW[t]
		for j, d := range docs {
			if s.scores[d] == 0 {
				s.touched = append(s.touched, int32(d))
			}
			s.scores[d] += float64(qw * ws[j])
		}
	}
	// Select top k among touched docs with a bounded insertion list.
	if k > len(s.touched) {
		k = len(s.touched)
	}
	out := make([]Match, 0, k)
	for _, d := range s.touched {
		score := s.scores[d]
		s.scores[d] = 0 // reset scratch as we go
		if score == 0 || ix.norms[d] == 0 {
			continue
		}
		cos := score / (qn * ix.norms[d])
		m := Match{Doc: int(d), Score: cos}
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
	s.touched = s.touched[:0]
	return out
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

// cosEqual helps tests compare scores with a tolerance.
func cosEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
