package tfidf

import (
	"fmt"

	"hpa/internal/sparse"
	"hpa/internal/text"
)

// QueryVocab is the resident query-side view of a TF/IDF Result: the term
// table (word → ID, DF) flattened into one read-only map plus what scoring
// needs (document count, the per-term IDF table corpus scoring reads) and
// the tokenizer configuration the corpus was vectorized with. It is immutable after
// construction and safe for concurrent lookups from any number of
// goroutines — the serving hot path reads it without locks.
//
// A QueryVocab answers the question a resident index must answer without
// re-running the corpus: "what vector would this query text have received
// had it been a document?" — tokens pass through the same tokenizer
// (stopwords, minimum length, stemming), resolve against the same term IDs
// and are weighted tf·idf from a table built by the same idfTable as
// scoreDoc's, so a query equal to a corpus document vectorizes
// bit-identically to that document's corpus vector.
type QueryVocab struct {
	terms     map[string]TermInfo
	idf       []float64
	numDocs   int
	dim       int
	normalize bool
	// tokenizer template; vectorizers copy it so the scratch buffer is
	// never shared.
	tk text.Tokenizer
}

// NewQueryVocab builds the resident vocabulary from a TF/IDF result and
// the options the corpus was processed with (only the tokenizer and
// Normalize fields are consulted). The Result's Terms/DF slices are
// referenced, not copied; they are immutable by convention.
func NewQueryVocab(r *Result, opts Options) (*QueryVocab, error) {
	if r == nil {
		return nil, fmt.Errorf("tfidf: nil result")
	}
	if len(r.Terms) != len(r.DF) {
		return nil, fmt.Errorf("tfidf: result has %d terms but %d document frequencies", len(r.Terms), len(r.DF))
	}
	if r.NumDocs <= 0 {
		return nil, fmt.Errorf("tfidf: result has no documents")
	}
	v := &QueryVocab{
		terms:     make(map[string]TermInfo, len(r.Terms)),
		idf:       idfTable(r.DF, r.NumDocs),
		numDocs:   r.NumDocs,
		dim:       len(r.Terms),
		normalize: opts.Normalize,
		tk: text.Tokenizer{
			MinLen:    opts.MinWordLen,
			Stopwords: opts.Stopwords,
			Stem:      opts.Stem,
		},
	}
	for id, word := range r.Terms {
		v.terms[word] = TermInfo{DF: r.DF[id], ID: uint32(id)}
	}
	return v, nil
}

// Dim returns the vocabulary size (query vector dimensionality).
func (v *QueryVocab) Dim() int { return v.dim }

// NumDocs returns the corpus size the IDF weights were computed over.
func (v *QueryVocab) NumDocs() int { return v.numDocs }

// Lookup resolves a word to its term info.
func (v *QueryVocab) Lookup(word string) (TermInfo, bool) {
	info, ok := v.terms[word]
	return info, ok
}

// NewVectorizer returns a query vectorizer over the vocabulary. A
// vectorizer owns reusable scratch and is not safe for concurrent use;
// create one per goroutine (they share the vocabulary).
func (v *QueryVocab) NewVectorizer() *QueryVectorizer {
	return &QueryVectorizer{v: v, tk: v.tk}
}

// QueryVectorizer turns query text into a sparse TF/IDF vector against a
// resident QueryVocab without touching the corpus. Repeated calls do not
// allocate beyond the output vector's growth.
type QueryVectorizer struct {
	v   *QueryVocab
	tk  text.Tokenizer
	b   sparse.Builder
	tfs sparse.Vector
}

// Vectorize tokenizes query text through the vocabulary's tokenizer,
// resolves each token against the resident term table (unknown words
// contribute nothing) and fills out with tf·idf weights — idf read from
// the same per-term table as corpus scoring, unit-normalized when the
// corpus was. The result is bit-identical to the corpus vector the
// same text would have produced as a document.
func (q *QueryVectorizer) Vectorize(query []byte, out *sparse.Vector) {
	q.b.Reset()
	q.tk.Tokens(query, func(tok []byte) {
		if info, ok := q.v.terms[string(tok)]; ok {
			q.b.Add(info.ID, 1)
		}
	})
	// tfs holds integer term frequencies sorted by term ID; summing ones is
	// exact, so the tf each term sees equals the corpus path's uint32 count.
	q.b.Build(&q.tfs)
	out.Reset()
	for i, id := range q.tfs.Idx {
		if w := q.tfs.Val[i] * q.v.idf[id]; w != 0 {
			out.Append(id, w)
		}
	}
	if q.v.normalize {
		out.Normalize()
	}
}
