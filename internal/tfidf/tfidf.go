// Package tfidf implements the paper's text-processing operator: term
// frequency-inverse document frequency over a document collection
// (Section 3.2).
//
// The implementation follows the paper's two-phase structure exactly:
//
//   - Phase 1 ("input+wc"): documents are read and tokenized in parallel;
//     per-document term frequencies are collected in dedicated dictionaries
//     (counted in a recycled scratch table under the hash the tokenizer
//     computed, kept as an exact-size copy), and a shard dictionary
//     accumulates, per word, the number of documents containing it and
//     hands the word a shard-local term ID that the per-document
//     dictionaries record. "The first phase can be executed in
//     parallel for each of the documents."
//   - Phase 2 ("transform"): the shard vocabularies are merged into the
//     global term table, a sorted array (a term's ID is its position, in
//     lexicographic word order, with one IDF per term); each shard walks
//     its sorted vocabulary along it once into a local → global remap, and
//     every document's sparse TF/IDF score vector, sorted by term ID, is
//     built from its dictionary through that remap — array indexing, no
//     string per (document, word). This phase does no dictionary lookups:
//     it only reads the per-document dictionaries it scores.
//
// The dictionary implementation (hash table vs red-black tree) is selected
// per run — the variable of the paper's Figure 4; the zero value is the
// hash table, which is what the calibrated cost model picks for this
// workflow — and the resulting scores are bit-identical across dictionary
// kinds and thread counts.
package tfidf

import (
	"context"

	"hpa/internal/dict"
	"hpa/internal/metrics"
	"hpa/internal/par"
	"hpa/internal/pario"
	"hpa/internal/sparse"
	"hpa/internal/text"
)

// Phase labels matching the legends of Figures 3 and 4.
const (
	PhaseInputWC   = "input+wc"
	PhaseTransform = "transform"
	PhaseOutput    = "tfidf-output"
)

// Options configures a TF/IDF run.
type Options struct {
	// DictKind selects the dictionary implementation for the per-document
	// tables and the shard vocabularies (Figure 4's variable). The zero
	// value is dict.Hash.
	DictKind dict.Kind
	// GlobalPresize pre-sizes the shard vocabulary dictionaries, the
	// term dictionaries that grow toward the corpus vocabulary. The paper
	// pre-sizes its unordered map "to hold 4K items", far below the final
	// vocabulary, so the hash table rehashes several times as it grows; 0
	// keeps that default.
	GlobalPresize int
	// DocPresize reserves each retained per-document dictionary for at
	// least this many items. The paper's Figure 4 hash configuration uses
	// 4096 here too, which is what makes one retained table per document
	// balloon to gigabytes. 0 keeps every table exactly as large as its
	// document needs: documents are counted in a per-strand scratch
	// dictionary (itself pre-sized to DocPresize) and the shard keeps a
	// Clone reserved for max(distinct words, DocPresize).
	DocPresize int
	// Stopwords optionally filters tokens.
	Stopwords *text.StopwordSet
	// MinWordLen drops shorter tokens.
	MinWordLen int
	// Stem applies Porter stemming to tokens, shrinking the vocabulary.
	Stem bool
	// Normalize scales each document vector to unit Euclidean norm, as the
	// paper does before clustering ("based on their normalized TF/IDF
	// scores").
	Normalize bool
	// Ctx, when non-nil, cancels the run cooperatively: phase 1 stops
	// issuing document reads once the context is done (in-flight documents
	// drain), and phase 2 is not started. Run returns the context error.
	Ctx context.Context
}

const defaultGlobalPresize = 4096

// TermInfo is the shard vocabulary dictionary's value (CountShard): how
// many of the shard's documents contain the word, and the word's
// shard-local term ID. QueryVocab reuses it for a word's global ID and
// corpus DF.
type TermInfo struct {
	DF uint32
	ID uint32
}

// Result is the operator output.
type Result struct {
	// Terms maps term ID to word; IDs are lexicographically ordered, so
	// Terms is sorted.
	Terms []string
	// DF maps term ID to document frequency.
	DF []uint32
	// NumDocs is the number of documents processed.
	NumDocs int
	// Vectors holds one sparse TF/IDF vector per document, sorted by term
	// ID (unit-normalized when Options.Normalize is set).
	Vectors []sparse.Vector
	// DocNames holds the document names in document order.
	DocNames []string
	// DictFootprint is the summed estimated footprint of every dictionary
	// alive at the end of phase 1 — the per-document dictionaries; a shard
	// vocabulary dictionary dies when its count returns — the quantity
	// behind the paper's "420 MB with the map ... 12.8 GB using the
	// unordered map".
	DictFootprint int64
	// Norms, when non-nil, holds the squared Euclidean norm of every
	// vector. The partitioned gather stage fills it shard-by-shard so
	// K-Means can skip its own norm pass (kmeans.Options.DocNorms).
	Norms []float64
	// GlobalStats sums the shard vocabulary dictionaries' internal counters
	// (rehashes for Hash, rotations for Tree): Global.Stats.
	GlobalStats dict.Stats
}

// Dim returns the vocabulary size (vector dimensionality).
func (r *Result) Dim() int { return len(r.Terms) }

// Run executes the TF/IDF operator over src on the pool's workers. It is a
// driver over the shard kernels (shard.go) — the same code a partitioned
// plan schedules, so there is one TF/IDF implementation: the corpus is
// carved into one contiguous shard per worker, every shard is counted
// concurrently (CountShard), the shard tables are merged into the global
// term table (MergeShards, the serial section), and every shard is
// transformed on the whole pool (TransformShard) and installed in its slot
// of the result. Phase durations are accumulated into bd (which may be nil).
func Run(src pario.Source, pool *par.Pool, opts Options, bd *metrics.Breakdown) (*Result, error) {
	if bd == nil {
		bd = metrics.NewBreakdown()
	}
	shards := pool.Workers()
	counts := make([]*ShardCounts, shards)
	errs := make([]error, shards)
	bd.Time(PhaseInputWC, func() {
		pool.For(0, shards, 1, func(p int) {
			counts[p], errs[p] = CountShard(pario.Partition(src, shards, p), 1, opts)
		})
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	var res *Result
	bd.Time(PhaseTransform, func() {
		g := MergeShards(counts, pool, opts)
		res = NewResultShell(g)
		for _, sc := range counts {
			res.AbsorbShard(TransformShard(g, sc, pool, opts))
		}
	})
	return res, nil
}
