package optimizer

import (
	"fmt"
	"math"

	"hpa/internal/corpus"
	"hpa/internal/kmeans"
	"hpa/internal/par"
	"hpa/internal/pario"
	"hpa/internal/sparse"
	"hpa/internal/text"
)

// heapsBeta is the Heaps'-law exponent used to extrapolate vocabulary size
// from a sample (distinct ∝ tokens^beta). It matches the exponent
// corpus.Spec.Scaled uses to shrink the distinct-word target, so estimates
// over synthetic corpora are self-consistent.
const heapsBeta = 0.55

// Stats summarizes a workflow input for the optimization pass: the corpus
// scale factors every cost estimate multiplies by. Collect gathers them
// with a cheap sampling pre-pass; FromCorpus takes the exact document and
// byte counts from an in-memory corpus and samples only the token
// statistics.
type Stats struct {
	// Docs is the document count (exact).
	Docs int
	// Bytes is the total corpus byte volume (exact for in-memory sources,
	// extrapolated from the sample otherwise).
	Bytes int64
	// DistinctTerms estimates the corpus-wide distinct-term cardinality —
	// the size of the merged term table (Heaps-extrapolated from the
	// sample).
	DistinctTerms int
	// TotalTokens estimates the corpus-wide token count — the number of
	// per-document dictionary operations phase 1 performs.
	TotalTokens int64
	// AvgDocTokens and AvgDocDistinct are per-document means from the
	// sample: tokens per document and distinct terms per document (the
	// cardinality regime of the per-document dictionaries).
	AvgDocTokens   float64
	AvgDocDistinct float64
	// SampledDocs and SampledBytes record how much of the corpus the
	// sample actually read.
	SampledDocs  int
	SampledBytes int64
	// DocSizeCV is the coefficient of variation (standard deviation over
	// mean) of the sampled document sizes — the observed spread the
	// shard-count decisions derive their straggler allowance from,
	// replacing a blind constant. Zero when unknown (fewer than two
	// sampled documents, or empty documents); the pricing then falls back
	// to the historical constant.
	DocSizeCV float64
	// KMeansIters estimates how many iterations the K-Means stage will run
	// — the multiplier of the iterative stage's cost, which earlier models
	// could not see. Collect measures it with a pilot clustering of the
	// sampled documents' term-frequency vectors, scaled by a Heaps-style
	// logarithmic growth term for the full corpus; callers with a measured
	// count may overwrite it.
	KMeansIters int
}

// String renders the summary the optimizer annotates plans with.
func (s *Stats) String() string {
	return fmt.Sprintf("%d docs, %.1f MB, ~%d terms, ~%d km-iters (sampled %d docs)",
		s.Docs, float64(s.Bytes)/1e6, s.DistinctTerms, s.KMeansIters, s.SampledDocs)
}

// DefaultSampleDocs is the sampling budget Collect uses when none is
// given: large enough for stable token statistics, small enough that the
// pre-pass is negligible next to the workflow.
const DefaultSampleDocs = 256

// Collect summarizes src by reading a deterministic sample of about
// sampleDocs documents (0 selects DefaultSampleDocs), spread across the
// corpus in contiguous pario.Sample ranges. Token statistics use the same
// tokenizer the TF/IDF operator uses with default options; corpus-wide
// distinct terms are extrapolated by Heaps' law from the sample's
// distinct count.
func Collect(src pario.Source, sampleDocs int) (*Stats, error) {
	if sampleDocs <= 0 {
		sampleDocs = DefaultSampleDocs
	}
	n := src.Len()
	st := &Stats{Docs: n}
	if n == 0 {
		return st, nil
	}
	tk := &text.Tokenizer{}
	// Term IDs are assigned in stream order (first global occurrence), so
	// the pilot vectors — and with them the whole Stats value — are
	// deterministic for a fixed sample.
	ids := make(map[string]uint32, 1<<12)
	perDoc := make(map[string]uint32, 1<<8)
	var (
		docDistinctSum   int64
		pilot            []sparse.Vector
		b                sparse.Builder
		sizeSum, sizeSq2 float64 // running doc-size moments for DocSizeCV
	)
	for _, sub := range pario.Sample(src, sampleDocs, 8) {
		for i := 0; i < sub.Len(); i++ {
			content, err := sub.Read(i)
			if err != nil {
				return nil, fmt.Errorf("optimizer: stats sample: %w", err)
			}
			st.SampledDocs++
			st.SampledBytes += int64(len(content))
			sizeSum += float64(len(content))
			sizeSq2 += float64(len(content)) * float64(len(content))
			clear(perDoc)
			tk.Tokens(content, func(tok []byte) {
				st.TotalTokens++ // sample tokens for now; scaled below
				if _, ok := perDoc[string(tok)]; !ok {
					if _, ok := ids[string(tok)]; !ok {
						ids[string(tok)] = uint32(len(ids))
					}
				}
				perDoc[string(tok)]++
			})
			docDistinctSum += int64(len(perDoc))
			// The document's term-frequency vector, for the pilot
			// clustering behind the iteration estimate. The builder sorts
			// by ID, so map iteration order does not matter.
			b.Reset()
			for word, tf := range perDoc {
				b.Add(ids[word], float64(tf))
			}
			var v sparse.Vector
			b.Build(&v)
			pilot = append(pilot, v)
		}
	}
	distinct := ids
	sampleTokens := st.TotalTokens
	st.AvgDocTokens = float64(sampleTokens) / float64(st.SampledDocs)
	st.AvgDocDistinct = float64(docDistinctSum) / float64(st.SampledDocs)
	if mean := sizeSum / float64(st.SampledDocs); st.SampledDocs >= 2 && mean > 0 {
		if variance := sizeSq2/float64(st.SampledDocs) - mean*mean; variance > 0 {
			st.DocSizeCV = math.Sqrt(variance) / mean
		}
	}

	// Scale the sample to the corpus. Bytes: exact when the source knows
	// its size, mean-extrapolated otherwise.
	if ms, ok := src.(*pario.MemSource); ok {
		st.Bytes = ms.TotalBytes()
	} else {
		st.Bytes = int64(float64(st.SampledBytes) / float64(st.SampledDocs) * float64(n))
	}
	if sampleTokens == 0 {
		// Nothing tokenized (whitespace-only or binary documents): every
		// token statistic is legitimately zero, and there is no Heaps
		// curve to extrapolate.
		return st, nil
	}
	st.TotalTokens = int64(st.AvgDocTokens * float64(n))
	// Heaps' law: distinct grows sublinearly with token volume.
	growth := float64(st.TotalTokens) / float64(sampleTokens)
	if growth < 1 {
		growth = 1
	}
	st.DistinctTerms = int(float64(len(distinct))*math.Pow(growth, heapsBeta) + 0.5)
	st.KMeansIters = estimateKMeansIters(pilot, len(distinct), n)
	return st, nil
}

// pilotK is the cluster count of the iteration-estimate pilot (the paper's
// workflow uses k=8; iteration counts are only weakly k-dependent).
const pilotK = 8

// fallbackIterEstimate is the pure logarithmic iteration bound used when no
// pilot clustering is available — shared by the sampler and the pricing
// rule so the two paths cannot drift.
func fallbackIterEstimate(docs int) int {
	it := int(4 + 2*math.Log(float64(docs)+1))
	if it < 1 {
		it = 1
	}
	if it > maxIterEstimate {
		it = maxIterEstimate
	}
	return it
}

// maxIterEstimate caps the estimate at the operator's default MaxIter.
const maxIterEstimate = 100

// estimateKMeansIters predicts the K-Means iteration count: a pilot
// clustering of the sampled documents' term-frequency vectors measures how
// fast this corpus's cluster structure converges, and a Heaps-style
// logarithmic growth term extrapolates to the full corpus (iteration
// counts grow slowly — roughly with the log of the document count — as
// more documents refine the same centroids). Sparse or token-free samples
// fall back to a pure logarithmic bound.
func estimateKMeansIters(pilot []sparse.Vector, dim, corpusDocs int) int {
	clamp := func(v int) int {
		if v < 1 {
			return 1
		}
		if v > maxIterEstimate {
			return maxIterEstimate
		}
		return v
	}
	fallback := fallbackIterEstimate(corpusDocs)
	if len(pilot) < 2*pilotK || dim == 0 {
		return fallback
	}
	pool := par.NewPool(1)
	defer pool.Close()
	res, err := kmeans.Run(pilot, dim, pool, kmeans.Options{K: pilotK, Seed: 1, MaxIter: 40}, nil)
	if err != nil {
		return fallback
	}
	growth := 1 + 0.15*math.Log(float64(corpusDocs)/float64(len(pilot)))
	if growth < 1 {
		growth = 1
	}
	return clamp(int(float64(res.Iterations)*growth + 0.5))
}

// FromCorpus summarizes an in-memory corpus: document and byte counts are
// taken exactly from the corpus, token statistics from a Collect sampling
// pass over its source.
func FromCorpus(c *corpus.Corpus, sampleDocs int) (*Stats, error) {
	st, err := Collect(c.Source(nil), sampleDocs)
	if err != nil {
		return nil, err
	}
	st.Bytes = c.Bytes()
	return st, nil
}
