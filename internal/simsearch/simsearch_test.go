package simsearch

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"hpa/internal/corpus"
	"hpa/internal/par"
	"hpa/internal/sparse"
	"hpa/internal/tfidf"
)

// randomDocs builds a small sparse collection for tests.
func randomDocs(r *rand.Rand, n, dim int) []sparse.Vector {
	docs := make([]sparse.Vector, n)
	for i := range docs {
		var v sparse.Vector
		for t := 0; t < dim; t++ {
			if r.Intn(4) == 0 {
				v.Append(uint32(t), r.Float64()+0.01)
			}
		}
		docs[i] = v
	}
	return docs
}

func query(r *rand.Rand, dim int) sparse.Vector {
	var q sparse.Vector
	for t := 0; t < dim; t++ {
		if r.Intn(6) == 0 {
			q.Append(uint32(t), r.Float64()+0.01)
		}
	}
	return q
}

func TestTopKMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		docs := randomDocs(r, 60, 30)
		ix, err := Build(docs, 30, nil)
		if err != nil {
			return false
		}
		s := NewSearcher(ix)
		for rep := 0; rep < 5; rep++ {
			q := query(r, 30)
			k := 1 + r.Intn(10)
			got := s.TopK(&q, k)
			want := BruteForceTopK(docs, &q, k)
			if !reflect.DeepEqual(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildDeterministicAcrossWorkerCounts(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	docs := randomDocs(r, 200, 50)
	seq, err := Build(docs, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		pool := par.NewPool(workers)
		parIx, err := Build(docs, 50, pool)
		pool.Close()
		if err != nil {
			t.Fatal(err)
		}
		for tm := 0; tm < 50; tm++ {
			a, b := seq.postingsDoc[tm], parIx.postingsDoc[tm]
			if len(a) != len(b) {
				t.Fatalf("%d workers, term %d: posting lengths %d vs %d", workers, tm, len(a), len(b))
			}
			for j := range a {
				if a[j] != b[j] || seq.postingsW[tm][j] != parIx.postingsW[tm][j] {
					t.Fatalf("%d workers, term %d slot %d differs", workers, tm, j)
				}
			}
			if math.Float64bits(seq.maxW[tm]) != math.Float64bits(parIx.maxW[tm]) {
				t.Fatalf("%d workers, term %d: bound %v, sequential %v", workers, tm, parIx.maxW[tm], seq.maxW[tm])
			}
		}
	}
}

// TestBuildRejectsUnboundableWeights: a weight the pruning bounds cannot
// cover is an error naming the document and the term, one per class.
func TestBuildRejectsUnboundableWeights(t *testing.T) {
	for name, w := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1), "negative": -0.5} {
		t.Run(name, func(t *testing.T) {
			docs := []sparse.Vector{
				{Idx: []uint32{0, 2}, Val: []float64{1, 2}},
				{Idx: []uint32{1, 3}, Val: []float64{0.5, w}},
			}
			_, err := Build(docs, 4, nil)
			if err == nil {
				t.Fatalf("weight %v accepted", w)
			}
			if msg := err.Error(); !strings.Contains(msg, "document 1 term 3") {
				t.Fatalf("weight %v: error %q does not name document 1 term 3", w, msg)
			}
		})
	}
}

// TestTopKPrunesPostings builds a TF/IDF index over a generated corpus
// and queries it with runs of consecutive words of its documents, 8 and
// 60 at a time: every answer equals BruteForceTopK bit for bit, and
// 8-word queries read at most a fifth of their terms' postings.
func TestTopKPrunesPostings(t *testing.T) {
	c := corpus.Generate(corpus.Mix().Scaled(0.05), nil)
	opts := tfidf.Options{Normalize: true}
	pool := par.NewPool(2)
	defer pool.Close()
	res, err := tfidf.Run(c.Source(nil), pool, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	vocab, err := tfidf.NewQueryVocab(res, opts)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(res.Vectors, res.Dim(), pool)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(ix)
	vec := vocab.NewVectorizer()
	r := rand.New(rand.NewSource(1))
	for _, words := range []int{8, 60} {
		work, postings := 0, 0
		for queries := 0; queries < 40; {
			fields := bytes.Fields(c.Docs[r.Intn(len(c.Docs))])
			if len(fields) < words {
				continue
			}
			at := r.Intn(len(fields) - words + 1)
			var q sparse.Vector
			vec.Vectorize(bytes.Join(fields[at:at+words], []byte(" ")), &q)
			got := s.TopK(&q, 10)
			if want := BruteForceTopK(res.Vectors, &q, 10); !reflect.DeepEqual(got, want) {
				t.Fatalf("%d words: TopK %v, brute force %v", words, got, want)
			}
			work += s.Work()
			for _, tm := range q.Idx {
				postings += ix.PostingLen(tm)
			}
			queries++
		}
		t.Logf("%d-word queries: %d of %d postings (%.1f%%)", words, work, postings, 100*float64(work)/float64(postings))
		if words == 8 && 5*work > postings {
			t.Fatalf("8-word queries read %d of %d postings, more than a fifth", work, postings)
		}
	}
}

func TestPostingsSortedAndComplete(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	docs := randomDocs(r, 100, 40)
	pool := par.NewPool(4)
	defer pool.Close()
	ix, err := Build(docs, 40, pool)
	if err != nil {
		t.Fatal(err)
	}
	totalPostings := 0
	for tm := 0; tm < 40; tm++ {
		docsList := ix.postingsDoc[tm]
		totalPostings += len(docsList)
		for j := 1; j < len(docsList); j++ {
			if docsList[j] <= docsList[j-1] {
				t.Fatalf("term %d postings not strictly increasing", tm)
			}
		}
		if ix.PostingLen(uint32(tm)) != len(docsList) {
			t.Fatalf("PostingLen mismatch for %d", tm)
		}
	}
	wantNNZ := 0
	for i := range docs {
		wantNNZ += docs[i].NNZ()
	}
	if totalPostings != wantNNZ {
		t.Fatalf("postings %d != nnz %d", totalPostings, wantNNZ)
	}
	if ix.PostingLen(1<<20) != 0 {
		t.Fatal("out-of-range term has postings")
	}
}

func TestSelfSimilarityIsOne(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	docs := randomDocs(r, 40, 20)
	ix, err := Build(docs, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(ix)
	for i := range docs {
		if docs[i].NNZ() == 0 {
			continue
		}
		top := s.TopK(&docs[i], 1)
		if len(top) != 1 {
			t.Fatalf("doc %d: no result", i)
		}
		if !cosEqual(top[0].Score, 1) {
			t.Fatalf("doc %d: self-similarity %v", i, top[0].Score)
		}
	}
}

func TestEdgeCases(t *testing.T) {
	docs := []sparse.Vector{
		{Idx: []uint32{0}, Val: []float64{1}},
		{}, // empty doc
	}
	ix, err := Build(docs, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(ix)
	var empty sparse.Vector
	if got := s.TopK(&empty, 5); got != nil {
		t.Fatalf("empty query returned %v", got)
	}
	q := sparse.Vector{Idx: []uint32{0}, Val: []float64{2}}
	if got := s.TopK(&q, 0); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
	got := s.TopK(&q, 100) // k > matches
	if len(got) != 1 || got[0].Doc != 0 {
		t.Fatalf("k>matches: %v", got)
	}
	// Query with out-of-vocabulary terms only.
	oov := sparse.Vector{Idx: []uint32{99}, Val: []float64{1}}
	if got := s.TopK(&oov, 3); len(got) != 0 {
		t.Fatalf("OOV query matched %v", got)
	}
}

func TestDimensionValidation(t *testing.T) {
	docs := []sparse.Vector{{Idx: []uint32{10}, Val: []float64{1}}}
	if _, err := Build(docs, 5, nil); err == nil {
		t.Fatal("oversized document accepted")
	}
}

func TestSearcherScratchReusedCleanly(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	docs := randomDocs(r, 50, 25)
	ix, err := Build(docs, 25, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(ix)
	q1 := query(r, 25)
	q2 := query(r, 25)
	first := s.TopK(&q1, 5)
	_ = s.TopK(&q2, 5)
	again := s.TopK(&q1, 5)
	if len(first) != len(again) {
		t.Fatalf("scratch leak: %d vs %d results", len(first), len(again))
	}
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("scratch leak at %d: %v vs %v", i, first[i], again[i])
		}
	}
}

func TestQueryAllocFreeAfterWarmup(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	docs := randomDocs(r, 100, 30)
	ix, err := Build(docs, 30, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(ix)
	q := query(r, 30)
	s.TopK(&q, 5)
	allocs := testing.AllocsPerRun(20, func() { s.TopK(&q, 5) })
	if allocs > 1 { // the result slice itself
		t.Fatalf("TopK allocates %v per query", allocs)
	}
}

// cosEqual compares scores with a tolerance, for checks against a
// mathematical value rather than another code path's bits.
func cosEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func BenchmarkTopKIndexed(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	docs := randomDocs(r, 5000, 2000)
	ix, err := Build(docs, 2000, nil)
	if err != nil {
		b.Fatal(err)
	}
	s := NewSearcher(ix)
	q := query(r, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.TopK(&q, 10)
	}
	b.ReportMetric(float64(s.Work()), "postings/op")
}

func BenchmarkTopKBruteForce(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	docs := randomDocs(r, 5000, 2000)
	q := query(r, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BruteForceTopK(docs, &q, 10)
	}
}
