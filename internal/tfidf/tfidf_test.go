package tfidf

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"hpa/internal/corpus"
	"hpa/internal/dict"
	"hpa/internal/metrics"
	"hpa/internal/par"
	"hpa/internal/pario"
	"hpa/internal/sparse"
)

func tinySource(docs ...string) *pario.MemSource {
	m := &pario.MemSource{}
	for _, d := range docs {
		m.Docs = append(m.Docs, []byte(d))
	}
	return m
}

func runTiny(t *testing.T, kind dict.Kind, docs ...string) *Result {
	t.Helper()
	p := par.NewPool(2)
	defer p.Close()
	res, err := Run(tinySource(docs...), p, Options{DictKind: kind}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestHandComputedScores(t *testing.T) {
	// 3 documents; "apple" in 1 doc, "pear" in 2 docs, "plum" in all 3.
	docs := []string{
		"apple pear plum",
		"pear plum plum",
		"plum",
	}
	for _, kind := range []dict.Kind{dict.Tree, dict.Hash} {
		res := runTiny(t, kind, docs...)
		if res.Dim() != 3 {
			t.Fatalf("%v: %d terms, want 3", kind, res.Dim())
		}
		// Terms sorted lexicographically.
		if res.Terms[0] != "apple" || res.Terms[1] != "pear" || res.Terms[2] != "plum" {
			t.Fatalf("%v: terms %v", kind, res.Terms)
		}
		if res.DF[0] != 1 || res.DF[1] != 2 || res.DF[2] != 3 {
			t.Fatalf("%v: df %v", kind, res.DF)
		}
		ln3 := math.Log(3)
		// Doc 0: apple tf=1 idf=ln(3/1); pear tf=1 idf=ln(3/2); plum idf=0 dropped.
		v := res.Vectors[0]
		if v.NNZ() != 2 {
			t.Fatalf("%v: doc0 nnz=%d want 2 (%+v)", kind, v.NNZ(), v)
		}
		if got, want := v.At(0), ln3; math.Abs(got-want) > 1e-12 {
			t.Fatalf("%v: apple score %v want %v", kind, got, want)
		}
		if got, want := v.At(1), ln3-math.Log(2); math.Abs(got-want) > 1e-12 {
			t.Fatalf("%v: pear score %v want %v", kind, got, want)
		}
		// Doc 2 contains only the ubiquitous word: empty vector.
		if res.Vectors[2].NNZ() != 0 {
			t.Fatalf("%v: doc2 nnz=%d want 0", kind, res.Vectors[2].NNZ())
		}
	}
}

func TestTreeAndHashProduceIdenticalResults(t *testing.T) {
	c := corpus.Generate(corpus.Mix().Scaled(0.003), nil)
	p := par.NewPool(3)
	defer p.Close()
	var results []*Result
	for _, kind := range []dict.Kind{dict.Tree, dict.Hash} {
		res, err := Run(c.Source(nil), p, Options{DictKind: kind, Normalize: true, DocPresize: 64}, nil)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	a, b := results[0], results[1]
	if a.Dim() != b.Dim() {
		t.Fatalf("vocab differs: %d vs %d", a.Dim(), b.Dim())
	}
	for i := range a.Terms {
		if a.Terms[i] != b.Terms[i] || a.DF[i] != b.DF[i] {
			t.Fatalf("term %d differs: %s/%d vs %s/%d", i, a.Terms[i], a.DF[i], b.Terms[i], b.DF[i])
		}
	}
	for i := range a.Vectors {
		if !sparse.Equal(&a.Vectors[i], &b.Vectors[i]) {
			t.Fatalf("vector %d differs between dictionary kinds", i)
		}
	}
}

func TestThreadCountInvariance(t *testing.T) {
	c := corpus.Generate(corpus.Mix().Scaled(0.002), nil)
	var base *Result
	for _, workers := range []int{1, 4} {
		p := par.NewPool(workers)
		res, err := Run(c.Source(nil), p, Options{DictKind: dict.Tree, Normalize: true}, nil)
		p.Close()
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		if res.Dim() != base.Dim() {
			t.Fatalf("workers=%d: vocab %d vs %d", workers, res.Dim(), base.Dim())
		}
		for i := range res.Vectors {
			if !sparse.Equal(&res.Vectors[i], &base.Vectors[i]) {
				t.Fatalf("workers=%d: vector %d differs", workers, i)
			}
		}
	}
}

// shardKernelRun assembles a Result by driving the shard kernels by hand
// over a fixed shard count on a 1-worker pool — the reference Run must
// match at every pool size.
func shardKernelRun(t *testing.T, src pario.Source, shards int, opts Options) *Result {
	t.Helper()
	p := par.NewPool(1)
	defer p.Close()
	counts := make([]*ShardCounts, shards)
	for i := range counts {
		sc, err := CountShard(pario.Partition(src, shards, i), 1, opts)
		if err != nil {
			t.Fatal(err)
		}
		counts[i] = sc
	}
	g := MergeShards(counts, p, opts)
	res := NewResultShell(g)
	for _, sc := range counts {
		res.AbsorbShard(TransformShard(g, sc, p, opts))
	}
	return res
}

// sameResult fails unless the two results agree on the term table,
// document names and every score.
func sameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.NumDocs != want.NumDocs || !reflect.DeepEqual(got.Terms, want.Terms) ||
		!reflect.DeepEqual(got.DF, want.DF) || !reflect.DeepEqual(got.DocNames, want.DocNames) {
		t.Fatalf("%s: term table or document names differ (%d docs, %d terms; want %d, %d)",
			label, got.NumDocs, got.Dim(), want.NumDocs, want.Dim())
	}
	if len(got.Vectors) != len(want.Vectors) {
		t.Fatalf("%s: %d vectors, want %d", label, len(got.Vectors), len(want.Vectors))
	}
	for i := range want.Vectors {
		if !sparse.Equal(&got.Vectors[i], &want.Vectors[i]) {
			t.Fatalf("%s: vector %d differs", label, i)
		}
	}
}

// TestRunBitIdenticalAcrossWorkerCounts: Run is the shard kernels over one
// shard per pool worker, so its output is bit-identical at every pool size
// and equal to the kernels driven by hand at any shard count — for every
// dictionary kind, on the empty corpus and on a corpus with fewer
// documents than workers (empty shards).
func TestRunBitIdenticalAcrossWorkerCounts(t *testing.T) {
	corpora := map[string]pario.Source{
		"mix":   corpus.Generate(corpus.Mix().Scaled(0.002), nil).Source(nil),
		"empty": tinySource(),
		"tiny":  tinySource("apple banana apple", "banana cherry", "cherry cherry date"),
	}
	for name, src := range corpora {
		for _, kind := range dict.Kinds() {
			opts := Options{DictKind: kind, Normalize: true}
			want := shardKernelRun(t, src, 1, opts)
			sameResult(t, fmt.Sprintf("%s/%v/kernels shards=3", name, kind), want, shardKernelRun(t, src, 3, opts))
			for _, workers := range []int{1, 2, 4} {
				p := par.NewPool(workers)
				got, err := Run(src, p, opts, nil)
				p.Close()
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, fmt.Sprintf("%s/%v/workers=%d", name, kind, workers), want, got)
			}
		}
	}
}

func TestNormalization(t *testing.T) {
	c := corpus.Generate(corpus.Mix().Scaled(0.001), nil)
	p := par.NewPool(2)
	defer p.Close()
	res, err := Run(c.Source(nil), p, Options{DictKind: dict.Tree, Normalize: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Vectors {
		if n := res.Vectors[i].Norm(); res.Vectors[i].NNZ() > 0 && math.Abs(n-1) > 1e-9 {
			t.Fatalf("vector %d norm %v", i, n)
		}
	}
}

func TestVectorsSortedAndValid(t *testing.T) {
	c := corpus.Generate(corpus.NSFAbstracts().Scaled(0.001), nil)
	p := par.NewPool(4)
	defer p.Close()
	res, err := Run(c.Source(nil), p, Options{DictKind: dict.Hash}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Vectors {
		if err := res.Vectors[i].Validate(); err != nil {
			t.Fatalf("vector %d: %v", i, err)
		}
	}
	if !sort.StringsAreSorted(res.Terms) {
		t.Fatal("terms not lexicographically sorted")
	}
}

func TestDFMatchesBruteForce(t *testing.T) {
	docs := []string{
		"alpha beta gamma alpha",
		"beta beta delta",
		"gamma epsilon",
		"alpha",
	}
	res := runTiny(t, dict.Tree, docs...)
	want := map[string]uint32{"alpha": 2, "beta": 2, "gamma": 2, "delta": 1, "epsilon": 1}
	if res.Dim() != len(want) {
		t.Fatalf("%d terms, want %d", res.Dim(), len(want))
	}
	for i, term := range res.Terms {
		if res.DF[i] != want[term] {
			t.Fatalf("df[%s] = %d, want %d", term, res.DF[i], want[term])
		}
	}
}

func TestPhasesRecordedInBreakdown(t *testing.T) {
	c := corpus.Generate(corpus.Mix().Scaled(0.001), nil)
	p := par.NewPool(2)
	defer p.Close()
	bd := metrics.NewBreakdown()
	if _, err := Run(c.Source(nil), p, Options{DictKind: dict.Tree}, bd); err != nil {
		t.Fatal(err)
	}
	if bd.Get(PhaseInputWC) == 0 || bd.Get(PhaseTransform) == 0 {
		t.Fatalf("phases missing from breakdown: %v", bd)
	}
}

func TestHashGlobalDictRehashesWithDefaultPresize(t *testing.T) {
	// The paper pre-sizes to 4K, far below the vocabulary, so the global
	// hash dictionary must rehash as it grows.
	c := corpus.Generate(corpus.Mix().Scaled(0.005), nil)
	p := par.NewPool(2)
	defer p.Close()
	res, err := Run(c.Source(nil), p, Options{DictKind: dict.Hash}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dim() < 5000 {
		t.Skipf("vocabulary too small (%d) to force rehashing", res.Dim())
	}
	if res.GlobalStats.Rehashes == 0 {
		t.Fatal("global hash dictionary never rehashed despite 4K presize")
	}
}

func TestDocPresizeInflatesFootprint(t *testing.T) {
	c := corpus.Generate(corpus.Mix().Scaled(0.002), nil)
	p := par.NewPool(2)
	defer p.Close()
	lean, err := Run(c.Source(nil), p, Options{DictKind: dict.Hash}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fat, err := Run(c.Source(nil), p, Options{DictKind: dict.Hash, DocPresize: 4096}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fat.DictFootprint < 4*lean.DictFootprint {
		t.Fatalf("4K presize footprint %d not >> lean %d", fat.DictFootprint, lean.DictFootprint)
	}
}

func TestARFFRoundTripThroughDisk(t *testing.T) {
	c := corpus.Generate(corpus.Mix().Scaled(0.001), nil)
	p := par.NewPool(2)
	defer p.Close()
	res, err := Run(c.Source(nil), p, Options{DictKind: dict.Tree, Normalize: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "scores.arff")
	n, err := res.WriteARFF(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("WriteARFF wrote no bytes")
	}
	terms, rows, err := ReadARFF(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(terms) != res.Dim() || len(rows) != res.NumDocs {
		t.Fatalf("read back %d terms, %d rows", len(terms), len(rows))
	}
	for i := range rows {
		if !sparse.Equal(&rows[i], &res.Vectors[i]) {
			t.Fatalf("row %d corrupted through ARFF", i)
		}
	}
}

func TestEmptySource(t *testing.T) {
	p := par.NewPool(1)
	defer p.Close()
	res, err := Run(tinySource(), p, Options{DictKind: dict.Tree}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumDocs != 0 || res.Dim() != 0 {
		t.Fatalf("empty source: %d docs, %d terms", res.NumDocs, res.Dim())
	}
}

func TestMinWordLenAndStopwords(t *testing.T) {
	p := par.NewPool(1)
	defer p.Close()
	res, err := Run(tinySource("a bb the ccc dddd"), p, Options{
		DictKind:   dict.Tree,
		MinWordLen: 3,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dim() != 3 { // the, ccc, dddd survive MinWordLen
		t.Fatalf("terms = %v", res.Terms)
	}
}

func TestContextCancellation(t *testing.T) {
	c := corpus.Generate(corpus.Mix().Scaled(0.01), nil)
	p := par.NewPool(2)
	defer p.Close()
	// Already-cancelled context: fails fast, no result.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(c.Source(nil), p, Options{DictKind: dict.Tree, Ctx: ctx}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Cancel midway through phase 1: the run must abort with the context
	// error rather than completing.
	ctx2, cancel2 := context.WithCancel(context.Background())
	n := 0
	src := &cancellingSource{MemSource: c.Source(nil), after: 5, cancel: cancel2, n: &n}
	if _, err := Run(src, p, Options{DictKind: dict.Tree, Ctx: ctx2}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: err = %v", err)
	}
	if n >= c.Len() {
		t.Fatalf("all %d documents read despite cancellation", n)
	}
	// Nil context: unaffected.
	if _, err := Run(c.Source(nil), p, Options{DictKind: dict.Tree}, nil); err != nil {
		t.Fatal(err)
	}
}

type cancellingSource struct {
	*pario.MemSource
	after  int
	cancel func()
	mu     sync.Mutex
	n      *int
}

func (s *cancellingSource) Read(i int) ([]byte, error) {
	s.mu.Lock()
	*s.n++
	if *s.n == s.after {
		s.cancel()
	}
	s.mu.Unlock()
	return s.MemSource.Read(i)
}
