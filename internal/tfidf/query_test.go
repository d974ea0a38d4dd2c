package tfidf

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"hpa/internal/corpus"
	"hpa/internal/par"
	"hpa/internal/pario"
	"hpa/internal/sparse"
	"hpa/internal/text"
)

func queryTestPool(t *testing.T) *par.Pool {
	t.Helper()
	p := par.NewPool(2)
	t.Cleanup(p.Close)
	return p
}

func memSource(docs ...string) *pario.MemSource {
	src := &pario.MemSource{}
	for i, d := range docs {
		src.Names = append(src.Names, "doc-"+string(rune('0'+i)))
		src.Docs = append(src.Docs, []byte(d))
	}
	return src
}

func queryTestSource() *pario.MemSource {
	return memSource(
		"alpha beta beta gamma",
		"alpha gamma gamma delta delta delta",
		"beta delta epsilon",
		"alpha alpha beta gamma delta",
	)
}

// A query equal to a corpus document must vectorize bit-identically to
// that document's corpus vector: same tokenizer, same term IDs, same
// tf·idf arithmetic, same normalization.
func TestQueryVectorizeMatchesCorpusVectors(t *testing.T) {
	sources := []*pario.MemSource{
		queryTestSource(),
		corpus.Generate(corpus.Mix().Scaled(0.002), nil).Source(nil),
	}
	for _, src := range sources {
		for _, normalize := range []bool{false, true} {
			opts := Options{Normalize: normalize}
			res, err := Run(src, queryTestPool(t), opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			vocab, err := NewQueryVocab(res, opts)
			if err != nil {
				t.Fatal(err)
			}
			qv := vocab.NewVectorizer()
			var got sparse.Vector
			for i := 0; i < src.Len(); i++ {
				content, _ := src.Read(i)
				qv.Vectorize(content, &got)
				if !reflect.DeepEqual(got, res.Vectors[i]) {
					t.Fatalf("normalize=%v: query vector for %s differs from corpus vector:\n got %v\nwant %v",
						normalize, src.Name(i), got, res.Vectors[i])
				}
			}
		}
	}
}

// FuzzQueryVectorizeMatchesCorpus: any text, appended to a small corpus as
// one more document, must vectorize as a query to exactly that document's
// corpus vector — same term IDs, same weights bit for bit — under every
// tokenizer and normalization setting.
func FuzzQueryVectorizeMatchesCorpus(f *testing.F) {
	for _, s := range []string{
		"", "alpha beta", "alpha alpha alpha omega", "The RUNNING runners ran; ran!",
		"beta\x00delta\xffgamma", "naïve café ümlaut", "x y z 12345 ab-cd",
	} {
		f.Add([]byte(s))
	}
	pool := par.NewPool(1)
	f.Cleanup(pool.Close)
	f.Fuzz(func(t *testing.T, doc []byte) {
		src := queryTestSource()
		src.Names = append(src.Names, "fuzz")
		src.Docs = append(src.Docs, doc)
		last := src.Len() - 1
		for _, opts := range []Options{
			{}, {Normalize: true}, {Stem: true}, {MinWordLen: 4},
			{Normalize: true, Stem: true, MinWordLen: 3},
		} {
			res, err := Run(src, pool, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			vocab, err := NewQueryVocab(res, opts)
			if err != nil {
				t.Fatal(err)
			}
			var got sparse.Vector
			vocab.NewVectorizer().Vectorize(doc, &got)
			want := res.Vectors[last]
			if !slices.Equal(got.Idx, want.Idx) {
				t.Fatalf("%+v: query term IDs %v, corpus %v", opts, got.Idx, want.Idx)
			}
			for i := range want.Val {
				if math.Float64bits(got.Val[i]) != math.Float64bits(want.Val[i]) {
					t.Fatalf("%+v: term %d weighs %v as a query, %v in the corpus",
						opts, want.Idx[i], got.Val[i], want.Val[i])
				}
			}
		}
	})
}

func TestQueryVectorizeUnknownAndEmpty(t *testing.T) {
	opts := Options{Normalize: true}
	res, err := Run(queryTestSource(), queryTestPool(t), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	vocab, err := NewQueryVocab(res, opts)
	if err != nil {
		t.Fatal(err)
	}
	qv := vocab.NewVectorizer()
	var out sparse.Vector
	qv.Vectorize([]byte("zeta unknownword 42"), &out)
	if out.NNZ() != 0 {
		t.Fatalf("out-of-vocabulary query produced %d components, want 0", out.NNZ())
	}
	qv.Vectorize(nil, &out)
	if out.NNZ() != 0 {
		t.Fatalf("empty query produced %d components, want 0", out.NNZ())
	}
	// A word present in every document has idf = log N − log N = 0 and
	// must be dropped, exactly as corpus scoring drops it.
	qv.Vectorize([]byte("alpha beta"), &out)
	for i, id := range out.Idx {
		if res.DF[id] == uint32(res.NumDocs) && out.Val[i] != 0 {
			t.Fatalf("term %d present in all documents kept weight %v", id, out.Val[i])
		}
	}
}

// The vectorizer must apply the same token filters the corpus saw.
func TestQueryVectorizeRespectsTokenizerOptions(t *testing.T) {
	opts := Options{MinWordLen: 4, Stopwords: text.English(), Stem: true, Normalize: true}
	src := memSource(
		"the running runner runs quickly",
		"a cat ran past the sleeping runners",
	)
	res, err := Run(src, queryTestPool(t), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	vocab, err := NewQueryVocab(res, opts)
	if err != nil {
		t.Fatal(err)
	}
	qv := vocab.NewVectorizer()
	var got sparse.Vector
	for i := 0; i < src.Len(); i++ {
		content, _ := src.Read(i)
		qv.Vectorize(content, &got)
		if !reflect.DeepEqual(got, res.Vectors[i]) {
			t.Fatalf("query vector for %s differs under tokenizer options:\n got %v\nwant %v",
				src.Name(i), got, res.Vectors[i])
		}
	}
}

func TestNewQueryVocabRejectsBadResults(t *testing.T) {
	if _, err := NewQueryVocab(nil, Options{}); err == nil {
		t.Fatal("nil result accepted")
	}
	if _, err := NewQueryVocab(&Result{NumDocs: 0}, Options{}); err == nil {
		t.Fatal("empty result accepted")
	}
	if _, err := NewQueryVocab(&Result{NumDocs: 1, Terms: []string{"a"}}, Options{}); err == nil {
		t.Fatal("terms/df length mismatch accepted")
	}
}
