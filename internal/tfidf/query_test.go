package tfidf

import (
	"reflect"
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
