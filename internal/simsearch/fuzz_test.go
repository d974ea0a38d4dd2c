package simsearch

import (
	"math/rand"
	"reflect"
	"testing"

	"hpa/internal/sparse"
)

// fuzzCollection decodes bytes into a small collection, a query and a k.
// Weights come from small sets so exact score ties happen; documents may
// be empty, hold only stored zeros (zero norm) or duplicate an earlier
// one; the query may name terms outside the vocabulary. The first byte's
// low bits add weights pruning must refuse: a document weight below the
// margin's range, and negative query weights. Missing bytes read as 0.
func fuzzCollection(data []byte) (docs []sparse.Vector, dim int, q sparse.Vector, k int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	mode := next()
	docW := []float64{0, 0.5, 1, 1, 2, 3, 0.1, 2.5}
	if mode&1 != 0 {
		docW[7] = 0x1p-120
	}
	queryW := []float64{0, 0.5, 1, 2, 3}
	if mode&2 != 0 {
		queryW[4] = -1
	}
	n := next() % 65
	dim = 1 + next()%16
	docs = make([]sparse.Vector, n)
	for i := range docs {
		if b := next(); b >= 0xc0 && i > 0 {
			src := docs[(b-0xc0)%i]
			docs[i] = sparse.Vector{Idx: append([]uint32(nil), src.Idx...), Val: append([]float64(nil), src.Val...)}
			continue
		}
		for t := 0; t < dim; t++ {
			if c := next(); c%2 == 1 { // odd: stored, so about half the terms
				docs[i].Append(uint32(t), docW[(c/2)%len(docW)])
			}
		}
	}
	for t := 0; t < dim+4; t++ {
		if c := next(); c%2 == 1 {
			q.Append(uint32(t), queryW[(c/2)%len(queryW)])
		}
	}
	k = 1 + next()%(n+3)
	return docs, dim, q, k
}

// FuzzTopKMatchesBruteForce: the pruned search returns exactly what the
// exhaustive reference returns — documents, order and score bits — and a
// repeated query on the same searcher agrees, so no scratch leaks.
func FuzzTopKMatchesBruteForce(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		b := make([]byte, 64+r.Intn(1200))
		r.Read(b)
		b[0] = byte(i % 4)
		f.Add(b)
	}
	// Twenty identical documents and a query on their terms: one tie group
	// that k = 6 cuts through.
	ties := []byte{0, 20, 3, 0, 3, 5, 0, 0}
	for i := 1; i < 20; i++ {
		ties = append(ties, 0xc0)
	}
	f.Add(append(ties, 3, 5, 0, 0, 0, 0, 0, 0, 5))
	f.Fuzz(func(t *testing.T, data []byte) {
		docs, dim, q, k := fuzzCollection(data)
		ix, err := Build(docs, dim, nil)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSearcher(ix)
		got := s.TopK(&q, k)
		want := BruteForceTopK(docs, &q, k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d query %v\n got %v\nwant %v", k, q, got, want)
		}
		if again := s.TopK(&q, k); !reflect.DeepEqual(again, want) {
			t.Fatalf("repeated query: got %v, want %v", again, want)
		}
	})
}
