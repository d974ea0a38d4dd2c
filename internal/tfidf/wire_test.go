package tfidf

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"testing"

	"hpa/internal/dict"
	"hpa/internal/par"
	"hpa/internal/pario"
	"hpa/internal/sparse"
	"hpa/internal/text"
)

func wireTestSource() *pario.MemSource {
	return &pario.MemSource{
		Names: []string{"d0", "d1", "d2", "d3"},
		Docs: [][]byte{
			[]byte("apple banana apple cherry"),
			[]byte("banana banana date"),
			[]byte("cherry apple elderberry date date"),
			[]byte("fig"),
		},
	}
}

// TestShardCountsWireRoundTrip: the count reply carries everything the DF
// merge reads, so merging decoded replies gives the same term table, bit
// for bit, as merging the live shards, for every dictionary kind.
func TestShardCountsWireRoundTrip(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	for _, kind := range dict.Kinds() {
		opts := Options{DictKind: kind, Normalize: true}
		var live, wire []*ShardCounts
		for p := 0; p < 2; p++ {
			sc, err := CountShard(pario.Partition(wireTestSource(), 2, p), 1, opts)
			if err != nil {
				t.Fatalf("%v: CountShard: %v", kind, err)
			}
			dec, err := DecodeFlatShardCounts(sc.EncodeFlat(nil))
			if err != nil {
				t.Fatalf("%v: decode shard %d: %v", kind, p, err)
			}
			if dec.DocDicts != nil {
				t.Fatalf("%v: shard %d's reply carried documents", kind, p)
			}
			live, wire = append(live, sc), append(wire, dec)
		}
		want, got := MergeShards(live, pool, opts), MergeShards(wire, pool, opts)
		if !reflect.DeepEqual(got.Terms, want.Terms) || !reflect.DeepEqual(got.DF, want.DF) ||
			got.NumDocs != want.NumDocs || got.Stats != want.Stats {
			t.Fatalf("%v: merged term table differs after the wire", kind)
		}
		for id := range want.IDF {
			if math.Float64bits(got.IDF[id]) != math.Float64bits(want.IDF[id]) {
				t.Fatalf("%v: IDF of term %d differs after the wire", kind, id)
			}
		}
	}
}

// TestVectorShardGobRoundTrip: VectorShard ships as-is; every field must
// survive.
func TestVectorShardGobRoundTrip(t *testing.T) {
	vs := &VectorShard{
		Lo: 3, Hi: 5, Dim: 10,
		Vectors: []sparse.Vector{
			{Idx: []uint32{1, 9}, Val: []float64{0.5, -1.25}},
			{},
		},
		DocNames:      []string{"a", "b"},
		Norms:         []float64{1.8125, 0},
		DictFootprint: 1234,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(vs); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var out VectorShard
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.Lo != vs.Lo || out.Hi != vs.Hi || out.Dim != vs.Dim || out.DictFootprint != vs.DictFootprint {
		t.Errorf("scalar fields differ: %+v", out)
	}
	for i := range vs.Vectors {
		if !sparse.Equal(&out.Vectors[i], &vs.Vectors[i]) {
			t.Errorf("vector %d differs", i)
		}
	}
	if !reflect.DeepEqual(out.DocNames, vs.DocNames) || !reflect.DeepEqual(out.Norms, vs.Norms) {
		t.Errorf("names/norms differ")
	}
}

// TestWireOptions: the serializable subset round-trips; stopword-bearing
// options refuse to ship.
func TestWireOptions(t *testing.T) {
	o := Options{DictKind: dict.Hash, GlobalPresize: 9, DocPresize: 7,
		MinWordLen: 2, Stem: true, Normalize: true}
	w, ok := o.Wire()
	if !ok {
		t.Fatalf("plain options not serializable")
	}
	back := w.Options()
	if back.DictKind != o.DictKind || back.GlobalPresize != o.GlobalPresize ||
		back.DocPresize != o.DocPresize ||
		back.MinWordLen != o.MinWordLen || back.Stem != o.Stem || back.Normalize != o.Normalize {
		t.Errorf("options differ after wire round trip: %+v vs %+v", back, o)
	}
	o.Stopwords = text.English()
	if _, ok := o.Wire(); ok {
		t.Errorf("stopword-bearing options claim to be serializable")
	}
}
