package tfidf

import (
	"bytes"
	"encoding/gob"
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

// TestShardCountsWireRoundTrip: counts flattened for the wire and rebuilt
// with fresh dictionaries must merge and transform to bit-identical
// output.
func TestShardCountsWireRoundTrip(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	for _, kind := range dict.Kinds() {
		opts := Options{DictKind: kind, Normalize: true}
		count := func() []*ShardCounts {
			var shards []*ShardCounts
			for p := 0; p < 2; p++ {
				sc, err := CountShard(pario.Partition(wireTestSource(), 2, p), 1, opts)
				if err != nil {
					t.Fatalf("%v: CountShard: %v", kind, err)
				}
				shards = append(shards, sc)
			}
			return shards
		}

		// Reference path: everything local.
		refShards := count()
		refGlobal := MergeShards([]*ShardCounts{refShards[0], refShards[1]}, pool, opts)
		refVS := []*VectorShard{
			TransformShard(refGlobal, refShards[0], pool, opts),
			TransformShard(refGlobal, refShards[1], pool, opts),
		}

		// Wire path: every shard's counts round-trip through gob (DF
		// included, as a count task's reply), each shard's vocabulary is
		// resolved against the merged table as the coordinator does for a
		// shipped transform, and the transform runs over the rebuilt
		// counts.
		wireShards := count()
		for i, sc := range wireShards {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(sc.Wire(true)); err != nil {
				t.Fatalf("%v: encode shard %d: %v", kind, i, err)
			}
			var w WireShardCounts
			if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&w); err != nil {
				t.Fatalf("%v: decode shard %d: %v", kind, i, err)
			}
			wireShards[i] = w.ShardCounts(opts)
		}
		gw := MergeShards([]*ShardCounts{wireShards[0], wireShards[1]}, pool, opts)
		if !reflect.DeepEqual(gw.Terms, refGlobal.Terms) || !reflect.DeepEqual(gw.DF, refGlobal.DF) ||
			gw.NumDocs != refGlobal.NumDocs {
			t.Fatalf("%v: merged term table differs after wire round trip", kind)
		}
		for p, sc := range []*ShardCounts{wireShards[0], wireShards[1]} {
			// The transform argument form omits DF; exercise that too.
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(sc.Wire(false)); err != nil {
				t.Fatalf("%v: encode transform shard: %v", kind, err)
			}
			var w WireShardCounts
			if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&w); err != nil {
				t.Fatalf("%v: decode transform shard: %v", kind, err)
			}
			vs := TransformTerms(gw.Resolve(w.Words), w.ShardCounts(opts), pool, opts)
			if vs.Lo != refVS[p].Lo || vs.Hi != refVS[p].Hi || vs.Dim != refVS[p].Dim {
				t.Fatalf("%v: shard %d shape differs: [%d,%d) dim %d", kind, p, vs.Lo, vs.Hi, vs.Dim)
			}
			for i := range vs.Vectors {
				if !sparse.Equal(&vs.Vectors[i], &refVS[p].Vectors[i]) {
					t.Fatalf("%v: shard %d vector %d differs after wire round trip", kind, p, i)
				}
			}
			if !reflect.DeepEqual(vs.Norms, refVS[p].Norms) {
				t.Fatalf("%v: shard %d norms differ after wire round trip", kind, p)
			}
			if !reflect.DeepEqual(vs.DocNames, refVS[p].DocNames) {
				t.Fatalf("%v: shard %d doc names differ", kind, p)
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
