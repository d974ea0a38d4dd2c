package tfidf

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"hpa/internal/dict"
	"hpa/internal/flatwire"
	"hpa/internal/sparse"
)

// flatTestShard builds a shard with the shapes the codec must handle:
// empty vectors, shared-prefix names, exact and awkward float values.
func flatTestShard() *VectorShard {
	return &VectorShard{
		Lo: 3, Hi: 7, Dim: 10, DictFootprint: 12345,
		Vectors: []sparse.Vector{
			{Idx: []uint32{0, 4, 9}, Val: []float64{1.25, -0.0078125, math.SmallestNonzeroFloat64}},
			{},                                      // an empty document
			{Idx: []uint32{2}, Val: []float64{0.1}}, // not exactly representable
			{Idx: []uint32{1, 8}, Val: []float64{math.Pi, -math.MaxFloat64}},
		},
		Norms:    []float64{1.5625, 0, 0.010000000000000002, 9.869604401089358},
		DocNames: []string{"docs/a.txt", "docs/b.txt", "", "docs/deep/nested/c.txt"},
	}
}

// TestVectorShardFlatRoundTrip: the flat codec must reproduce the shard
// bit-for-bit, and agree exactly with what the gob path would have carried.
func TestVectorShardFlatRoundTrip(t *testing.T) {
	vs := flatTestShard()
	got, err := DecodeFlatVectorShard(vs.EncodeFlat(nil))
	if err != nil {
		t.Fatalf("DecodeFlatVectorShard: %v", err)
	}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(vs); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	var viaGob VectorShard
	if err := gob.NewDecoder(&buf).Decode(&viaGob); err != nil {
		t.Fatalf("gob decode: %v", err)
	}

	for name, dec := range map[string]*VectorShard{"flat": got, "gob": &viaGob} {
		if dec.Lo != vs.Lo || dec.Hi != vs.Hi || dec.Dim != vs.Dim || dec.DictFootprint != vs.DictFootprint {
			t.Errorf("%s: header fields differ: %+v", name, dec)
		}
		if len(dec.Vectors) != len(vs.Vectors) {
			t.Fatalf("%s: %d vectors, want %d", name, len(dec.Vectors), len(vs.Vectors))
		}
		for i := range vs.Vectors {
			if !sparse.Equal(&dec.Vectors[i], &vs.Vectors[i]) {
				t.Errorf("%s: vector %d differs", name, i)
			}
		}
		for i := range vs.Norms {
			if math.Float64bits(dec.Norms[i]) != math.Float64bits(vs.Norms[i]) {
				t.Errorf("%s: norm %d bits differ", name, i)
			}
		}
		if !reflect.DeepEqual(dec.DocNames, vs.DocNames) {
			t.Errorf("%s: names %v", name, dec.DocNames)
		}
	}
}

// TestVectorShardFlatAppends: EncodeFlat must append to dst, leaving an
// existing prefix intact — the transform reply writes its header first.
func TestVectorShardFlatAppends(t *testing.T) {
	vs := flatTestShard()
	prefix := []byte{0xaa, 0xbb}
	b := vs.EncodeFlat(prefix)
	if !bytes.Equal(b[:2], prefix) {
		t.Fatalf("prefix overwritten: % x", b[:2])
	}
	if _, err := DecodeFlatVectorShard(b[2:]); err != nil {
		t.Fatalf("decode after prefix: %v", err)
	}
}

// TestVectorShardFlatMalformed: every structural corruption must fail with
// an error — never a panic, never a silently wrong shard.
func TestVectorShardFlatMalformed(t *testing.T) {
	good := flatTestShard().EncodeFlat(nil)
	cases := map[string][]byte{
		"empty":        {},
		"bad magic":    append([]byte{1, 2, 3, 4}, good[4:]...),
		"truncated":    good[:len(good)/2],
		"trailing":     append(append([]byte{}, good...), 0),
		"short header": good[:10],
	}
	// Corrupt the per-document entry counts so their sum disagrees with the
	// total behind them: nnz block starts after
	// magic(4)+codec(1)+3×u64(24)+i64(8)+n(4).
	bad := append([]byte{}, good...)
	bad[4+1+24+8+4]++
	cases["nnz sum mismatch"] = bad
	// Every codec version byte but the one EncodeFlat writes must be
	// rejected, not guessed at — the retired versions 1 and 2 included.
	for _, v := range []byte{0, 1, 2, 99} {
		badCodec := append([]byte{}, good...)
		badCodec[4] = v
		cases[fmt.Sprintf("codec version %d", v)] = badCodec
	}
	// An entry total the buffer cannot hold must fail before the backing
	// arrays are sized from it: 49 bytes that would otherwise ask for 12 GiB.
	huge := append([]byte{}, good[:4+1+24+8]...)
	huge = flatwire.AppendU32(huge, 1)     // n
	huge = flatwire.AppendU32(huge, 1<<30) // nnz
	huge = flatwire.AppendU32(huge, 1<<30) // total
	cases["entry count past the buffer"] = huge
	// A zero delta encodes a duplicate index; entries must strictly ascend.
	dup := flatTestShard()
	dup.Vectors[0].Idx[1] = dup.Vectors[0].Idx[0]
	cases["duplicate index"] = dup.EncodeFlat(nil)

	for name, b := range cases {
		vs, err := DecodeFlatVectorShard(b)
		if err == nil {
			t.Errorf("%s: decoded without error: %+v", name, vs)
			continue
		}
		if name != "nnz sum mismatch" && !errors.Is(err, flatwire.ErrMalformed) {
			t.Errorf("%s: error %v does not wrap ErrMalformed", name, err)
		}
	}
}

// flatTestCounts builds a count reply with the shapes its codec must
// handle: an empty document, a word shared across documents, entries out
// of vocabulary order, and the DF block a count reply carries.
func flatTestCounts(withDF bool) *WireShardCounts {
	w := &WireShardCounts{
		Lo: 2, Hi: 5,
		Words: []string{"alpha", "beta", "gamma"},
		Docs: []WireDocCounts{
			{Locals: []uint32{1, 0}, Counts: []uint32{3, 1}},
			{},
			{Locals: []uint32{1, 2}, Counts: []uint32{7, 2}},
		},
		DocNames: []string{"a.txt", "", "c.txt"},
	}
	if withDF {
		w.DF = []uint32{1, 2, 1}
		w.VocabStats = dict.Stats{Rehashes: 2, Rotations: 5, Capacity: 4096}
	}
	return w
}

// TestWireShardCountsFlatRoundTrip: the flat count-reply codec must
// reproduce the wire struct exactly and agree with what gob would have
// carried, with and without the DF block.
func TestWireShardCountsFlatRoundTrip(t *testing.T) {
	for _, withDF := range []bool{true, false} {
		w := flatTestCounts(withDF)
		got, err := DecodeFlatWireShardCounts(w.EncodeFlat(nil))
		if err != nil {
			t.Fatalf("withDF=%v: DecodeFlatWireShardCounts: %v", withDF, err)
		}

		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(w); err != nil {
			t.Fatalf("gob encode: %v", err)
		}
		var viaGob WireShardCounts
		if err := gob.NewDecoder(&buf).Decode(&viaGob); err != nil {
			t.Fatalf("gob decode: %v", err)
		}

		for name, dec := range map[string]*WireShardCounts{"flat": got, "gob": &viaGob} {
			if dec.Lo != w.Lo || dec.Hi != w.Hi {
				t.Errorf("withDF=%v %s: range [%d,%d), want [%d,%d)", withDF, name, dec.Lo, dec.Hi, w.Lo, w.Hi)
			}
			if !reflect.DeepEqual(dec.Words, w.Words) {
				t.Errorf("withDF=%v %s: vocabulary %v", withDF, name, dec.Words)
			}
			if len(dec.Docs) != len(w.Docs) {
				t.Fatalf("withDF=%v %s: %d docs, want %d", withDF, name, len(dec.Docs), len(w.Docs))
			}
			for i := range w.Docs {
				if !reflect.DeepEqual(dec.Docs[i].Locals, w.Docs[i].Locals) ||
					!reflect.DeepEqual(dec.Docs[i].Counts, w.Docs[i].Counts) {
					t.Errorf("withDF=%v %s: doc %d differs: %+v", withDF, name, i, dec.Docs[i])
				}
			}
			if !reflect.DeepEqual(dec.DocNames, w.DocNames) {
				t.Errorf("withDF=%v %s: names %v", withDF, name, dec.DocNames)
			}
			if !reflect.DeepEqual(dec.DF, w.DF) {
				t.Errorf("withDF=%v %s: DF block differs", withDF, name)
			}
			if dec.VocabStats != w.VocabStats {
				t.Errorf("withDF=%v %s: vocabulary counters %+v", withDF, name, dec.VocabStats)
			}
		}

		// The rebuilt live shard must match the gob path's rebuild.
		opts := Options{}
		flatSC := got.ShardCounts(opts)
		gobSC := viaGob.ShardCounts(opts)
		if flatSC.Lo != gobSC.Lo || flatSC.Hi != gobSC.Hi || len(flatSC.DocDicts) != len(gobSC.DocDicts) {
			t.Errorf("withDF=%v: rebuilt shards differ structurally", withDF)
		}
		if e, ok := flatSC.DocDicts[2].Get("gamma"); !ok || e != (DocTerm{TF: 2, Local: 2}) {
			t.Errorf("withDF=%v: rebuilt dictionary holds %+v for gamma", withDF, e)
		}
	}
}

// TestWireShardCountsFlatMalformed: structural corruption fails with an
// error, never a panic or a silently wrong count set — including the
// invariants the kernels index by: every local inside the vocabulary, no
// local twice in a document, no word twice in the vocabulary.
func TestWireShardCountsFlatMalformed(t *testing.T) {
	good := flatTestCounts(true).EncodeFlat(nil)
	badCodec := append([]byte{}, good...)
	badCodec[4] = 99
	retiredCodec := append([]byte{}, good...)
	retiredCodec[4] = 1 // retired codec version
	// A bogus names marker: re-encode the nameless variant (marker 0 directly
	// precedes the DF block) and flip its marker to an undefined value.
	badMarker := flatTestCounts(true)
	badMarker.DocNames = nil
	badMarkerBuf := badMarker.EncodeFlat(nil)
	dfLen := 4 + 3*4 + 3*8                      // marker, DF, vocabulary counters
	badMarkerBuf[len(badMarkerBuf)-dfLen-4] = 9 // names marker, little-endian low byte
	mutate := func(fn func(w *WireShardCounts)) []byte {
		w := flatTestCounts(true)
		fn(w)
		return w.EncodeFlat(nil)
	}
	cases := map[string][]byte{
		"empty":           {},
		"bad magic":       append([]byte{1, 2, 3, 4}, good[4:]...),
		"truncated":       good[:len(good)-3],
		"trailing":        append(append([]byte{}, good...), 0),
		"short header":    good[:9],
		"unknown codec":   badCodec,
		"retired codec":   retiredCodec,
		"bad marker":      badMarkerBuf,
		"local past end":  mutate(func(w *WireShardCounts) { w.Docs[2].Locals[1] = 3 }),
		"duplicate local": mutate(func(w *WireShardCounts) { w.Docs[0].Locals[1] = 1 }),
		"duplicate word":  mutate(func(w *WireShardCounts) { w.Words[2] = "beta" }),
		"unsorted words":  mutate(func(w *WireShardCounts) { w.Words[0], w.Words[1] = w.Words[1], w.Words[0] }),
	}
	for name, b := range cases {
		w, err := DecodeFlatWireShardCounts(b)
		if err == nil {
			t.Errorf("%s: decoded without error: %+v", name, w)
			continue
		}
		if !errors.Is(err, flatwire.ErrMalformed) {
			t.Errorf("%s: error %v does not wrap ErrMalformed", name, err)
		}
	}
}
