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
	huge := flatwire.AppendU32(nil, vectorShardMagic)
	huge = flatwire.AppendU8(huge, flatwire.CodecRaw)
	huge = flatwire.AppendU64(huge, 3) // lo
	huge = flatwire.AppendU64(huge, 4) // hi
	huge = append(huge, good[4+1+16:4+1+24+8]...)
	huge = flatwire.AppendU32(huge, 1)     // n
	huge = flatwire.AppendU32(huge, 1<<30) // nnz
	huge = flatwire.AppendU32(huge, 1<<30) // total
	cases["entry count past the buffer"] = huge
	// A zero delta encodes a duplicate index; entries must strictly ascend.
	dup := flatTestShard()
	dup.Vectors[0].Idx[1] = dup.Vectors[0].Idx[0]
	cases["duplicate index"] = dup.EncodeFlat(nil)
	// A shard's range is its documents: a reply claiming more would land
	// in another shard's slots, or past the corpus.
	wide := flatTestShard()
	wide.Hi++
	cases["range past its documents"] = wide.EncodeFlat(nil)
	backwards := flatTestShard()
	backwards.Lo, backwards.Hi = 7, 3
	cases["range backwards"] = backwards.EncodeFlat(nil)

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
// handle: an empty document name, words sharing a prefix, and vocabulary
// counters.
func flatTestCounts() *ShardCounts {
	return &ShardCounts{
		Lo: 2, Hi: 5,
		Words:      []string{"alpha", "alphabet", "beta"},
		DF:         []uint32{1, 2, 1},
		DocNames:   []string{"a.txt", "", "c.txt"},
		VocabStats: dict.Stats{Rehashes: 2, Rotations: 5, Capacity: 4096},
	}
}

// docCountsReply encodes sc in the retired codec-4 layout of the count
// reply, which carried every document's (vocabulary index, count) pairs
// behind the vocabulary: one document per name, holding the first word.
func docCountsReply(sc *ShardCounts) []byte {
	b := flatwire.AppendU32(nil, shardCountsMagic)
	b = flatwire.AppendU8(b, 4)
	b = flatwire.AppendU64(b, uint64(sc.Lo))
	b = flatwire.AppendU64(b, uint64(sc.Hi))
	b = flatwire.AppendU32(b, uint32(len(sc.Words)))
	b = flatwire.AppendU32(b, uint32(len(sc.DocNames)))
	for _, word := range sc.Words {
		b = flatwire.AppendString(b, word)
	}
	for range 3 { // nTerms, locals, counts
		for range sc.DocNames {
			b = flatwire.AppendU32(b, 1)
		}
	}
	b = flatwire.AppendU32(b, 1) // names marker
	for _, name := range sc.DocNames {
		b = flatwire.AppendString(b, name)
	}
	b = flatwire.AppendU32(b, 1) // DF marker
	b = flatwire.AppendU32s(b, sc.DF)
	return flatwire.AppendI64s(b, []int64{2, 5, 4096})
}

// TestWireShardCountsFlatRoundTrip: the flat count reply must reproduce
// every field the coordinator reads — range, vocabulary, DF, names and
// vocabulary counters — and carry no documents.
func TestWireShardCountsFlatRoundTrip(t *testing.T) {
	for name, sc := range map[string]*ShardCounts{
		"shard":       flatTestCounts(),
		"empty shard": {Lo: 7, Hi: 7, Words: []string{}, DocNames: []string{}},
	} {
		b := sc.EncodeFlat(nil)
		if len(b) != cap(b) {
			t.Errorf("%s: encoded %d bytes into a buffer of %d", name, len(b), cap(b))
		}
		got, err := DecodeFlatShardCounts(b)
		if err != nil {
			t.Fatalf("%s: DecodeFlatShardCounts: %v", name, err)
		}
		if !reflect.DeepEqual(got, sc) {
			t.Errorf("%s: decoded %+v, want %+v", name, got, sc)
		}
		prefix := []byte{0xaa, 0xbb}
		if b := sc.EncodeFlat(prefix); !bytes.Equal(b[:2], prefix) || !bytes.Equal(b[2:], sc.EncodeFlat(nil)) {
			t.Errorf("%s: EncodeFlat does not append to dst", name)
		}
	}
}

// TestWireShardCountsFlatMalformed: structural corruption fails with an
// error wrapping ErrMalformed, never a panic or a silently wrong shard —
// including what the DF merge relies on: one name per document of the
// range and no word twice in the vocabulary.
func TestWireShardCountsFlatMalformed(t *testing.T) {
	good := flatTestCounts().EncodeFlat(nil)
	badCodec := append([]byte{}, good...)
	badCodec[4] = 99
	mutate := func(fn func(sc *ShardCounts)) []byte {
		sc := flatTestCounts()
		fn(sc)
		return sc.EncodeFlat(nil)
	}
	cases := map[string][]byte{
		"empty":           {},
		"bad magic":       append([]byte{1, 2, 3, 4}, good[4:]...),
		"truncated":       good[:len(good)-3],
		"trailing":        append(append([]byte{}, good...), 0),
		"short header":    good[:9],
		"unknown codec":   badCodec,
		"documents block": docCountsReply(flatTestCounts()),
		"extra name":      mutate(func(sc *ShardCounts) { sc.DocNames = append(sc.DocNames, "d.txt") }),
		"range backwards": mutate(func(sc *ShardCounts) { sc.Lo, sc.Hi = 5, 2 }),
		"short DF":        mutate(func(sc *ShardCounts) { sc.DF = sc.DF[:2] }),
		"duplicate word":  mutate(func(sc *ShardCounts) { sc.Words[2] = "alphabet" }),
		"unsorted words":  mutate(func(sc *ShardCounts) { sc.Words[0], sc.Words[1] = sc.Words[1], sc.Words[0] }),
	}
	for name, b := range cases {
		sc, err := DecodeFlatShardCounts(b)
		if err == nil {
			t.Errorf("%s: decoded without error: %+v", name, sc)
			continue
		}
		if !errors.Is(err, flatwire.ErrMalformed) {
			t.Errorf("%s: error %v does not wrap ErrMalformed", name, err)
		}
	}
}
