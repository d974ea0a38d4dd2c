package tfidf

import (
	"fmt"

	"hpa/internal/dict"
	"hpa/internal/flatwire"
	"hpa/internal/sparse"
)

// This file is the flat wire codec of VectorShard — the hottest
// worker→coordinator payload of the partitioned TF/IDF transform — and of
// the count reply (ShardCounts without its documents). The layout below
// writes one buffer and decodes into two shared backing arrays (all Idx
// entries contiguous, all Val entries contiguous), so a shard's score
// vectors cost a handful of allocations no matter how many documents it
// carries. Floats travel as their IEEE 754 bit patterns: the decoded shard
// is bit-identical to the encoded one.
//
// Layout (little-endian):
//
//	magic u32 | codec u8 | lo u64 | hi u64 | dim u64 | dictFootprint i64
//	nDocs u32
//	rows                   (the documents' vectors, sparse.AppendFlatVectors:
//	                        nnz u32 × nDocs | total u32 | idx deltas | values)
//	norms f64 × nDocs
//	names (u32 len + bytes) × nDocs
//
// The codec byte is the layout version. flatwire.CodecRaw is the only one;
// any other version is malformed.

// vectorShardMagic identifies a flat VectorShard buffer.
const vectorShardMagic uint32 = 0x48505653 // "HPVS"

// shardCountsMagic identifies a flat ShardCounts buffer — the tfidf.count
// kernel reply.
const shardCountsMagic uint32 = 0x48505743 // "HPWC"

// EncodeFlat returns the shard in flat wire form, appended to dst (pass nil
// to allocate exactly). The receiver is not modified.
func (vs *VectorShard) EncodeFlat(dst []byte) []byte {
	n := len(vs.Vectors)
	if dst == nil {
		total, names := 0, 0
		for i := range vs.Vectors {
			total += vs.Vectors[i].NNZ()
		}
		for _, name := range vs.DocNames {
			names += flatwire.SizeString(name)
		}
		// Capacity bound: a varint-coded index is at most 5 bytes.
		dst = make([]byte, 0, 4+1+4*8+4+4*n+4+5*total+8*total+8*n+names)
	}
	b := flatwire.AppendU32(dst, vectorShardMagic)
	b = flatwire.AppendU8(b, flatwire.CodecRaw)
	b = flatwire.AppendU64(b, uint64(vs.Lo))
	b = flatwire.AppendU64(b, uint64(vs.Hi))
	b = flatwire.AppendU64(b, uint64(vs.Dim))
	b = flatwire.AppendI64(b, vs.DictFootprint)
	b = flatwire.AppendU32(b, uint32(n))
	b = sparse.AppendFlatVectors(b, vs.Vectors)
	b = flatwire.AppendF64s(b, vs.Norms)
	for _, name := range vs.DocNames {
		b = flatwire.AppendString(b, name)
	}
	return b
}

// DecodeFlatVectorShard decodes a flat VectorShard buffer, validating the
// layout (magic, counts, truncation, trailing bytes) and returning an error
// for any malformed input. Vector entries decode into two shared backing
// arrays, subsliced per document.
func DecodeFlatVectorShard(b []byte) (*VectorShard, error) {
	r := flatwire.NewReader(b)
	r.Magic(vectorShardMagic, "tfidf vector shard")
	codec := r.U8()
	vs := &VectorShard{
		Lo:  int(r.U64()),
		Hi:  int(r.U64()),
		Dim: int(r.U64()),
	}
	vs.DictFootprint = r.I64()
	n := r.Count(4)
	switch {
	case codec != flatwire.CodecRaw:
		r.Fail("unknown codec version %d", codec)
	case vs.Lo < 0 || vs.Hi < vs.Lo || vs.Hi-vs.Lo != n:
		r.Fail("%d documents for [%d, %d)", n, vs.Lo, vs.Hi)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("tfidf: decode vector shard: %w", err)
	}
	vs.Vectors = sparse.ConsumeFlatVectors(r, n)
	vs.Norms = r.F64s(n)
	vs.DocNames = make([]string, n)
	for i := range vs.DocNames {
		vs.DocNames[i] = r.String()
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("tfidf: decode vector shard: %w", err)
	}
	return vs, nil
}

// EncodeFlat returns the count reply — what the coordinator's DF merge
// reads of a shard counted on a worker — in flat wire form, appended to dst
// (pass nil to allocate exactly). The per-document dictionaries stay where
// they were counted. The receiver is not modified.
//
// Layout (little-endian):
//
//	magic u32 | codec u8 | lo u64 | hi u64 | nWords u32 | nDocs u32
//	words (u32 len + bytes) × nWords   (shard vocabulary, strictly ascending)
//	names (u32 len + bytes) × nDocs    (nDocs = hi − lo)
//	df u32 × nWords
//	rehashes i64 | rotations i64 | capacity i64
//
// The codec byte is flatwire.CodecCounts, the only version.
func (sc *ShardCounts) EncodeFlat(dst []byte) []byte {
	n := 4 + 1 + 2*8 + 2*4 + 4*len(sc.DF) + 3*8
	for _, word := range sc.Words {
		n += flatwire.SizeString(word)
	}
	for _, name := range sc.DocNames {
		n += flatwire.SizeString(name)
	}
	b := flatwire.Reserve(dst, n)
	b = flatwire.AppendU32(b, shardCountsMagic)
	b = flatwire.AppendU8(b, flatwire.CodecCounts)
	b = flatwire.AppendU64(b, uint64(sc.Lo))
	b = flatwire.AppendU64(b, uint64(sc.Hi))
	b = flatwire.AppendU32(b, uint32(len(sc.Words)))
	b = flatwire.AppendU32(b, uint32(len(sc.DocNames)))
	for _, word := range sc.Words {
		b = flatwire.AppendString(b, word)
	}
	for _, name := range sc.DocNames {
		b = flatwire.AppendString(b, name)
	}
	b = flatwire.AppendU32s(b, sc.DF)
	st := sc.VocabStats
	return flatwire.AppendI64s(b, []int64{int64(st.Rehashes), int64(st.Rotations), int64(st.Capacity)})
}

// DecodeFlatShardCounts decodes a flat count reply into a ShardCounts
// without documents (DocDicts nil), validating the layout (magic, codec,
// counts, truncation, trailing bytes), one name per document of [lo, hi),
// and the vocabulary strictly ascending, so no word appears twice.
func DecodeFlatShardCounts(b []byte) (*ShardCounts, error) {
	r := flatwire.NewReader(b)
	r.Magic(shardCountsMagic, "tfidf shard counts")
	codec := r.U8()
	sc := &ShardCounts{Lo: int(r.U64()), Hi: int(r.U64())}
	nw := r.Count(8) // ≥ 4 (name length) + 4 (DF) bytes per word
	n := r.Count(4)
	switch {
	case codec != flatwire.CodecCounts:
		r.Fail("unknown codec version %d", codec)
	case sc.Lo < 0 || sc.Hi < sc.Lo || sc.Hi-sc.Lo != n:
		r.Fail("%d names for documents [%d, %d)", n, sc.Lo, sc.Hi)
	}
	sc.Words = make([]string, nw)
	for i := range sc.Words {
		sc.Words[i] = r.String()
	}
	sc.DocNames = make([]string, n)
	for i := range sc.DocNames {
		sc.DocNames[i] = r.String()
	}
	sc.DF = r.U32s(nw)
	if v := r.I64s(3); v != nil {
		sc.VocabStats = dict.Stats{Rehashes: int(v[0]), Rotations: int(v[1]), Capacity: int(v[2])}
	}
	for i := 1; i < nw; i++ {
		if sc.Words[i] <= sc.Words[i-1] {
			r.Fail("vocabulary not strictly ascending at word %d", i)
			break
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("tfidf: decode shard counts: %w", err)
	}
	return sc, nil
}
