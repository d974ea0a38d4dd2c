package tfidf

import (
	"fmt"

	"hpa/internal/dict"
	"hpa/internal/flatwire"
	"hpa/internal/sparse"
)

// This file is the flat wire codec of VectorShard — the hottest
// worker→coordinator payload of the partitioned TF/IDF transform — and of
// the count reply. The layout below writes one buffer and decodes into two
// shared backing arrays (all Idx entries contiguous, all Val entries
// contiguous), so a shard's score vectors cost a handful of allocations no
// matter how many documents it carries. Floats travel as their IEEE 754 bit
// patterns: the decoded shard is bit-identical to the encoded one.
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

// wireShardCountsMagic identifies a flat WireShardCounts buffer — the
// tfidf.count kernel reply.
const wireShardCountsMagic uint32 = 0x48505743 // "HPWC"

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
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("tfidf: decode vector shard: %w", err)
	}
	if codec != flatwire.CodecRaw {
		return nil, fmt.Errorf("tfidf: decode vector shard: %w: unknown codec version %d", flatwire.ErrMalformed, codec)
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

// EncodeFlat returns the count reply in flat wire form, appended to dst
// (pass nil). The receiver is not modified.
//
// Layout (little-endian):
//
//	magic u32 | codec u8 | lo u64 | hi u64 | nWords u32 | nDocs u32
//	words  (u32 len + bytes) × nWords   (shard vocabulary, strictly ascending)
//	nTerms u32 × nDocs                  (per-document entry counts)
//	locals u32 × Σ                      (all documents' vocabulary indexes)
//	counts u32 × Σ                      (all documents' frequencies)
//	names marker u32                    (0 = nil, 1 = present)
//	[names (u32 len + bytes) × nDocs]
//	df marker u32                       (0 = omitted, 1 = present)
//	[df u32 × nWords | rehashes i64 | rotations i64 | capacity i64]
//
// The codec byte is flatwire.CodecVocab, the only version: a word crosses
// the wire once per shard, not once per document containing it.
func (w *WireShardCounts) EncodeFlat(dst []byte) []byte {
	b := flatwire.AppendU32(dst, wireShardCountsMagic)
	b = flatwire.AppendU8(b, flatwire.CodecVocab)
	b = flatwire.AppendU64(b, uint64(w.Lo))
	b = flatwire.AppendU64(b, uint64(w.Hi))
	b = flatwire.AppendU32(b, uint32(len(w.Words)))
	b = flatwire.AppendU32(b, uint32(len(w.Docs)))
	for _, word := range w.Words {
		b = flatwire.AppendString(b, word)
	}
	for i := range w.Docs {
		b = flatwire.AppendU32(b, uint32(len(w.Docs[i].Locals)))
	}
	for i := range w.Docs {
		b = flatwire.AppendU32s(b, w.Docs[i].Locals)
	}
	for i := range w.Docs {
		b = flatwire.AppendU32s(b, w.Docs[i].Counts)
	}
	if w.DocNames == nil {
		b = flatwire.AppendU32(b, 0)
	} else {
		b = flatwire.AppendU32(b, 1)
		for _, name := range w.DocNames {
			b = flatwire.AppendString(b, name)
		}
	}
	if w.DF == nil {
		b = flatwire.AppendU32(b, 0)
	} else {
		b = flatwire.AppendU32(b, 1)
		b = flatwire.AppendU32s(b, w.DF)
		st := w.VocabStats
		b = flatwire.AppendI64s(b, []int64{int64(st.Rehashes), int64(st.Rotations), int64(st.Capacity)})
	}
	return b
}

// DecodeFlatWireShardCounts decodes a flat count reply, validating the
// layout (magic, codec, counts, truncation, trailing bytes) and what
// ShardCounts and the kernels rely on: the vocabulary strictly ascending
// (so no word appears twice), every local inside it, and no local twice in
// one document.
func DecodeFlatWireShardCounts(b []byte) (*WireShardCounts, error) {
	malformed := func(format string, args ...any) (*WireShardCounts, error) {
		return nil, fmt.Errorf("tfidf: decode shard counts: %w: %s", flatwire.ErrMalformed, fmt.Sprintf(format, args...))
	}
	r := flatwire.NewReader(b)
	r.Magic(wireShardCountsMagic, "tfidf shard counts")
	codec := r.U8()
	w := &WireShardCounts{
		Lo: int(r.U64()),
		Hi: int(r.U64()),
	}
	nw := r.Count(4)
	n := r.Count(4)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("tfidf: decode shard counts: %w", err)
	}
	if codec != flatwire.CodecVocab {
		return malformed("unknown codec version %d", codec)
	}
	w.Words = make([]string, nw)
	for i := range w.Words {
		w.Words[i] = r.String()
	}
	nterms := r.U32s(n)
	w.Docs = make([]WireDocCounts, n)
	for i := range nterms {
		w.Docs[i].Locals = r.U32s(int(nterms[i]))
	}
	for i := range nterms {
		w.Docs[i].Counts = r.U32s(int(nterms[i]))
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("tfidf: decode shard counts: %w", err)
	}
	for i := 1; i < nw; i++ {
		if w.Words[i] <= w.Words[i-1] {
			return malformed("vocabulary not strictly ascending at word %d", i)
		}
	}
	seenIn := make([]int, nw) // 1 + the last document each word was seen in
	for i := range w.Docs {
		for _, local := range w.Docs[i].Locals {
			if int(local) >= nw {
				return malformed("document %d references word %d of %d", i, local, nw)
			}
			if seenIn[local] == i+1 {
				return malformed("document %d lists word %d twice", i, local)
			}
			seenIn[local] = i + 1
		}
	}
	switch r.U32() {
	case 0:
	case 1:
		w.DocNames = make([]string, n)
		for i := range w.DocNames {
			w.DocNames[i] = r.String()
		}
	default:
		return malformed("bad names marker")
	}
	switch r.U32() {
	case 0:
	case 1:
		w.DF = r.U32s(nw)
		if v := r.I64s(3); v != nil {
			w.VocabStats = dict.Stats{Rehashes: int(v[0]), Rotations: int(v[1]), Capacity: int(v[2])}
		}
	default:
		return malformed("bad DF marker")
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("tfidf: decode shard counts: %w", err)
	}
	return w, nil
}
