package kmeans

import (
	"fmt"

	"hpa/internal/flatwire"
)

// This file is the flat wire codec of AccumWire — the per-iteration
// worker→coordinator payload of the distributed K-Means loop, shipped once
// per shard per iteration. The flat layout concatenates every cluster's
// sparse centroid-sum entries into two contiguous blocks and decodes them
// into two shared backing arrays, so absorbing a shard's accumulator is a
// few allocations instead of gob's per-cluster reflective walk. Floats
// travel as IEEE 754 bit patterns: the decoded accumulator state is
// bit-identical, which the deterministic ordered reduce requires.
//
// Layout (little-endian):
//
//	magic u32 | codec u8 | k u32
//	inertia f64 | changed i64
//	counts i64 × k         (cluster member counts)
//	nnz    u32 × k         (per-cluster entry counts)
//	totalNNZ u32           (their sum; bounds the decoder's allocation)
//	idx                    (all clusters' indices, concatenated)
//	val    f64 × totalNNZ  (all clusters' values, concatenated)
//
// The codec byte is the layout version. flatwire.CodecXor is the only one:
// each cluster's ascending indices are delta-coded as varints, restarting
// per cluster, and each cluster's value block is XOR-compressed
// (flatwire.AppendF64sXor), restarting the XOR chain per cluster so
// clusters stay independently decodable. Any other version is malformed.

// accumWireMagic identifies a flat AccumWire buffer.
const accumWireMagic uint32 = 0x48504157 // "HPAW"

// EncodeFlat returns the accumulator wire form in flat layout, appended to
// dst (pass nil to allocate exactly). The receiver is not modified.
func (w *AccumWire) EncodeFlat(dst []byte) []byte {
	k := len(w.Idx)
	total := 0
	for j := range w.Idx {
		total += len(w.Idx[j])
	}
	// Capacity bound: a varint-coded index is at most 5 bytes, an
	// XOR-coded value block at most 1 + 9 bytes per value.
	size := 4 + 1 + 4 + 8 + 8 + 8*k + 4*k + 4 + 5*total + k + 9*total
	if dst == nil {
		dst = make([]byte, 0, size)
	}
	b := flatwire.AppendU32(dst, accumWireMagic)
	b = flatwire.AppendU8(b, flatwire.CodecXor)
	b = flatwire.AppendU32(b, uint32(k))
	b = flatwire.AppendF64(b, w.Inertia)
	b = flatwire.AppendI64(b, int64(w.Changed))
	b = flatwire.AppendI64s(b, w.Counts)
	for j := range w.Idx {
		b = flatwire.AppendU32(b, uint32(len(w.Idx[j])))
	}
	b = flatwire.AppendU32(b, uint32(total))
	for j := range w.Idx {
		b = flatwire.AppendDeltaU32s(b, w.Idx[j])
	}
	for j := range w.Val {
		b = flatwire.AppendF64sXor(b, w.Val[j])
	}
	return b
}

// decodeFlatAccumWire decodes one flat AccumWire from r (which may carry
// further payload after it — the kmeans.assign reply concatenates the
// accumulator with assignment and distance blocks). Structural validation
// only; FromWire still checks cluster count and dimension bounds against
// the receiving accumulator.
func decodeFlatAccumWire(r *flatwire.Reader) (*AccumWire, error) {
	r.Magic(accumWireMagic, "kmeans accum")
	codec := r.U8()
	k := r.Count(12) // ≥ 8 (counts) + 4 (nnz) bytes per cluster follow
	w := &AccumWire{
		Inertia: r.F64(),
		Changed: int(r.I64()),
		Counts:  r.I64s(k),
	}
	nnz := r.U32s(k)
	// Every entry occupies at least two of the bytes that follow (a varint
	// index delta and a value control byte), so a count the buffer cannot
	// hold is rejected here, before the backing arrays are sized from it.
	total := r.Count(2)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("kmeans: decode accum: %w", err)
	}
	if codec != flatwire.CodecXor {
		return nil, fmt.Errorf("kmeans: decode accum: %w: unknown codec version %d", flatwire.ErrMalformed, codec)
	}
	sum := 0
	for _, c := range nnz {
		sum += int(c)
	}
	if sum != total {
		return nil, fmt.Errorf("kmeans: decode accum: per-cluster entry counts sum to %d, header says %d", sum, total)
	}
	idx := make([]uint32, total)
	val := make([]float64, total)
	off := 0
	for _, c := range nnz {
		r.DeltaU32sInto(idx[off : off+int(c)])
		off += int(c)
	}
	if r.Err() == nil {
		// Every cluster's indices must be strictly ascending — the sparse
		// accumulator invariant. A zero delta would otherwise smuggle in
		// duplicates and corrupt the ordered reduce.
		off := 0
		for j, c := range nnz {
			for e := 1; e < int(c); e++ {
				if idx[off+e] <= idx[off+e-1] {
					return nil, fmt.Errorf("kmeans: decode accum: %w: cluster %d indices not strictly ascending", flatwire.ErrMalformed, j)
				}
			}
			off += int(c)
		}
	}
	off = 0
	for _, c := range nnz {
		r.F64sXorInto(val[off : off+int(c)])
		off += int(c)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("kmeans: decode accum: %w", err)
	}
	w.Idx = make([][]uint32, k)
	w.Val = make([][]float64, k)
	off = 0
	for j, c := range nnz {
		w.Idx[j] = idx[off : off+int(c) : off+int(c)]
		w.Val[j] = val[off : off+int(c) : off+int(c)]
		off += int(c)
	}
	return w, nil
}

// DecodeFlatAccumWire decodes a standalone flat AccumWire buffer,
// validating magic, counts, truncation and trailing bytes.
func DecodeFlatAccumWire(b []byte) (*AccumWire, error) {
	r := flatwire.NewReader(b)
	w, err := decodeFlatAccumWire(r)
	if err != nil {
		return nil, err
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("kmeans: decode accum: %w", err)
	}
	return w, nil
}

// ConsumeFlatAccumWire decodes one flat AccumWire from the front of a
// larger reply buffer — the composite-codec form.
func ConsumeFlatAccumWire(r *flatwire.Reader) (*AccumWire, error) {
	return decodeFlatAccumWire(r)
}
