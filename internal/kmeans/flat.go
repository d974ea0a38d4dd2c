package kmeans

import (
	"fmt"
	"slices"

	"hpa/internal/flatwire"
	"hpa/internal/sparse"
)

// This file holds the flat wire codecs of the distributed K-Means loop.
// Floats travel as IEEE 754 bit patterns, so a worker's distances are
// the coordinator's.
//
// AccumWire, the per-iteration worker→coordinator partial (the
// kmeans.assign reply carries it before the assignment and distance
// blocks), is fixed-size:
//
//	magic u32 | changed i64
//
// The centroid block — the coordinator→worker payload of the same loop,
// shipped once per worker per iteration — is every centroid row's
// nonzeros in sparse form:
//
//	magic u32 | codec u8 | k u32 | cnorms f64 × k
//	rows      (sparse.AppendFlatVectors: nnz u32 × k | total u32 |
//	           idx deltas | XOR values)
//
// The codec byte is the layout version. flatwire.CodecXor is the only one;
// any other version is malformed.

// accumWireMagic identifies a flat AccumWire buffer.
const accumWireMagic uint32 = 0x4850414d // "HPAM"

// centroidsMagic identifies a flat centroid block.
const centroidsMagic uint32 = 0x4850434e // "HPCN"

// EncodeFlat returns the partial's wire form in flat layout, appended to
// dst. The receiver is not modified.
func (w *AccumWire) EncodeFlat(dst []byte) []byte {
	b := flatwire.AppendU32(slices.Grow(dst, 4+8), accumWireMagic)
	return flatwire.AppendI64(b, int64(w.Changed))
}

// consumeHeader reads a payload's magic, codec byte and cluster count
// (perCluster bytes per cluster are known to follow the count).
func consumeHeader(r *flatwire.Reader, magic uint32, what string, perCluster int) (int, error) {
	r.Magic(magic, what)
	codec := r.U8()
	k := r.Count(perCluster)
	if err := r.Err(); err != nil {
		return 0, err
	}
	if codec != flatwire.CodecXor {
		return 0, fmt.Errorf("%w: unknown codec version %d", flatwire.ErrMalformed, codec)
	}
	return k, nil
}

// ConsumeFlatAccumWire decodes one flat AccumWire from the front of r,
// which may carry further payload after it — the kmeans.assign reply
// concatenates the partial with assignment and distance blocks. A
// negative moved count is malformed; FromWire checks the upper bound
// against the shard.
func ConsumeFlatAccumWire(r *flatwire.Reader) (*AccumWire, error) {
	r.Magic(accumWireMagic, "kmeans accum")
	changed := r.I64()
	if r.Err() == nil && changed < 0 {
		r.Fail("moved count %d is negative", changed)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("kmeans: decode accum: %w", err)
	}
	return &AccumWire{Changed: int(changed)}, nil
}

// DecodeFlatAccumWire decodes a standalone flat AccumWire buffer,
// validating magic, counts, truncation and trailing bytes.
func DecodeFlatAccumWire(b []byte) (*AccumWire, error) {
	r := flatwire.NewReader(b)
	w, err := ConsumeFlatAccumWire(r)
	if err != nil {
		return nil, err
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("kmeans: decode accum: %w", err)
	}
	return w, nil
}

// AppendFlatCentroids appends the centroid matrix and its squared norms as
// one flat centroid block: every row's non-zero entries in index order
// (±0 entries are dropped — a zero contributes the same bits to every dot
// product whatever its sign) and the norms as the bits the coordinator
// computed, so a worker's distances are the coordinator's.
func AppendFlatCentroids(dst []byte, centroids [][]float64, cnorms []float64) []byte {
	rows := make([]sparse.Vector, len(centroids))
	total := 0
	for j := range rows {
		rows[j] = sparse.FromDense(centroids[j])
		total += len(rows[j].Idx)
	}
	// Capacity bound: a varint-coded index is at most 5 bytes, an XOR-coded
	// value block at most 1 + 9 bytes per value, and the XOR coder's word
	// stores may overhang the last block by 8 bytes.
	k := len(rows)
	b := flatwire.AppendU32(slices.Grow(dst, 4+1+4+8*k+4*k+4+5*total+k+9*total+8), centroidsMagic)
	b = flatwire.AppendU8(b, flatwire.CodecXor)
	b = flatwire.AppendU32(b, uint32(len(rows)))
	b = flatwire.AppendF64s(b, cnorms)
	return sparse.AppendFlatVectors(b, rows)
}

// DecodeFlatCentroids decodes a flat centroid block into the caller's
// recycled dense matrix and norms, overwriting both; the block must carry
// exactly len(centroids) rows, every index inside its row. A rejected block
// leaves the destination untouched. Errors wrap flatwire.ErrMalformed.
func DecodeFlatCentroids(b []byte, centroids [][]float64, cnorms []float64) error {
	r := flatwire.NewReader(b)
	k, err := consumeHeader(r, centroidsMagic, "kmeans centroids", 12) // ≥ 8 (norm) + 4 (nnz) bytes per row
	if err != nil {
		return fmt.Errorf("kmeans: decode centroids: %w", err)
	}
	if k != len(centroids) || k != len(cnorms) {
		return fmt.Errorf("kmeans: decode centroids: %w: block has %d rows, want %d", flatwire.ErrMalformed, k, len(centroids))
	}
	norms := r.F64s(k)
	rows := sparse.ConsumeFlatVectors(r, k)
	if err := r.Done(); err != nil {
		return fmt.Errorf("kmeans: decode centroids: %w", err)
	}
	for j, row := range rows {
		if n := len(row.Idx); n > 0 && int64(row.Idx[n-1]) >= int64(len(centroids[j])) {
			return fmt.Errorf("kmeans: decode centroids: %w: row %d entry %d out of dimension %d",
				flatwire.ErrMalformed, j, row.Idx[n-1], len(centroids[j]))
		}
	}
	copy(cnorms, norms)
	for j, row := range rows {
		cent := centroids[j]
		clear(cent)
		for e, ix := range row.Idx {
			cent[ix] = row.Val[e]
		}
	}
	return nil
}
