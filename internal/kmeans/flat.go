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
// shipped once per worker per iteration — carries the rows of the
// centroids an update rewrote, each with its cluster ID and squared norm,
// every row's nonzeros in sparse form:
//
//	magic u32 | codec u8 | k u32 | n u32 | ids u32 × n | cnorms f64 × n
//	rows      (sparse.AppendFlatVectors: nnz u32 × n | total u32 |
//	           idx deltas | XOR values)
//
// The IDs ascend strictly and lie below k, so n <= k; a full block is the
// one that lists every cluster. The codec byte is the layout version.
// flatwire.CodecXor is the only one; any other version is malformed.

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

// AppendFlatCentroids appends the rows of the centroid matrix that rows
// marks (every row when rows is nil) and their squared norms as one flat
// centroid block: each row's non-zero entries in index order (±0 entries
// are dropped — a zero contributes the same bits to every dot product
// whatever its sign) and the norms as the bits the coordinator computed,
// so a worker's distances are the coordinator's.
func AppendFlatCentroids(dst []byte, centroids [][]float64, cnorms []float64, rows []bool) []byte {
	k := len(centroids)
	ids := make([]uint32, 0, k)
	for j := range centroids {
		if rows == nil || rows[j] {
			ids = append(ids, uint32(j))
		}
	}
	vecs := make([]sparse.Vector, len(ids))
	norms := make([]float64, len(ids))
	total := 0
	for r, j := range ids {
		vecs[r] = sparse.FromDense(centroids[j])
		norms[r] = cnorms[j]
		total += len(vecs[r].Idx)
	}
	// Capacity bound: a varint-coded index is at most 5 bytes, an XOR-coded
	// value block at most 1 + 9 bytes per value, and the XOR coder's word
	// stores may overhang the last block by 8 bytes.
	n := len(ids)
	b := flatwire.AppendU32(slices.Grow(dst, 4+1+4+4+4*n+8*n+4*n+4+5*total+n+9*total+8), centroidsMagic)
	b = flatwire.AppendU8(b, flatwire.CodecXor)
	b = flatwire.AppendU32(b, uint32(k))
	b = flatwire.AppendU32(b, uint32(n))
	b = flatwire.AppendU32s(b, ids)
	b = flatwire.AppendF64s(b, norms)
	return sparse.AppendFlatVectors(b, vecs)
}

// DecodeFlatCentroids decodes a flat centroid block into the caller's
// recycled dense matrix and norms, overwriting the rows the block carries
// and leaving every other row as it was; it returns the IDs of the rows it
// overwrote, ascending. The block must be for len(centroids) clusters,
// carry strictly ascending IDs below that count — every one of them when
// full is set, the form a worker with no matrix to update needs — and keep
// every index inside its row. A rejected block leaves the destination
// untouched. Errors wrap flatwire.ErrMalformed.
func DecodeFlatCentroids(b []byte, centroids [][]float64, cnorms []float64, full bool) ([]uint32, error) {
	r := flatwire.NewReader(b)
	r.Magic(centroidsMagic, "kmeans centroids")
	codec := r.U8()
	k := int(r.U32())
	n := r.Count(16) // ≥ 4 (ID) + 8 (norm) + 4 (nnz) bytes per row
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("kmeans: decode centroids: %w", err)
	}
	switch {
	case codec != flatwire.CodecXor:
		r.Fail("unknown codec version %d", codec)
	case k != len(centroids) || k != len(cnorms):
		r.Fail("block is for %d clusters, want %d", k, len(centroids))
	case n > k:
		r.Fail("block has %d rows for %d clusters", n, k)
	case full && n != k:
		r.Fail("full block has %d rows, want %d", n, k)
	}
	ids := r.U32s(n)
	for i, j := range ids {
		if r.Err() == nil && (int64(j) >= int64(k) || i > 0 && j <= ids[i-1]) {
			r.Fail("row %d has cluster ID %d: IDs must ascend strictly below %d", i, j, k)
		}
	}
	norms := r.F64s(n)
	rows := sparse.ConsumeFlatVectors(r, n)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("kmeans: decode centroids: %w", err)
	}
	for i, row := range rows {
		if m := len(row.Idx); m > 0 && int64(row.Idx[m-1]) >= int64(len(centroids[ids[i]])) {
			return nil, fmt.Errorf("kmeans: decode centroids: %w: row %d (cluster %d) entry %d out of dimension %d",
				flatwire.ErrMalformed, i, ids[i], row.Idx[m-1], len(centroids[ids[i]]))
		}
	}
	for i, row := range rows {
		j := ids[i]
		cnorms[j] = norms[i]
		cent := centroids[j]
		clear(cent)
		for e, ix := range row.Idx {
			cent[ix] = row.Val[e]
		}
	}
	return ids, nil
}
