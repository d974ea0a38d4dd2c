package kmeans

import (
	"fmt"
	"slices"

	"hpa/internal/flatwire"
	"hpa/internal/sparse"
)

// This file is the flat wire codec of AccumWire — the per-iteration
// worker→coordinator payload of the distributed K-Means loop, shipped once
// per shard per iteration. The flat layout concatenates every cluster's
// sparse centroid-sum entries into two contiguous blocks and decodes them
// into two shared backing arrays, so absorbing a shard's accumulator is a
// few allocations. Floats
// travel as IEEE 754 bit patterns: the decoded accumulator state is
// bit-identical, which the deterministic ordered reduce requires.
//
// Layout (little-endian):
//
//	magic u32 | codec u8 | k u32
//	inertia f64 | changed i64
//	counts i64 × k         (cluster member counts)
//	rows                   (the k clusters' entries, sparse.AppendFlatVectors:
//	                        nnz u32 × k | total u32 | idx deltas | XOR values)
//
// The codec byte is the layout version. flatwire.CodecXor is the only one;
// any other version is malformed.
//
// The centroid block — the coordinator→worker payload of the same loop,
// shipped once per worker per iteration — is the same rows under its own
// header:
//
//	magic u32 | codec u8 | k u32 | cnorms f64 × k | rows

// accumWireMagic identifies a flat AccumWire buffer.
const accumWireMagic uint32 = 0x48504157 // "HPAW"

// centroidsMagic identifies a flat centroid block.
const centroidsMagic uint32 = 0x4850434e // "HPCN"

// EncodeFlat returns the accumulator wire form in flat layout, appended to
// dst. dst grows once, to a worst-case bound, so a nil dst costs one
// allocation and a recycled one that is large enough none. The receiver
// is not modified.
func (w *AccumWire) EncodeFlat(dst []byte) []byte {
	k := len(w.Idx)
	total := 0
	for j := range w.Idx {
		total += len(w.Idx[j])
	}
	// Capacity bound: a varint-coded index is at most 5 bytes, an XOR-coded
	// value block at most 1 + 9 bytes per value, and the XOR coder's word
	// stores may overhang the last block by 8 bytes.
	b := slices.Grow(dst, 4+1+4+8+8+8*k+4*k+4+5*total+k+9*total+8)
	b = flatwire.AppendU32(b, accumWireMagic)
	b = flatwire.AppendU8(b, flatwire.CodecXor)
	b = flatwire.AppendU32(b, uint32(k))
	b = flatwire.AppendF64(b, w.Inertia)
	b = flatwire.AppendI64(b, int64(w.Changed))
	b = flatwire.AppendI64s(b, w.Counts)
	// The clusters as sparse rows, viewed from a stack array up to 32
	// clusters, so the buffer is an encode's only allocation.
	var views [32]sparse.Vector
	rows := views[:0]
	for j := range w.Idx {
		rows = append(rows, sparse.Vector{Idx: w.Idx[j], Val: w.Val[j]})
	}
	return sparse.AppendFlatVectors(b, rows)
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
// concatenates the accumulator with assignment and distance blocks.
// Structural validation only; FromWire still checks cluster count and
// dimension bounds against the receiving accumulator.
func ConsumeFlatAccumWire(r *flatwire.Reader) (*AccumWire, error) {
	k, err := consumeHeader(r, accumWireMagic, "kmeans accum", 12) // ≥ 8 (counts) + 4 (nnz) bytes per cluster
	if err != nil {
		return nil, fmt.Errorf("kmeans: decode accum: %w", err)
	}
	w := &AccumWire{
		Inertia: r.F64(),
		Changed: int(r.I64()),
		Counts:  r.I64s(k),
		Idx:     make([][]uint32, k),
		Val:     make([][]float64, k),
	}
	rows := sparse.ConsumeFlatVectors(r, k)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("kmeans: decode accum: %w", err)
	}
	for j := range rows {
		w.Idx[j], w.Val[j] = rows[j].Idx, rows[j].Val
	}
	return w, nil
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
	// The same capacity bound EncodeFlat grows by.
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
