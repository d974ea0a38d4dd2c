package kmeans

import (
	"encoding/binary"
	"fmt"
	"math"

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
//	           idx deltas | values f64 × total)
//
// The IDs ascend strictly and lie below k, so n <= k; a full block is the
// one that lists every cluster. The codec byte is the layout version.
// flatwire.CodecRaw is the only one; any other version is malformed.

// accumWireMagic identifies a flat AccumWire buffer.
const accumWireMagic uint32 = 0x4850414d // "HPAM"

// centroidsMagic identifies a flat centroid block.
const centroidsMagic uint32 = 0x4850434e // "HPCN"

// EncodeFlat returns the partial's wire form in flat layout, appended to
// dst. The receiver is not modified.
func (w *AccumWire) EncodeFlat(dst []byte) []byte {
	b := flatwire.AppendU32(flatwire.Reserve(dst, 4+8), accumWireMagic)
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
// so a worker's distances are the coordinator's. The rows are gathered
// straight from the dense matrix, in two passes — one sizes the block, so
// the buffer grows once, the other writes it.
func AppendFlatCentroids(dst []byte, centroids [][]float64, cnorms []float64, rows []bool) []byte {
	k := len(centroids)
	n, total, idxBytes := 0, 0, 0
	for j, cent := range centroids {
		if rows != nil && !rows[j] {
			continue
		}
		n++
		prev := 0
		for t, x := range cent {
			nz := nonzero(x)
			total += nz
			idxBytes += nz * flatwire.SizeUvarint(uint64(t-prev))
			prev += nz * (t - prev)
		}
	}
	b := flatwire.Reserve(dst, 4+1+4+4+n*(4+8+4)+4+idxBytes+8*total)
	b = flatwire.AppendU32(b, centroidsMagic)
	b = flatwire.AppendU8(b, flatwire.CodecRaw)
	b = flatwire.AppendU32(b, uint32(k))
	b = flatwire.AppendU32(b, uint32(n))
	for j := range centroids {
		if rows == nil || rows[j] {
			b = flatwire.AppendU32(b, uint32(j))
		}
	}
	for j := range centroids {
		if rows == nil || rows[j] {
			b = flatwire.AppendF64(b, cnorms[j])
		}
	}
	// One sweep per row writes its index deltas at ip, its values at vp
	// and then its count into the nnz block. Every entry is written, and
	// only a nonzero advances the cursors, so the next nonzero overwrites
	// what a zero wrote: in bounds as long as one is still to come, which
	// is why a sweep stops at the block's last nonzero.
	nnzAt := len(b)
	b = flatwire.AppendU32(b[:nnzAt+4*n], uint32(total))
	ip := len(b)
	vp := ip + idxBytes
	b = b[:vp+8*total]
	left, row := total, 0
	for j, cent := range centroids {
		if rows != nil && !rows[j] {
			continue
		}
		nnz, prev := 0, 0
		for t := 0; t < len(cent) && left > 0; t++ {
			x := cent[t]
			nz := nonzero(x)
			if d := t - prev; d < 0x80 {
				b[ip] = byte(d)
				ip += nz
			} else if nz == 1 {
				ip += len(flatwire.AppendUvarint(b[ip:ip], uint64(d)))
			}
			binary.LittleEndian.PutUint64(b[vp:], math.Float64bits(x))
			vp += 8 * nz
			nnz += nz
			left -= nz
			prev += nz * (t - prev)
		}
		binary.LittleEndian.PutUint32(b[nnzAt+4*row:], uint32(nnz))
		row++
	}
	return b
}

// nonzero is 1 for x != 0 (NaN included, ±0 excluded) and 0 otherwise,
// without a branch: a centroid row's zero pattern defeats the branch
// predictor (sparse.FromDense counts the same way).
func nonzero(x float64) int {
	u := math.Float64bits(x) << 1
	return int((u | -u) >> 63)
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
	dim := func(j uint32) int { return len(centroids[j]) }
	return decodeCentroids(b, len(centroids), dim, cnorms, full, func(j uint32, row *sparse.Vector) {
		cent := centroids[j]
		clear(cent)
		for e, ix := range row.Idx {
			cent[ix] = row.Val[e]
		}
	})
}

// DecodeFlatCentroidLanes is DecodeFlatCentroids into a block layout: each
// row the block carries replaces its centroid's lane
// (sparse.BlockLayout.SetRow), leaving the lanes DotsInto reads exactly as
// a dense decode followed by FillRange of the same rows would. It is how a
// worker that scans with the blocked kernel keeps no dense matrix.
func DecodeFlatCentroidLanes(b []byte, layout *sparse.BlockLayout, cnorms []float64, full bool) ([]uint32, error) {
	dim := func(uint32) int { return layout.Dim() }
	return decodeCentroids(b, len(cnorms), dim, cnorms, full, func(j uint32, row *sparse.Vector) {
		layout.SetRow(int(j), row)
	})
}

// decodeCentroids validates a block for k clusters whose row j has
// dimension dim(j), then writes every norm it carries and hands each row to
// set.
func decodeCentroids(b []byte, k int, dim func(uint32) int, cnorms []float64, full bool, set func(uint32, *sparse.Vector)) ([]uint32, error) {
	r := flatwire.NewReader(b)
	r.Magic(centroidsMagic, "kmeans centroids")
	codec := r.U8()
	bk := int(r.U32())
	n := r.Count(16) // ≥ 4 (ID) + 8 (norm) + 4 (nnz) bytes per row
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("kmeans: decode centroids: %w", err)
	}
	switch {
	case codec != flatwire.CodecRaw:
		r.Fail("unknown codec version %d", codec)
	case bk != k || k != len(cnorms):
		r.Fail("block is for %d clusters, want %d", bk, k)
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
		if m := len(row.Idx); m > 0 && int64(row.Idx[m-1]) >= int64(dim(ids[i])) {
			return nil, fmt.Errorf("kmeans: decode centroids: %w: row %d (cluster %d) entry %d out of dimension %d",
				flatwire.ErrMalformed, i, ids[i], row.Idx[m-1], dim(ids[i]))
		}
	}
	for i := range rows {
		cnorms[ids[i]] = norms[i]
		set(ids[i], &rows[i])
	}
	return ids, nil
}
