package sparse

import "hpa/internal/flatwire"

// This file is the flat wire form of a batch of sparse rows — the block
// every payload that ships sparse vectors shares (a transform reply's score
// vectors, a loop shard's documents, a K-Means iteration's centroids, a
// seed round's seed), so one decoder bounds, validates and is
// fuzzed for all of them.
//
// Layout (little-endian), for n rows whose count the enclosing layout
// carries:
//
//	nnz   u32 × n   (per-row entry counts)
//	total u32       (their sum; bounds the decoder's allocation)
//	idx             (every row's ascending indices as varint deltas,
//	                 flatwire.AppendDeltaU32s, the chain restarting per row)
//	val f64 × total (every row's values, flatwire.AppendF64s — IEEE 754
//	                 bits, exact)

// SizeFlatVectors returns the size of the rows' flat form.
func SizeFlatVectors(rows []Vector) int {
	n := 4*len(rows) + 4
	for i := range rows {
		prev := uint32(0)
		for _, ix := range rows[i].Idx {
			n += flatwire.SizeUvarint(uint64(ix-prev)) + 8
			prev = ix
		}
	}
	return n
}

// AppendFlatVectors appends the rows in flat form, growing b at most once.
func AppendFlatVectors(b []byte, rows []Vector) []byte {
	b = flatwire.Reserve(b, SizeFlatVectors(rows))
	total := 0
	for i := range rows {
		b = flatwire.AppendU32(b, uint32(len(rows[i].Idx)))
		total += len(rows[i].Idx)
	}
	b = flatwire.AppendU32(b, uint32(total))
	for i := range rows {
		b = flatwire.AppendDeltaU32s(b, rows[i].Idx)
	}
	for i := range rows {
		b = flatwire.AppendF64s(b, rows[i].Val)
	}
	return b
}

// ConsumeFlatVectors decodes n rows (n already validated against the
// buffer by the caller's Count(4) or better) into two shared backing
// arrays subsliced per row. Every row's indices must ascend strictly — the
// Vector invariant; a zero delta would otherwise smuggle in duplicates. A
// failure is recorded on the reader, and nil returned.
func ConsumeFlatVectors(r *flatwire.Reader, n int) []Vector {
	nnz := r.U32s(n)
	// Every entry occupies at least nine of the bytes that follow (a varint
	// index delta and a raw value), so a total the buffer cannot hold is
	// rejected here, before the backing arrays are sized from it.
	total := r.Count(9)
	sum := 0
	for _, c := range nnz {
		sum += int(c)
	}
	if r.Err() == nil && sum != total {
		r.Fail("per-row entry counts sum to %d, header says %d", sum, total)
	}
	if r.Err() != nil {
		return nil
	}
	idx := make([]uint32, total)
	val := make([]float64, total)
	rows := make([]Vector, n)
	off := 0
	for i, c := range nnz {
		end := off + int(c)
		rows[i] = Vector{Idx: idx[off:end:end], Val: val[off:end:end]}
		r.DeltaU32sInto(rows[i].Idx)
		off = end
	}
	r.F64sInto(val)
	for i := range rows {
		ix := rows[i].Idx
		for e := 1; e < len(ix) && r.Err() == nil; e++ {
			if ix[e] <= ix[e-1] {
				r.Fail("row %d indices not strictly ascending", i)
			}
		}
	}
	if r.Err() != nil {
		return nil
	}
	return rows
}
