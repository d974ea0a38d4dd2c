package sparse

// This file implements the blocked distance kernel's centroid layout: a
// transposed, block-major copy of the K-Means centroid matrix that lets one
// sweep of a document's nonzeros serve a whole block of centroids.
//
// The scalar assignment kernel computes k dot products per document by
// calling DotDense once per centroid — re-walking the document's Idx/Val
// arrays k times and streaming k different dense centroid rows through the
// cache. The blocked layout stores the same floats transposed in blocks of
// B centroids ("lanes"): block bi holds, contiguously per component index,
// the B values centroids[bi·B+0..bi·B+B-1][idx]. DotsInto then walks the
// document's nonzeros once per block, accumulating B dot products in B
// register-resident accumulators — one pass over Idx/Val serves B
// centroids, and each loaded cache line of the layout feeds all B lanes.
// On amd64 with AVX2 the 8-lane kernel is assembly (block_amd64.s): YMM
// accumulators, and one sweep serving two blocks at a time. The pure-Go
// dots8 and dots4 are the reference, and the only kernels elsewhere.
//
// Bit-identity: each lane's accumulator starts at 0 and adds the products
// v.Val[i] * centroid[v.Idx[i]] in ascending i order, stopping at the same
// idx >= dim guard, each product and each sum rounded once — the
// operations DotDense performs for that centroid, in its order. Blocking
// only changes which centroid's accumulation advances when, so every
// non-NaN dot (and every distance derived from it) is bitwise identical to
// the scalar kernel's at any block size and on either kernel; a NaN dot
// stays a NaN with an unspecified payload (see the package doc, Rounding).
type BlockLayout struct {
	k, dim, b int
	blocks    [][]float64
}

// NewBlockLayout allocates a layout for k centroids of the given dense
// dimensionality, transposed in blocks of b lanes (4 or 8 — the widths with
// a register-resident specialization). The tail block's unused lanes stay
// zero. Call Fill before the first DotsInto, and refill the changed rows
// (FillRange) after every centroid update.
func NewBlockLayout(k, dim, b int) *BlockLayout {
	if k < 1 || dim < 0 || (b != 4 && b != 8) {
		panic("sparse: invalid block layout shape")
	}
	nb := (k + b - 1) / b
	l := &BlockLayout{k: k, dim: dim, b: b, blocks: make([][]float64, nb)}
	for i := range l.blocks {
		l.blocks[i] = make([]float64, dim*b)
	}
	return l
}

// BlockSize returns the lane count B.
func (l *BlockLayout) BlockSize() int { return l.b }

// Blocks returns the number of blocks, ceil(k / B).
func (l *BlockLayout) Blocks() int { return len(l.blocks) }

// Dim returns the dense dimensionality.
func (l *BlockLayout) Dim() int { return l.dim }

// Fill re-transposes the current centroids into the layout, reusing the
// allocation. Rows shorter than dim are zero-extended (DotDense treats the
// missing components as zero via its idx >= len guard; an explicit zero
// lane contributes the same ±0 products, so the dots stay bit-identical).
func (l *BlockLayout) Fill(centroids [][]float64) {
	for bi := range l.blocks {
		l.FillRange(centroids, nil, bi, 0, l.dim)
	}
}

// FillRange is Fill restricted to block bi, terms [lo, hi) and the lanes
// whose centroid rows marks (every lane when rows is nil): a tile of the
// copy that shares no cache line with another term range's tile (a term's
// B lanes are one line), so tiles may fill concurrently. Within the tile
// each lane is one sequential read of its centroid row; an unmarked lane
// keeps the bits it holds, so after a centroid update only the rows that
// changed need re-transposing, and a block with none costs nothing.
func (l *BlockLayout) FillRange(centroids [][]float64, rows []bool, bi, lo, hi int) {
	if len(centroids) != l.k || rows != nil && len(rows) != l.k {
		panic("sparse: BlockLayout.Fill centroid count mismatch")
	}
	b := l.b
	tile := l.blocks[bi][lo*b : hi*b]
	// Tail padding lanes are zero from allocation and never written.
	for lane, cent := range centroids[bi*b : min(bi*b+b, l.k)] {
		if rows != nil && !rows[bi*b+lane] {
			continue
		}
		cent = cent[min(lo, len(cent)):min(hi, len(cent))]
		for i, x := range cent {
			tile[i*b+lane] = x
		}
		for i := len(cent); i < hi-lo; i++ {
			tile[i*b+lane] = 0
		}
	}
}

// SetRow overwrites centroid j's lane with the sparse row v: zero at every
// term but v's entries, the bits FillRange leaves after copying the dense
// row v scatters into. v's indices must lie below the dimension. It is how
// a centroid row that arrives sparse reaches the lanes without a dense
// copy.
func (l *BlockLayout) SetRow(j int, v *Vector) {
	b := l.b
	lane := l.blocks[j/b][j%b:]
	for t := 0; t < l.dim; t++ {
		lane[t*b] = 0
	}
	for e, ix := range v.Idx {
		lane[int(ix)*b] = v.Val[e]
	}
}

// DotsInto computes dots[j] = DotDense(v, centroids[j]) for every j < K in
// one sweep of v per block (per pair of blocks on AVX2), bit-identical to
// the scalar calls (see the type comment). dots must hold k rounded up to
// a whole number of blocks; entries past k-1 are scratch. Allocates
// nothing.
func (l *BlockLayout) DotsInto(v *Vector, dots []float64) {
	switch {
	case l.b == 4:
		l.dots4(v, dots)
	case useAVX2:
		l.dotsAVX2(v, dots)
	default:
		l.dots8(v, dots)
	}
}

// dots8 is the 8-lane specialization: eight scalar accumulators the
// compiler keeps in registers across the nonzero sweep.
func (l *BlockLayout) dots8(v *Vector, dots []float64) {
	dim := uint32(l.dim)
	idxs, vals := v.Idx, v.Val
	for bi, blk := range l.blocks {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for i, idx := range idxs {
			if idx >= dim {
				break
			}
			x := vals[i]
			row := blk[int(idx)*8 : int(idx)*8+8]
			s0 += float64(x * row[0])
			s1 += float64(x * row[1])
			s2 += float64(x * row[2])
			s3 += float64(x * row[3])
			s4 += float64(x * row[4])
			s5 += float64(x * row[5])
			s6 += float64(x * row[6])
			s7 += float64(x * row[7])
		}
		d := dots[bi*8 : bi*8+8]
		d[0], d[1], d[2], d[3] = s0, s1, s2, s3
		d[4], d[5], d[6], d[7] = s4, s5, s6, s7
	}
}

// dots4 is the 4-lane specialization.
func (l *BlockLayout) dots4(v *Vector, dots []float64) {
	dim := uint32(l.dim)
	idxs, vals := v.Idx, v.Val
	for bi, blk := range l.blocks {
		var s0, s1, s2, s3 float64
		for i, idx := range idxs {
			if idx >= dim {
				break
			}
			x := vals[i]
			row := blk[int(idx)*4 : int(idx)*4+4]
			s0 += float64(x * row[0])
			s1 += float64(x * row[1])
			s2 += float64(x * row[2])
			s3 += float64(x * row[3])
		}
		d := dots[bi*4 : bi*4+4]
		d[0], d[1], d[2], d[3] = s0, s1, s2, s3
	}
}
