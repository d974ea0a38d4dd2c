package sparse

// Builder assembles a sparse vector from components appended in arbitrary
// index order, possibly with duplicates; Build sorts by index and sums
// duplicates. The builder's buffers are recycled by Reset, so a single
// builder per worker serves an entire corpus without per-document
// allocation — the paper's data-structure-recycling optimization applied to
// vector construction.
type Builder struct {
	idx []uint32
	val []float64
	// tmpIdx and tmpVal are the radix sort's scatter targets; a pass swaps
	// them with idx and val.
	tmpIdx []uint32
	tmpVal []float64
}

// Add appends a component. Zero values are kept until Build, where the
// summed value decides whether the component survives.
func (b *Builder) Add(idx uint32, val float64) {
	b.idx = append(b.idx, idx)
	b.val = append(b.val, val)
}

// Len returns the number of pending components (before deduplication).
func (b *Builder) Len() int { return len(b.idx) }

// Reset clears the builder, retaining capacity.
func (b *Builder) Reset() {
	b.idx = b.idx[:0]
	b.val = b.val[:0]
}

// Build sorts, merges duplicates by summation, drops zero sums, and appends
// the result into dst (which is reset first). dst's buffers are reused when
// large enough.
func (b *Builder) Build(dst *Vector) {
	dst.Reset()
	if len(b.idx) == 0 {
		return
	}
	// Stable sort: values sharing an index are summed in insertion order,
	// so Build is bitwise deterministic and matches a dense accumulation
	// of the same Add sequence.
	b.sortPending()
	var curIdx uint32 = b.idx[0]
	curVal := b.val[0]
	flush := func() {
		if curVal != 0 {
			dst.Idx = append(dst.Idx, curIdx)
			dst.Val = append(dst.Val, curVal)
		}
	}
	for i := 1; i < len(b.idx); i++ {
		if b.idx[i] == curIdx {
			curVal += b.val[i]
			continue
		}
		flush()
		curIdx, curVal = b.idx[i], b.val[i]
	}
	flush()
}
