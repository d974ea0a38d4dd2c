package sparse

import "slices"

// insertionCutover is the pending length below which the builder sorts by
// insertion: under it, clearing and scanning a radix sort's histograms
// costs more than the element moves they save.
const insertionCutover = 48

// sortPending orders the builder's pending (index, value) pairs by index,
// stably: pairs sharing an index keep their insertion order. Build folds
// duplicates in the sorted order, so its sums are the same bits whichever
// stable sort ran. Input that arrived sorted (a dictionary iterating in key
// order) is left as it is after one scan, short input is insertion-sorted,
// and the rest takes one LSD radix pass per byte its largest index needs,
// skipping any byte every index shares.
func (b *Builder) sortPending() {
	n := len(b.idx)
	if slices.IsSorted(b.idx) {
		return
	}
	if n < insertionCutover {
		insertionSort(b.idx, b.val)
		return
	}
	// Histograms of the bytes the largest index needs: the low two always
	// (vocabulary-sized indices fit in them), the high two only if used.
	var count [4][256]uint32
	var high uint32
	for _, id := range b.idx {
		count[0][byte(id)]++
		count[1][byte(id>>8)]++
		high |= id >> 16
	}
	passes := 2
	if high != 0 {
		passes = 4
		for _, id := range b.idx {
			count[2][byte(id>>16)]++
			count[3][byte(id>>24)]++
		}
	}
	b.tmpIdx = slices.Grow(b.tmpIdx[:0], n)[:n]
	b.tmpVal = slices.Grow(b.tmpVal[:0], n)[:n]
	for d := 0; d < passes; d++ {
		c := &count[d]
		shift := 8 * d
		if c[byte(b.idx[0]>>shift)] == uint32(n) {
			continue // every index has this byte
		}
		var sum uint32
		for i, k := range c {
			c[i], sum = sum, sum+k
		}
		dstIdx, dstVal := b.tmpIdx, b.tmpVal
		for i, id := range b.idx {
			at := &c[byte(id>>shift)]
			dstIdx[*at], dstVal[*at] = id, b.val[i]
			*at++
		}
		b.idx, b.tmpIdx = b.tmpIdx, b.idx
		b.val, b.tmpVal = b.tmpVal, b.val
	}
}

// insertionSort stably sorts parallel (idx, val) slices by idx.
func insertionSort(idx []uint32, val []float64) {
	for i := 1; i < len(idx); i++ {
		ki, kv := idx[i], val[i]
		j := i - 1
		for j >= 0 && idx[j] > ki {
			idx[j+1], val[j+1] = idx[j], val[j]
			j--
		}
		idx[j+1], val[j+1] = ki, kv
	}
}

// BuildDistinct is Build for the common case where every pending index is
// distinct (e.g. one entry per distinct word of a document): with no sums
// to fold it copies the sorted pairs straight out, into arrays sized once.
// Zero values are dropped. It panics if a duplicate index is present,
// because a caller that promised distinct indices has a bug.
func (b *Builder) BuildDistinct(dst *Vector) {
	dst.Reset()
	if len(b.idx) == 0 {
		return
	}
	b.sortPending()
	// One allocation per array, not a doubling chain: the pending count
	// bounds the result.
	dst.Idx = slices.Grow(dst.Idx, len(b.idx))
	dst.Val = slices.Grow(dst.Val, len(b.idx))
	var prev uint32
	for i, id := range b.idx {
		if i > 0 && id == prev {
			panic("sparse: BuildDistinct with duplicate index")
		}
		prev = id
		if v := b.val[i]; v != 0 {
			dst.Idx = append(dst.Idx, id)
			dst.Val = append(dst.Val, v)
		}
	}
}
