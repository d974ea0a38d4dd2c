package sparse

import "slices"

// pairSort sorts parallel (idx, val) slices by idx using an inlined
// median-of-three quicksort with insertion sort for small ranges. It avoids
// sort.Interface's per-comparison indirect calls, which dominate the cost
// of building one sparse vector per document in the TF/IDF transform phase
// (the C++ implementation the paper measures gets this for free from
// inlined std::sort). The sort is NOT stable; callers with duplicate
// indices that need deterministic summation order use the stable path.
func pairSort(idx []uint32, val []float64) {
	for len(idx) > 24 {
		p := partition(idx, val)
		// Recurse into the smaller side, loop on the larger: O(log n) stack.
		if p < len(idx)-p-1 {
			pairSort(idx[:p], val[:p])
			idx, val = idx[p+1:], val[p+1:]
		} else {
			pairSort(idx[p+1:], val[p+1:])
			idx, val = idx[:p], val[:p]
		}
	}
	insertionSort(idx, val)
}

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

// partition performs Lomuto partitioning around a median-of-three pivot.
func partition(idx []uint32, val []float64) int {
	n := len(idx)
	mid := n / 2
	// Median of first, middle, last moved to position n-1's predecessor.
	if idx[mid] < idx[0] {
		swap(idx, val, mid, 0)
	}
	if idx[n-1] < idx[0] {
		swap(idx, val, n-1, 0)
	}
	if idx[n-1] < idx[mid] {
		swap(idx, val, n-1, mid)
	}
	swap(idx, val, mid, n-1) // pivot to end
	pivot := idx[n-1]
	store := 0
	for i := 0; i < n-1; i++ {
		if idx[i] < pivot {
			swap(idx, val, i, store)
			store++
		}
	}
	swap(idx, val, store, n-1)
	return store
}

func swap(idx []uint32, val []float64, i, j int) {
	idx[i], idx[j] = idx[j], idx[i]
	val[i], val[j] = val[j], val[i]
}

// isSortedStrict reports whether idx is strictly increasing.
func isSortedStrict(idx []uint32) bool {
	for i := 1; i < len(idx); i++ {
		if idx[i] <= idx[i-1] {
			return false
		}
	}
	return true
}

// BuildDistinct is Build for the common case where every pending index is
// distinct (e.g. one entry per distinct word of a document): it uses the
// fast non-stable pair sort, skipping it entirely when the input arrived
// already sorted (as it does when the upstream dictionary iterates in key
// order). Zero values are dropped. It panics if a duplicate index is
// present, because silently resolving duplicates non-deterministically
// would corrupt results.
func (b *Builder) BuildDistinct(dst *Vector) {
	dst.Reset()
	if len(b.idx) == 0 {
		return
	}
	if !isSortedStrict(b.idx) {
		pairSort(b.idx, b.val)
	}
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
