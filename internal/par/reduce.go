package par

// TreeReduce merges items pairwise in parallel and returns the single
// combined value — the reduction counterpart of a Cilk divide-and-conquer
// sync tree. The merge tree is balanced and determined only by the item
// indices (split at the midpoint, left half merged with right half), never
// by timing, so a deterministic merge function yields a deterministic
// result no matter how many workers participate.
//
// merge may mutate and return either argument; each input value is passed
// to merge exactly once, and distinct merge invocations never share an
// argument, so merging "smaller into larger" in place is safe. The zero
// value of T is returned for an empty slice. The slice itself is not
// mutated. TreeReduce joins through the pool's helping join, so it may be
// called from inside a pool task.
func TreeReduce[T any](p *Pool, items []T, merge func(a, b T) T) T {
	switch len(items) {
	case 0:
		var zero T
		return zero
	case 1:
		return items[0]
	}
	mid := len(items) / 2
	var left T
	g := p.NewGroup()
	g.Spawn(func() { left = TreeReduce(p, items[:mid], merge) })
	right := TreeReduce(p, items[mid:], merge)
	g.Wait()
	return merge(left, right)
}
