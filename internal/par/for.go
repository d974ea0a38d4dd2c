package par

// This file implements parallel loops over integer ranges, the workhorse of
// both operators in the paper ("the parallel loops in K-means clustering ...
// are all loops iterating over the documents").
//
// Loops are decomposed by recursive halving, Cilk-style: each task splits
// its range, spawns one half, and recurses into the other until the range is
// at or below the grain size. Idle workers steal the largest outstanding
// subranges first, which balances load even when per-iteration cost is
// highly skewed (as it is for variable-length documents).

// GrainSize picks a grain targeting roughly 8 chunks per worker, clamped to
// at least 1. Loops with very cheap bodies should pass a larger explicit
// grain.
func (p *Pool) GrainSize(n int) int {
	g := n / (8 * p.n)
	if g < 1 {
		g = 1
	}
	return g
}

// For executes body(i) for every i in [lo, hi) in parallel. grain <= 0
// selects an automatic grain size. For returns when all iterations have
// completed.
func (p *Pool) For(lo, hi, grain int, body func(i int)) {
	p.ForRange(lo, hi, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForRange executes body over disjoint subranges covering [lo, hi) in
// parallel. Subrange boundaries are determined by recursive halving down to
// the grain size and are independent of the number of workers.
func (p *Pool) ForRange(lo, hi, grain int, body func(lo, hi int)) {
	if hi <= lo {
		return
	}
	if grain <= 0 {
		grain = p.GrainSize(hi - lo)
	}
	if p.n == 1 || hi-lo <= grain {
		body(lo, hi)
		return
	}
	g := p.NewGroup()
	var split func(lo, hi int)
	split = func(lo, hi int) {
		for hi-lo > grain {
			mid := lo + (hi-lo)/2
			l, h := mid, hi
			g.Spawn(func() { split(l, h) })
			hi = mid
		}
		body(lo, hi)
	}
	split(lo, hi)
	g.Wait()
}
