package par

import "sync"

// Reducer is the analogue of a Cilk reducer hyperobject: a set of private
// views of an accumulator, each used by at most one strand at a time, merged
// into a single result after the parallel region.
//
// Unlike Cilk, views are not keyed by worker identity (which Go does not
// expose) but claimed and released per loop chunk. Claim pops a free view or
// creates one; Release returns it. Because a view is held exclusively
// between Claim and Release, bodies may mutate it without synchronization.
// The number of views created is bounded by the peak concurrency of the
// region, not by the iteration count, so per-view state may be large (e.g.
// a strand's whole dictionary).
type Reducer[T any] struct {
	mu      sync.Mutex
	free    []T
	all     []T
	newView func() T
}

// NewReducer creates a reducer whose views are produced by newView.
func NewReducer[T any](newView func() T) *Reducer[T] {
	return &Reducer[T]{newView: newView}
}

// Claim returns a view for exclusive use by the calling strand.
func (r *Reducer[T]) Claim() T {
	r.mu.Lock()
	if n := len(r.free); n > 0 {
		v := r.free[n-1]
		r.free = r.free[:n-1]
		r.mu.Unlock()
		return v
	}
	r.mu.Unlock()
	v := r.newView()
	r.mu.Lock()
	r.all = append(r.all, v)
	r.mu.Unlock()
	return v
}

// Release returns a view claimed by Claim.
func (r *Reducer[T]) Release(v T) {
	r.mu.Lock()
	r.free = append(r.free, v)
	r.mu.Unlock()
}

// Views returns every view ever created. It must only be called outside
// parallel regions (all views released).
func (r *Reducer[T]) Views() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.free) != len(r.all) {
		panic("par: Reducer.Views called with views still claimed")
	}
	return r.all
}

// Len reports how many views have been created so far.
func (r *Reducer[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.all)
}
