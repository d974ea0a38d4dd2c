package kmeans

import "fmt"

// This file is the serialization boundary of the iterative shard contract:
// the wire form of an Accum — exactly the state a remote
// assignment worker ships back to the coordinator each iteration — plus
// the Clusterer accessors a coordinator needs to build per-iteration
// remote task arguments (live centroids and norms out, remotely computed
// assignments back in). Everything round-trips bit-exactly: sums, inertia
// and counts transfer as their original float64/int values, never through
// re-accumulation, so a loop whose shards ran in worker processes merges
// to the same centroids and the same convergence decisions as an
// in-process run.

// AccumWire is the wire form of an Accum (flat.go encodes it): per-cluster
// centroid sums in sparse ascending-index order, cluster counts, and the
// shard's inertia and moved-assignment tally.
type AccumWire struct {
	// Idx and Val hold, per cluster, the non-zero centroid-sum entries in
	// ascending index order.
	Idx [][]uint32
	Val [][]float64
	// Counts holds the per-cluster member counts.
	Counts []int64
	// Inertia is the shard's summed squared distance contribution.
	Inertia float64
	// Changed is the shard's moved-assignment count.
	Changed int
}

// Wire returns the accumulator set in serializable form. The receiver is
// not modified.
func (a *Accum) Wire() *AccumWire { return a.WireInto(nil) }

// WireInto is Wire recycling w's backing arrays (nil, or a wire form of
// another cluster count, allocates a fresh one) — a worker session ships
// one per iteration and keeps it.
func (a *Accum) WireInto(w *AccumWire) *AccumWire {
	if k := len(a.accs); w == nil || len(w.Idx) != k {
		w = &AccumWire{Idx: make([][]uint32, k), Val: make([][]float64, k), Counts: make([]int64, k)}
	}
	w.Inertia, w.Changed = a.inertia, a.changed
	for j, acc := range a.accs {
		w.Idx[j], w.Val[j] = acc.AppendSparse(w.Idx[j][:0], w.Val[j][:0])
		w.Counts[j] = acc.Count
	}
	return w
}

// FromWire resets the (recycled) accumulator set and loads the wire form
// into it — the inverse of Wire, bit-exact. It fails (without touching
// the receiver) when the cluster count does not match the receiver's or
// when any entry is out of the receiver's dimension — a malformed worker
// reply must surface as an error, never as a coordinator panic.
func (a *Accum) FromWire(w *AccumWire) error {
	if len(w.Idx) != len(a.accs) || len(w.Val) != len(a.accs) || len(w.Counts) != len(a.accs) {
		return fmt.Errorf("kmeans: accum wire has %d clusters, want %d", len(w.Idx), len(a.accs))
	}
	for j, acc := range a.accs {
		if len(w.Idx[j]) != len(w.Val[j]) {
			return fmt.Errorf("kmeans: accum wire cluster %d has %d indices for %d values",
				j, len(w.Idx[j]), len(w.Val[j]))
		}
		dim := uint32(acc.Dim())
		for _, ix := range w.Idx[j] {
			if ix >= dim {
				return fmt.Errorf("kmeans: accum wire cluster %d entry %d out of dimension %d", j, ix, dim)
			}
		}
	}
	for j, acc := range a.accs {
		acc.SetSparse(w.Idx[j], w.Val[j])
		acc.Count = w.Counts[j]
	}
	a.inertia = w.Inertia
	a.changed = w.Changed
	return nil
}

// Centroids returns the live centroid matrix — what a remote assignment
// shard needs shipped each iteration. The caller must treat it as
// read-only and must not retain it across EndIteration, which rewrites it.
func (c *Clusterer) Centroids() [][]float64 { return c.centroids }

// CentroidNorms returns the live per-centroid squared norms, maintained
// alongside Centroids.
func (c *Clusterer) CentroidNorms() []float64 { return c.cnorms }

// DocNorms returns the per-document squared norms the clusterer assigns
// against (the precomputed ones when Options supplied them).
func (c *Clusterer) DocNorms() []float64 { return c.docNorms }

// Assignments returns the live assignment slice. Remote task builders read
// a shard's [lo, hi) window to ship the previous assignments; mutate it
// only through ApplyShardAssignments.
func (c *Clusterer) Assignments() []int32 { return c.assign }

// K returns the configured cluster count.
func (c *Clusterer) K() int { return c.opts.K }

// TracksDists reports whether the clusterer maintains per-document
// distances (the ReseedFarthest empty policy) — remote shards must then
// ship distances back for ApplyShardAssignments.
func (c *Clusterer) TracksDists() bool { return c.dists != nil }

// BlockWidth returns the resolved blocked-kernel lane width (0 = scalar
// kernel) — shipped in a remote shard's session init so workers run the
// width the coordinator resolved. Any width produces bit-identical
// results; shipping it only keeps the work shape (and tests that pin a
// width) consistent across backends.
func (c *Clusterer) BlockWidth() int {
	if c.layout == nil {
		return 0
	}
	return c.layout.BlockSize()
}

// ApplyShardAssignments installs a remotely computed shard's assignments
// (and, when the clusterer tracks them, distances) at document offset lo —
// the write-back half of a remote iteration, equivalent to the in-place
// updates AssignRange performs locally. Distinct shards may apply
// concurrently; their ranges are disjoint.
func (c *Clusterer) ApplyShardAssignments(lo int, assign []int32, dists []float64) error {
	if lo < 0 || lo+len(assign) > len(c.assign) {
		return fmt.Errorf("kmeans: shard assignments [%d, %d) out of range of %d documents",
			lo, lo+len(assign), len(c.assign))
	}
	copy(c.assign[lo:], assign)
	if c.dists != nil {
		if len(dists) != len(assign) {
			return fmt.Errorf("kmeans: shard shipped %d distances for %d documents (ReseedFarthest needs them)",
				len(dists), len(assign))
		}
		copy(c.dists[lo:], dists)
	}
	return nil
}
