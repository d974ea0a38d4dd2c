package kmeans

import "fmt"

// This file is the serialization boundary of the iterative shard contract:
// the wire form of an Accum — the one number besides assignments and
// distances a remote assignment worker ships back each iteration — plus
// the Clusterer accessors a coordinator needs to build per-iteration
// remote task arguments (live centroids and norms out, remotely computed
// assignments and distances back in). A remote shard returns only
// position-independent results, so a loop whose shards ran in worker
// processes updates to the same centroids and the same convergence
// decisions as an in-process run.

// AccumWire is the wire form of an Accum (flat.go encodes it): the
// shard's moved-assignment count.
type AccumWire struct {
	// Changed is the shard's moved-assignment count.
	Changed int
}

// Wire returns the partial in serializable form.
func (a *Accum) Wire() *AccumWire { return &AccumWire{Changed: a.changed} }

// FromWire loads the wire form of a shard of docs documents into the
// (recycled) partial — the inverse of Wire. It fails, without touching
// the receiver, when the moved count is negative or exceeds the shard's
// document count: a lying worker reply must surface as an error, never
// as a wrong convergence decision.
func (a *Accum) FromWire(w *AccumWire, docs int) error {
	if w.Changed < 0 || w.Changed > docs {
		return fmt.Errorf("kmeans: accum wire reports %d moved assignments for %d documents", w.Changed, docs)
	}
	a.changed = w.Changed
	return nil
}

// Centroids returns the live centroid matrix — what a remote assignment
// shard needs shipped: all of it once, then each iteration the rows
// Updated marks. The caller must treat it as read-only and must not
// retain it across EndIteration, which rewrites it.
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

// ApplyShardAssignments installs a remotely computed shard's assignments
// and distances at document offset lo — the write-back half of a remote
// iteration, equivalent to the in-place updates AssignRange performs
// locally. It fails, without touching the clusterer, when the window does
// not fit, the distances do not match the assignments one to one, or a
// cluster index is out of range (EndIteration indexes by them). Distinct
// shards may apply concurrently; their ranges are disjoint.
func (c *Clusterer) ApplyShardAssignments(lo int, assign []int32, dists []float64) error {
	if lo < 0 || lo+len(assign) > len(c.assign) {
		return fmt.Errorf("kmeans: shard assignments [%d, %d) out of range of %d documents",
			lo, lo+len(assign), len(c.assign))
	}
	if len(dists) != len(assign) {
		return fmt.Errorf("kmeans: shard shipped %d distances for %d documents", len(dists), len(assign))
	}
	for i, a := range assign {
		if a < 0 || int(a) >= c.opts.K {
			return fmt.Errorf("kmeans: shard assigned document %d to cluster %d of %d", lo+i, a, c.opts.K)
		}
	}
	copy(c.assign[lo:], assign)
	copy(c.dists[lo:], dists)
	return nil
}
