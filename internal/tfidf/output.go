package tfidf

import (
	"hpa/internal/arff"
	"hpa/internal/metrics"
	"hpa/internal/pario"
	"hpa/internal/sparse"
)

// WriteARFF writes the result's vectors as a sparse ARFF file with one
// NUMERIC attribute per term. The write is sequential — the paper's point
// in Section 3.2/3.3: "file formats are often designed in such a way that
// parallel I/O becomes hard", so the tfidf-output phase of the discrete
// workflow runs on one thread no matter how many the operators use.
//
// The duration is accounted to PhaseOutput in bd, the disk simulator (if
// any) is charged for the bytes, and the byte count is returned.
func (r *Result) WriteARFF(path string, disk *pario.DiskSim, bd *metrics.Breakdown) (int64, error) {
	if bd == nil {
		bd = metrics.NewBreakdown()
	}
	var n int64
	err := bd.TimeErr(PhaseOutput, func() error {
		var err error
		n, err = arff.WriteFile(path, r.ARFFHeader(), r.Vectors, disk)
		return err
	})
	return n, err
}

// ARFFHeader returns the header describing this result's vector space.
func (r *Result) ARFFHeader() arff.Header {
	return arff.Header{Relation: "tfidf", Attributes: r.Terms}
}

// ReadARFF loads a previously written TF/IDF ARFF file — the kmeans-input
// phase of the discrete workflow, also sequential. It returns the vectors
// and the attribute (term) names.
func ReadARFF(path string, disk *pario.DiskSim, bd *metrics.Breakdown) ([]string, []sparse.Vector, error) {
	if bd == nil {
		bd = metrics.NewBreakdown()
	}
	const phase = "kmeans-input"
	var terms []string
	var rows []sparse.Vector
	err := bd.TimeErr(phase, func() error {
		h, rs, err := arff.ReadFile(path, disk)
		if err != nil {
			return err
		}
		terms, rows = h.Attributes, rs
		return nil
	})
	return terms, rows, err
}
