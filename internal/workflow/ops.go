package workflow

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"hpa/internal/kmeans"
	"hpa/internal/sparse"
	"hpa/internal/tfidf"
)

// Reflected dataset types of the built-in operators' ports.
var (
	tfidfResultType = reflect.TypeOf((*tfidf.Result)(nil))
	arffRefType     = reflect.TypeOf((*ARFFRef)(nil))
	matrixType      = reflect.TypeOf((*Matrix)(nil))
	clusteringType  = reflect.TypeOf((*Clustering)(nil))
	wordCountsType  = reflect.TypeOf((*WordCounts)(nil))
)

// PhaseOutput is the final phase of Figures 3 and 4: writing the cluster
// assignment of every document, sequentially ("the output phase is hard to
// parallelize").
const PhaseOutput = "output"

// PhaseKMeansInput is the discrete workflow's phase of reading the
// materialized TF/IDF matrix back for K-Means (Figure 3's "kmeans-input").
const PhaseKMeansInput = "kmeans-input"

// Matrix is a term-document score matrix: the in-memory form of the
// intermediate dataset between TF/IDF and K-Means.
type Matrix struct {
	// Terms maps column (term ID) to word.
	Terms []string
	// Vectors holds one sparse row per document.
	Vectors []sparse.Vector
	// DocNames identifies documents; may be synthesized when the matrix
	// was loaded from ARFF (the format stores no names).
	DocNames []string
}

// Dim returns the vocabulary size.
func (m *Matrix) Dim() int { return len(m.Terms) }

// ARFFRef points at a materialized matrix on disk.
type ARFFRef struct {
	// Path of the ARFF file.
	Path string
	// DocNames carried alongside (ARFF cannot store them); used only to
	// label final output.
	DocNames []string
	// Bytes written.
	Bytes int64
}

// Clustering pairs K-Means output with document names.
type Clustering struct {
	// Result is the K-Means outcome.
	Result *kmeans.Result
	// DocNames labels documents in output.
	DocNames []string
	// TFIDF carries the upstream operator result when the pipeline ran
	// fused (nil when the matrix came from disk).
	TFIDF *tfidf.Result
}

// TFIDFOp is the logical TF/IDF operator: a document source in, TF/IDF
// vectors out. It has no run method: it executes as the per-shard fragment
// PartitionRule expands it into, which Plan.Run applies to any node still
// logical.
type TFIDFOp struct {
	// Opts configures the operator.
	Opts tfidf.Options
}

// Name implements Operator.
func (o *TFIDFOp) Name() string { return "tfidf" }

// Inputs implements Operator.
func (o *TFIDFOp) Inputs() []reflect.Type { return []reflect.Type{sourceType} }

// Output implements Operator.
func (o *TFIDFOp) Output() reflect.Type { return tfidfResultType }

// partitionFragment implements partitionable: under PartitionRule the
// logical operator becomes phase-1 map shards, the document-frequency
// tree-merge reduction, phase-2 transform shards, and the streaming
// gather.
func (o *TFIDFOp) partitionFragment() fragment {
	// The map and transform stages share a tfShipPair, so a shard counted
	// on a worker is transformed on that worker from the cached counts
	// instead of round-tripping them through the coordinator.
	pair := newTFShipPair()
	return fragment{
		nodes: []fragNode{
			{suffix: "map", op: &TFMapOp{Opts: o.Opts, pair: pair}},
			{suffix: "df", op: &DFReduceOp{Opts: o.Opts}},
			{suffix: "transform", op: &TransformOp{Opts: o.Opts, pair: pair}},
			{suffix: "gather", op: &GatherOp{Opts: o.Opts}},
		},
		edges: []Edge{
			{From: "map", To: "df", Port: 0},
			{From: "map", To: "transform", Port: 0},
			{From: "df", To: "transform", Port: 1},
			{From: "transform", To: "gather", Port: 0},
			{From: "df", To: "gather", Port: 1},
		},
		in:  "map",
		out: "gather",
	}
}

// MaterializeARFF writes the TF/IDF result to an ARFF file in the scratch
// directory — the "tfidf-output" phase of the discrete workflow.
type MaterializeARFF struct {
	// Filename within ctx.ScratchDir (default "tfidf.arff").
	Filename string
}

func (*MaterializeARFF) isMaterializer() {}

// Name implements Operator.
func (o *MaterializeARFF) Name() string { return "materialize-arff" }

// Inputs implements Operator.
func (o *MaterializeARFF) Inputs() []reflect.Type { return []reflect.Type{tfidfResultType} }

// Output implements Operator.
func (o *MaterializeARFF) Output() reflect.Type { return arffRefType }

// Phase implements Phased.
func (o *MaterializeARFF) Phase() string { return tfidf.PhaseOutput }

// Run implements Runner: *tfidf.Result -> *ARFFRef.
func (o *MaterializeARFF) Run(ctx *Context, in Value) (Value, error) {
	res, ok := in.(*tfidf.Result)
	if !ok {
		return nil, fmt.Errorf("%w: materialize wants *tfidf.Result, got %T", ErrType, in)
	}
	name := o.Filename
	if name == "" {
		name = "tfidf.arff"
	}
	path := filepath.Join(ctx.ScratchDir, name)
	n, err := res.WriteARFF(path, ctx.Disk)
	if err != nil {
		return nil, err
	}
	ctx.spanIO(n, 1)
	return &ARFFRef{Path: path, DocNames: res.DocNames, Bytes: n}, nil
}

// LoadARFF reads a materialized matrix back — the PhaseKMeansInput phase
// of the discrete workflow.
type LoadARFF struct{}

func (*LoadARFF) isLoader() {}

// Name implements Operator.
func (o *LoadARFF) Name() string { return "load-arff" }

// Inputs implements Operator.
func (o *LoadARFF) Inputs() []reflect.Type { return []reflect.Type{arffRefType} }

// Output implements Operator.
func (o *LoadARFF) Output() reflect.Type { return matrixType }

// Phase implements Phased.
func (o *LoadARFF) Phase() string { return PhaseKMeansInput }

// Run implements Runner: *ARFFRef -> *Matrix.
func (o *LoadARFF) Run(ctx *Context, in Value) (Value, error) {
	ref, ok := in.(*ARFFRef)
	if !ok {
		return nil, fmt.Errorf("%w: load wants *ARFFRef, got %T", ErrType, in)
	}
	terms, rows, err := tfidf.ReadARFF(ref.Path, ctx.Disk)
	if err != nil {
		return nil, err
	}
	ctx.spanIO(ref.Bytes, 1)
	return &Matrix{Terms: terms, Vectors: rows, DocNames: ref.DocNames}, nil
}

// KMeansOp is the logical K-Means operator: it clusters either the fused
// in-memory *tfidf.Result or a *Matrix loaded from disk. It has no run
// method: it executes as the iterative loop stages PartitionRule expands it
// into.
type KMeansOp struct {
	// Opts configures clustering.
	Opts kmeans.Options
}

// Name implements Operator.
func (o *KMeansOp) Name() string { return "kmeans" }

// Inputs implements Operator: the port accepts any Vectorized dataset,
// so both the fused *tfidf.Result and a *Matrix loaded from disk connect.
func (o *KMeansOp) Inputs() []reflect.Type { return []reflect.Type{vectorizedType} }

// Output implements Operator.
func (o *KMeansOp) Output() reflect.Type { return clusteringType }

// synthDocNames labels documents of a nameless matrix.
func synthDocNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("doc%07d", i)
	}
	return names
}

// WriteAssignments emits the final "output" phase: one "name<TAB>cluster"
// line per document, written sequentially and charged to the device.
type WriteAssignments struct {
	// Filename within ctx.ScratchDir (default "clusters.tsv").
	Filename string
}

// Name implements Operator.
func (o *WriteAssignments) Name() string { return "output" }

// Inputs implements Operator.
func (o *WriteAssignments) Inputs() []reflect.Type { return []reflect.Type{clusteringType} }

// Output implements Operator.
func (o *WriteAssignments) Output() reflect.Type { return clusteringType }

// Phase implements Phased.
func (o *WriteAssignments) Phase() string { return PhaseOutput }

// Run implements Runner: *Clustering -> *Clustering (pass-through).
func (o *WriteAssignments) Run(ctx *Context, in Value) (Value, error) {
	cl, ok := in.(*Clustering)
	if !ok {
		return nil, fmt.Errorf("%w: output wants *Clustering, got %T", ErrType, in)
	}
	name := o.Filename
	if name == "" {
		name = "clusters.tsv"
	}
	path := filepath.Join(ctx.ScratchDir, name)
	n, err := writeAssignments(path, cl)
	ctx.Disk.ChargeRead(n, true)
	ctx.spanIO(n, 1)
	if err != nil {
		return nil, err
	}
	return cl, nil
}

func writeAssignments(path string, cl *Clustering) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var n int64
	for i, a := range cl.Result.Assign {
		line := fmt.Sprintf("%s\t%d\n", cl.DocNames[i], a)
		n += int64(len(line))
		if _, err := w.WriteString(line); err != nil {
			f.Close()
			return n, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}

// TopTermLabels returns, for each cluster, the words of the w heaviest
// centroid components — a human-readable label for the cluster. It
// requires term names, which are available when the pipeline ran fused
// (the TF/IDF result is retained); for discrete runs pass the terms read
// from the ARFF header to LabelWithTerms.
func (c *Clustering) TopTermLabels(w int) ([][]string, bool) {
	if c.TFIDF == nil {
		return nil, false
	}
	return c.LabelWithTerms(c.TFIDF.Terms, w), true
}

// LabelWithTerms maps the top-w centroid components of every cluster to
// words using the provided term table.
func (c *Clustering) LabelWithTerms(terms []string, w int) [][]string {
	top := c.Result.TopTerms(w)
	out := make([][]string, len(top))
	for j, ids := range top {
		out[j] = make([]string, 0, len(ids))
		for _, id := range ids {
			if int(id) < len(terms) {
				out[j] = append(out[j], terms[id])
			}
		}
	}
	return out
}
