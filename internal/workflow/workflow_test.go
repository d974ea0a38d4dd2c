package workflow

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"hpa/internal/corpus"
	"hpa/internal/dict"
	"hpa/internal/kmeans"
	"hpa/internal/par"
	"hpa/internal/tfidf"
)

func testCtx(t *testing.T, workers int) *Context {
	t.Helper()
	p := par.NewPool(workers)
	t.Cleanup(p.Close)
	ctx := NewContext(p)
	ctx.ScratchDir = t.TempDir()
	return ctx
}

func testCorpus() *corpus.Corpus {
	return corpus.Generate(corpus.Mix().Scaled(0.002), nil)
}

func baseCfg(mode Mode) TFKMConfig {
	return TFKMConfig{
		Mode:   mode,
		TFIDF:  tfidf.Options{DictKind: dict.Tree, Normalize: true},
		KMeans: kmeans.Options{K: 8, Seed: 42},
	}
}

func TestPipelinePlanShapes(t *testing.T) {
	// The discrete workflow carries the materialize/load pair; the merged
	// one is the same chain with the pair fused away.
	d := LogicalTFKMPlan(nil, baseCfg(Discrete)).Nodes()
	if want := []string{"scan", "tfidf", "materialize-arff", "load-arff", "kmeans", "output"}; !reflect.DeepEqual(d, want) {
		t.Fatalf("discrete plan: %v", d)
	}
	m := LogicalTFKMPlan(nil, baseCfg(Merged)).Nodes()
	if want := []string{"scan", "tfidf", "kmeans", "output"}; !reflect.DeepEqual(m, want) {
		t.Fatalf("merged plan: %v", m)
	}
}

func TestFuseRemovesOnlyAdjacentPairs(t *testing.T) {
	p := NewPlan().
		Add("tfidf", &TFIDFOp{}).
		Add("m", &MaterializeARFF{}).
		Add("kmeans", &KMeansOp{}). // no loader after the materializer
		Connect("tfidf", "m").
		Connect("m", "kmeans")
	if f := p.Apply(FuseRule()); len(f.Nodes()) != 3 {
		t.Fatalf("fuse removed a non-pair:\n%s", f.Explain())
	}
	p2 := NewPlan().
		Add("m1", &MaterializeARFF{}).Add("l1", &LoadARFF{}).
		Add("m2", &MaterializeARFF{}).Add("l2", &LoadARFF{}).
		Connect("m1", "l1").Connect("l1", "m2").Connect("m2", "l2")
	if f2 := p2.Apply(FuseRule()); len(f2.Nodes()) != 0 {
		t.Fatalf("fuse left nodes %v", f2.Nodes())
	}
}

func TestFuseDoesNotMutateOriginal(t *testing.T) {
	p := TFKMPlan(nil, baseCfg(Discrete))
	nodes, edges := p.Nodes(), p.Edges()
	if fused := p.Apply(FuseRule()); len(fused.Nodes()) == len(nodes) {
		t.Fatal("FuseRule did not apply")
	}
	if !reflect.DeepEqual(p.Nodes(), nodes) || !reflect.DeepEqual(p.Edges(), edges) {
		t.Fatal("FuseRule mutated its input")
	}
}

func TestMergedAndDiscreteProduceIdenticalClusters(t *testing.T) {
	c := testCorpus()
	var assigns [][]int32
	for _, mode := range []Mode{Discrete, Merged} {
		ctx := testCtx(t, 2)
		rep, err := RunTFKM(c.Source(nil), ctx, baseCfg(mode))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		assigns = append(assigns, rep.Clustering.Result.Assign)
	}
	if len(assigns[0]) != len(assigns[1]) {
		t.Fatalf("doc counts differ: %d vs %d", len(assigns[0]), len(assigns[1]))
	}
	for i := range assigns[0] {
		if assigns[0][i] != assigns[1][i] {
			t.Fatalf("doc %d: discrete cluster %d != merged cluster %d", i, assigns[0][i], assigns[1][i])
		}
	}
}

func TestDiscreteBreakdownHasIOPhases(t *testing.T) {
	ctx := testCtx(t, 2)
	rep, err := RunTFKM(testCorpus().Source(nil), ctx, baseCfg(Discrete))
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{tfidf.PhaseInputWC, tfidf.PhaseOutput, "kmeans-input", tfidf.PhaseTransform, kmeans.PhaseKMeans, PhaseOutput} {
		if rep.Breakdown.Get(phase) == 0 {
			t.Fatalf("phase %q missing from discrete breakdown: %v", phase, rep.Breakdown)
		}
	}
}

func TestMergedBreakdownLacksIOPhases(t *testing.T) {
	ctx := testCtx(t, 2)
	rep, err := RunTFKM(testCorpus().Source(nil), ctx, baseCfg(Merged))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Breakdown.Get(tfidf.PhaseOutput) != 0 || rep.Breakdown.Get("kmeans-input") != 0 {
		t.Fatalf("merged run performed intermediate I/O: %v", rep.Breakdown)
	}
	for _, phase := range []string{tfidf.PhaseInputWC, tfidf.PhaseTransform, kmeans.PhaseKMeans, PhaseOutput} {
		if rep.Breakdown.Get(phase) == 0 {
			t.Fatalf("phase %q missing from merged breakdown: %v", phase, rep.Breakdown)
		}
	}
}

func TestDictFootprintCapturedInBothModes(t *testing.T) {
	for _, mode := range []Mode{Discrete, Merged} {
		ctx := testCtx(t, 2)
		rep, err := RunTFKM(testCorpus().Source(nil), ctx, baseCfg(mode))
		if err != nil {
			t.Fatal(err)
		}
		if rep.DictFootprint == 0 {
			t.Fatalf("%v: dictionary footprint not captured", mode)
		}
	}
}

func TestOutputFileWritten(t *testing.T) {
	ctx := testCtx(t, 2)
	rep, err := RunTFKM(testCorpus().Source(nil), ctx, baseCfg(Merged))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(ctx.ScratchDir, "clusters.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != len(rep.Clustering.Result.Assign) {
		t.Fatalf("%d output lines for %d docs", len(lines), len(rep.Clustering.Result.Assign))
	}
	for _, line := range lines {
		if !strings.Contains(line, "\t") {
			t.Fatalf("malformed line %q", line)
		}
	}
}

func TestIntermediateARFFOnDiskInDiscreteMode(t *testing.T) {
	ctx := testCtx(t, 1)
	if _, err := RunTFKM(testCorpus().Source(nil), ctx, baseCfg(Discrete)); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(ctx.ScratchDir, "tfidf.arff"))
	if err != nil {
		t.Fatalf("intermediate missing: %v", err)
	}
	if fi.Size() == 0 {
		t.Fatal("intermediate empty")
	}
}

func TestTypeMismatchErrors(t *testing.T) {
	ctx := testCtx(t, 1)
	ops := []Runner{&MaterializeARFF{}, &LoadARFF{}, &WriteAssignments{}}
	for _, op := range ops {
		if _, err := op.Run(ctx, "not a dataset"); !errors.Is(err, ErrType) {
			t.Errorf("%s accepted a string input: %v", op.Name(), err)
		}
	}
}

func TestPipelineErrorIdentifiesOperator(t *testing.T) {
	// A dynamically typed producer passes validation, so the mismatch
	// surfaces from the operator at run time.
	bogus := &fnOp{name: "bogus", out: anyType,
		fn: func(*Context, []Value) (Value, error) { return "bogus", nil }}
	_, err := NewPlan().Add("in", bogus).Add("load", &LoadARFF{}).Connect("in", "load").Run(testCtx(t, 1))
	if !errors.Is(err, ErrType) || !strings.Contains(err.Error(), "load-arff") {
		t.Fatalf("err = %v", err)
	}
}

func TestObserverSeesEveryOperator(t *testing.T) {
	ctx := testCtx(t, 1)
	var seen []string
	ctx.Observe = func(op Operator, _ Value) { seen = append(seen, op.Name()) }
	if _, err := RunTFKM(testCorpus().Source(nil), ctx, baseCfg(Merged)); err != nil {
		t.Fatal(err)
	}
	// Every operator of the partitioned plan, once each; the scan first and
	// the output sink last.
	want := []string{"source", "partition", "tf-map", "df-reduce", "transform", "gather", "km-assign", "km-reduce", "output"}
	if len(seen) != len(want) || seen[0] != "source" || seen[len(seen)-1] != "output" {
		t.Fatalf("observer saw %v, want %v", seen, want)
	}
	sorted := append([]string(nil), seen...)
	sort.Strings(sorted)
	wantSorted := append([]string(nil), want...)
	sort.Strings(wantSorted)
	if !reflect.DeepEqual(sorted, wantSorted) {
		t.Fatalf("observer saw %v, want %v", seen, want)
	}
}

func TestModeString(t *testing.T) {
	if Discrete.String() != "discrete" || Merged.String() != "merged" {
		t.Fatal("mode labels wrong")
	}
}

func TestHashDictWorkflowMatchesTreeDictWorkflow(t *testing.T) {
	// Figure 4 varies only the dictionary; the clustering must not change.
	c := testCorpus()
	var assigns [][]int32
	for _, kind := range []dict.Kind{dict.Tree, dict.Hash} {
		ctx := testCtx(t, 2)
		cfg := baseCfg(Merged)
		cfg.TFIDF.DictKind = kind
		rep, err := RunTFKM(c.Source(nil), ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		assigns = append(assigns, rep.Clustering.Result.Assign)
	}
	for i := range assigns[0] {
		if assigns[0][i] != assigns[1][i] {
			t.Fatalf("doc %d clusters differ across dictionary kinds", i)
		}
	}
}

func TestTopTermLabels(t *testing.T) {
	ctx := testCtx(t, 2)
	rep, err := RunTFKM(testCorpus().Source(nil), ctx, baseCfg(Merged))
	if err != nil {
		t.Fatal(err)
	}
	labels, ok := rep.Clustering.TopTermLabels(5)
	if !ok {
		t.Fatal("fused run did not retain terms")
	}
	if len(labels) != 8 {
		t.Fatalf("%d label sets", len(labels))
	}
	nonEmpty := 0
	for _, l := range labels {
		if len(l) > 0 {
			nonEmpty++
			for _, w := range l {
				if w == "" {
					t.Fatal("empty label word")
				}
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatal("no cluster produced labels")
	}
	// Discrete runs do not retain terms in the Clustering.
	ctx2 := testCtx(t, 2)
	rep2, err := RunTFKM(testCorpus().Source(nil), ctx2, baseCfg(Discrete))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rep2.Clustering.TopTermLabels(3); ok {
		t.Fatal("discrete run claimed term labels")
	}
}

func TestWorkflowCancellation(t *testing.T) {
	ctx := testCtx(t, 2)
	cctx, cancel := context.WithCancel(context.Background())
	ctx.Ctx = cctx
	cancel()
	_, err := RunTFKM(testCorpus().Source(nil), ctx, baseCfg(Merged))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestWorkflowCancelBetweenOperators(t *testing.T) {
	ctx := testCtx(t, 2)
	cctx, cancel := context.WithCancel(context.Background())
	ctx.Ctx = cctx
	// Cancel right after TF/IDF completes.
	ctx.Observe = func(op Operator, _ Value) {
		if op.Name() == "gather" {
			cancel()
		}
	}
	_, err := RunTFKM(testCorpus().Source(nil), ctx, baseCfg(Merged))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "before operator") {
		t.Fatalf("cancellation not caught at the operator boundary: %v", err)
	}
}
