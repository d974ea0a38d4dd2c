package workflow

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hpa/internal/dict"
	"hpa/internal/kmeans"
	"hpa/internal/par"
	"hpa/internal/pario"
	"hpa/internal/tfidf"
)

// fnOp is a configurable test operator with declared ports.
type fnOp struct {
	name string
	ins  []reflect.Type
	out  reflect.Type
	fn   func(ctx *Context, ins []Value) (Value, error)
}

func (o *fnOp) Name() string           { return o.name }
func (o *fnOp) Inputs() []reflect.Type { return o.ins }
func (o *fnOp) Output() reflect.Type   { return o.out }
func (o *fnOp) Run(ctx *Context, in Value) (Value, error) {
	return o.fn(ctx, []Value{in})
}
func (o *fnOp) RunAll(ctx *Context, ins []Value) (Value, error) {
	return o.fn(ctx, ins)
}

// narrowOp declares two input ports but cannot accept them (no RunAll).
type narrowOp struct{}

func (narrowOp) Name() string                       { return "narrow" }
func (narrowOp) Run(*Context, Value) (Value, error) { return nil, nil }
func (narrowOp) Inputs() []reflect.Type             { return []reflect.Type{anyType, anyType} }
func (narrowOp) Output() reflect.Type               { return anyType }

var stringType = reflect.TypeOf("")

func passThrough(name string) *fnOp {
	return &fnOp{name: name, ins: []reflect.Type{stringType}, out: stringType,
		fn: func(_ *Context, ins []Value) (Value, error) { return ins[0], nil }}
}

func stringSource(name, v string) *fnOp {
	return &fnOp{name: name, out: stringType,
		fn: func(_ *Context, _ []Value) (Value, error) { return v, nil }}
}

// branchingPlan is the workflow the linear engine could not express: one
// corpus scan feeding word-count and TF/IDF, the TF/IDF result fanning out
// to K-Means (through a materialize/load pair) and an ARFF archive.
func branchingPlan(src pario.Source) *Plan {
	return NewPlan().
		Add("scan", &SourceOp{Src: src}).
		Add("wordcount", &WordCountOp{DictKind: dict.Tree}).
		Add("tfidf", &TFIDFOp{Opts: tfidf.Options{DictKind: dict.Tree, Normalize: true}}).
		Add("materialize", &MaterializeARFF{}).
		Add("load", &LoadARFF{}).
		Add("kmeans", &KMeansOp{Opts: kmeans.Options{K: 4, Seed: 7}}).
		Add("output", &WriteAssignments{}).
		Add("archive", &MaterializeARFF{Filename: "archive.arff"}).
		Connect("scan", "wordcount").
		Connect("scan", "tfidf").
		Connect("tfidf", "materialize").
		Connect("materialize", "load").
		Connect("load", "kmeans").
		Connect("kmeans", "output").
		Connect("tfidf", "archive")
}

func TestBranchingPlanValidatesAndRuns(t *testing.T) {
	c := testCorpus()
	plan := branchingPlan(c.Source(nil))
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	ctx := testCtx(t, 4)
	outs, err := plan.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wc, ok := outs["wordcount"].(*WordCounts)
	if !ok || wc.TotalTokens == 0 {
		t.Fatalf("wordcount sink = %T", outs["wordcount"])
	}
	cl, ok := outs["output"].(*Clustering)
	if !ok || len(cl.Result.Assign) != c.Len() {
		t.Fatalf("output sink = %T", outs["output"])
	}
	ref, ok := outs["archive"].(*ARFFRef)
	if !ok {
		t.Fatalf("archive sink = %T", outs["archive"])
	}
	if fi, err := os.Stat(ref.Path); err != nil || fi.Size() == 0 {
		t.Fatalf("archive not written: %v", err)
	}
}

func TestDAGFusionCancelsPairKeepsArchive(t *testing.T) {
	c := testCorpus()
	plan := branchingPlan(c.Source(nil))
	fused := plan.Apply(FuseRule())

	// The materialize/load pair around the K-Means edge is gone; the
	// archive materializer (a sink with no loader) survives.
	if fused.Node("materialize") != nil || fused.Node("load") != nil {
		t.Fatalf("pair not canceled: %v", fused.Nodes())
	}
	if fused.Node("archive") == nil {
		t.Fatal("fusion removed the archive sink")
	}
	rewired := false
	for _, e := range fused.Edges() {
		if e.From == "tfidf" && e.To == "kmeans" {
			rewired = true
		}
	}
	if !rewired {
		t.Fatalf("kmeans not rewired to tfidf: %v", fused.Edges())
	}
	// The original plan is untouched.
	if plan.Node("load") == nil || len(plan.Edges()) != 7 {
		t.Fatal("FuseRule mutated its input plan")
	}

	ctx := testCtx(t, 4)
	outs, err := fused.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Fused: no intermediate I/O phases, archive still written.
	if ctx.Breakdown.Get("kmeans-input") != 0 {
		t.Fatalf("fused plan loaded from disk: %v", ctx.Breakdown)
	}
	if _, err := os.Stat(filepath.Join(ctx.ScratchDir, "archive.arff")); err != nil {
		t.Fatalf("archive missing after fusion: %v", err)
	}
	cl := outs["output"].(*Clustering)
	if cl.TFIDF == nil {
		t.Fatal("fused clustering lost the in-memory TF/IDF result")
	}
}

func TestFusedBranchingPlanMatchesDiscrete(t *testing.T) {
	c := testCorpus()
	var assigns [][]int32
	for _, fuse := range []bool{false, true} {
		plan := branchingPlan(c.Source(nil))
		if fuse {
			plan = plan.Apply(FuseRule())
		}
		ctx := testCtx(t, 4)
		outs, err := plan.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		assigns = append(assigns, outs["output"].(*Clustering).Result.Assign)
	}
	if len(assigns[0]) != len(assigns[1]) {
		t.Fatalf("doc counts differ: %d vs %d", len(assigns[0]), len(assigns[1]))
	}
	for i := range assigns[0] {
		if assigns[0][i] != assigns[1][i] {
			t.Fatalf("doc %d: discrete %d != fused %d", i, assigns[0][i], assigns[1][i])
		}
	}
}

func TestFusionCancelsChainedPairsAcrossTheGraph(t *testing.T) {
	// Two materialize/load pairs in one path, surrounded by branches: both
	// cancel, regardless of their positions in the Add order.
	c := testCorpus()
	plan := NewPlan().
		Add("m2", &MaterializeARFF{Filename: "b.arff"}).
		Add("scan", &SourceOp{Src: c.Source(nil)}).
		Add("l1", &LoadARFF{}).
		Add("tfidf", &TFIDFOp{Opts: tfidf.Options{DictKind: dict.Tree}}).
		Add("wordcount", &WordCountOp{DictKind: dict.Tree}).
		Add("m1", &MaterializeARFF{Filename: "a.arff"}).
		Add("l2", &LoadARFF{}).
		Add("kmeans", &KMeansOp{Opts: kmeans.Options{K: 2, Seed: 1}}).
		Connect("scan", "tfidf").
		Connect("scan", "wordcount").
		Connect("tfidf", "m1").
		Connect("m1", "l1").
		Connect("l1", "kmeans").
		Connect("tfidf", "m2").
		Connect("m2", "l2")
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	fused := plan.Apply(FuseRule())
	for _, gone := range []string{"m1", "l1", "m2", "l2"} {
		if fused.Node(gone) != nil {
			t.Fatalf("node %s survived fusion: %v", gone, fused.Nodes())
		}
	}
	if err := fused.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedScanDeduplicatesSources(t *testing.T) {
	c := testCorpus()
	src := c.Source(nil)
	plan := NewPlan().
		Add("scan-wc", &SourceOp{Src: src}).
		Add("scan-tfidf", &SourceOp{Src: src}).
		Add("wordcount", &WordCountOp{DictKind: dict.Tree}).
		Add("tfidf", &TFIDFOp{Opts: tfidf.Options{DictKind: dict.Tree, Normalize: true}}).
		Connect("scan-wc", "wordcount").
		Connect("scan-tfidf", "tfidf")
	dedup := plan.Apply(SharedScanRule())
	if dedup.Node("scan-tfidf") != nil {
		t.Fatalf("duplicate scan survived: %v", dedup.Nodes())
	}
	rewired := false
	for _, e := range dedup.Edges() {
		if e.From == "scan-wc" && e.To == "tfidf" {
			rewired = true
		}
	}
	if !rewired {
		t.Fatalf("tfidf not rewired to the shared scan: %v", dedup.Edges())
	}
	// Distinct sources must not merge.
	other := NewPlan().
		Add("a", &SourceOp{Src: src}).
		Add("b", &SourceOp{Src: c.Source(nil)}).
		Add("wc", &WordCountOp{DictKind: dict.Tree}).
		Add("tf", &TFIDFOp{Opts: tfidf.Options{DictKind: dict.Tree}}).
		Connect("a", "wc").
		Connect("b", "tf")
	if after := other.Apply(SharedScanRule()); after.Node("b") == nil {
		t.Fatal("SharedScanRule merged scans of different sources")
	}

	ctx := testCtx(t, 2)
	outs, err := dedup.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if outs["wordcount"].(*WordCounts).TotalTokens == 0 {
		t.Fatal("deduped plan produced no word counts")
	}
	if outs["tfidf"].(*tfidf.Result).Dim() == 0 {
		t.Fatal("deduped plan produced no tfidf result")
	}
}

func TestValidateRejectsTypeMismatchedEdge(t *testing.T) {
	c := testCorpus()
	// WordCounts is not Vectorized: the edge must fail at build time,
	// before any operator runs.
	plan := NewPlan().
		Add("scan", &SourceOp{Src: c.Source(nil)}).
		Add("wordcount", &WordCountOp{DictKind: dict.Tree}).
		Add("kmeans", &KMeansOp{Opts: kmeans.Options{K: 2}}).
		Connect("scan", "wordcount").
		Connect("wordcount", "kmeans")
	err := plan.Validate()
	if !errors.Is(err, ErrType) {
		t.Fatalf("err = %v, want ErrType", err)
	}
	for _, frag := range []string{"wordcount", "kmeans"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error does not identify %q: %v", frag, err)
		}
	}
	if _, err := plan.Run(testCtx(t, 1)); !errors.Is(err, ErrType) {
		t.Fatalf("Run did not surface the validation error: %v", err)
	}
}

func TestValidateRejectsCycle(t *testing.T) {
	plan := NewPlan().
		Add("a", passThrough("a")).
		Add("b", passThrough("b")).
		Add("c", passThrough("c")).
		Connect("a", "b").
		Connect("b", "c").
		Connect("c", "a")
	err := plan.Validate()
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("err = %v, want cycle error", err)
	}
}

func TestValidateRejectsStructuralErrors(t *testing.T) {
	cases := []struct {
		name string
		plan *Plan
		frag string
	}{
		{"dangling input", NewPlan().Add("lone", passThrough("p")), "not connected"},
		{"unknown to", NewPlan().Add("s", stringSource("s", "x")).Connect("s", "ghost"), "unknown node"},
		{"unknown from", NewPlan().Add("p", passThrough("p")).Connect("ghost", "p"), "unknown node"},
		{"duplicate name", NewPlan().Add("x", stringSource("x", "a")).Add("x", stringSource("x", "b")), "added twice"},
		{"nil operator", NewPlan().Add("x", nil), "nil operator"},
		{"empty name", NewPlan().Add("", stringSource("s", "x")), "empty node name"},
		{"negative port", NewPlan().Add("s", stringSource("s", "x")).Add("p", passThrough("p")).ConnectPort("s", "p", -1), "negative port"},
		{"port out of range", NewPlan().Add("s", stringSource("s", "x")).Add("p", passThrough("p")).Connect("s", "p").ConnectPort("s", "p", 3), "no port 3"},
		{"double connect", NewPlan().Add("s", stringSource("s", "x")).Add("p", passThrough("p")).Connect("s", "p").Connect("s", "p"), "connected twice"},
		{"source with input", NewPlan().Add("s", stringSource("s", "x")).Add("s2", stringSource("s2", "y")).Connect("s", "s2"), "no port 0"},
		{"multi-port without MultiOperator", NewPlan().
			Add("s1", stringSource("s1", "a")).Add("s2", stringSource("s2", "b")).Add("n", narrowOp{}).
			ConnectPort("s1", "n", 0).ConnectPort("s2", "n", 1), "MultiOperator"},
	}
	for _, tc := range cases {
		err := tc.plan.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: err = %v, want fragment %q", tc.name, err, tc.frag)
		}
	}
}

// portsOnly declares ports but implements no run contract at all.
type portsOnly struct{}

func (portsOnly) Name() string           { return "ports-only" }
func (portsOnly) Inputs() []reflect.Type { return []reflect.Type{anyType} }
func (portsOnly) Output() reflect.Type   { return anyType }

// TestValidateRejectsUnrunnableNodes: a node that cannot run as its class
// is a Validate error naming the node, so Plan.Run fails before any task
// starts — here, before the source feeding the node runs.
func TestValidateRejectsUnrunnableNodes(t *testing.T) {
	cases := []struct {
		name string
		node Operator
		ins  int // input ports fed from the source
		frag string
	}{
		{"logical operator behind a non-source producer", &TFIDFOp{}, 1, "partitioned plan fragment"},
		{"kernel behind a scalar producer", &testKernel{name: "kernel"}, 1, "partitioned producer"},
		{"node with no run method", portsOnly{}, 1, "no run method"},
		{"multi-port scalar without RunAll", narrowOp{}, 2, "MultiOperator"},
	}
	for _, tc := range cases {
		var ran atomic.Bool
		src := &fnOp{name: "src", out: anyType, fn: func(*Context, []Value) (Value, error) {
			ran.Store(true)
			return 1, nil
		}}
		plan := NewPlan().Add("src", src).Add("node", tc.node)
		for port := 0; port < tc.ins; port++ {
			plan.ConnectPort("src", "node", port)
		}
		want := "node node (" + tc.node.Name() + ")"
		if err := plan.Validate(); err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: Validate err = %v, want %q and %q", tc.name, err, want, tc.frag)
		}
		if _, err := plan.Run(testCtx(t, 1)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Run err = %v, want %q", tc.name, err, want)
		}
		if ran.Load() {
			t.Errorf("%s: a task ran before the plan was rejected", tc.name)
		}
	}
}

func TestMultiInputOperator(t *testing.T) {
	join := &fnOp{name: "join", ins: []reflect.Type{stringType, stringType}, out: stringType,
		fn: func(_ *Context, ins []Value) (Value, error) {
			return fmt.Sprintf("%v+%v", ins[0], ins[1]), nil
		}}
	plan := NewPlan().
		Add("left", stringSource("left", "L")).
		Add("right", stringSource("right", "R")).
		Add("join", join).
		ConnectPort("left", "join", 0).
		ConnectPort("right", "join", 1)
	outs, err := plan.Run(testCtx(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if outs["join"] != "L+R" {
		t.Fatalf("join = %v", outs["join"])
	}
}

func TestIndependentBranchesRunConcurrently(t *testing.T) {
	// Two branches rendezvous: each signals it has started and waits for
	// the other. This only completes if the scheduler overlaps them.
	aStarted, bStarted := make(chan struct{}), make(chan struct{})
	meet := func(mine, other chan struct{}) func(*Context, []Value) (Value, error) {
		return func(_ *Context, ins []Value) (Value, error) {
			close(mine)
			select {
			case <-other:
				return ins[0], nil
			case <-time.After(10 * time.Second):
				return nil, errors.New("branches did not overlap")
			}
		}
	}
	plan := NewPlan().
		Add("src", stringSource("src", "x")).
		Add("a", &fnOp{name: "a", ins: []reflect.Type{stringType}, out: stringType, fn: meet(aStarted, bStarted)}).
		Add("b", &fnOp{name: "b", ins: []reflect.Type{stringType}, out: stringType, fn: meet(bStarted, aStarted)}).
		Connect("src", "a").
		Connect("src", "b")
	if _, err := plan.Run(testCtx(t, 2)); err != nil {
		t.Fatal(err)
	}
}

func TestPlanRunNestedInsidePoolTask(t *testing.T) {
	// Plan.Run must be safe to call from within a pool task: the scheduler
	// joins by helping, even on a 1-worker pool.
	p := par.NewPool(1)
	t.Cleanup(p.Close)
	ctx := NewContext(p)
	ctx.ScratchDir = t.TempDir()
	plan := NewPlan().
		Add("src", stringSource("src", "x")).
		Add("a", passThrough("a")).
		Add("b", passThrough("b")).
		Connect("src", "a").
		Connect("src", "b")
	var outs map[string]Value
	var err error
	g := p.NewGroup()
	g.Spawn(func() { outs, err = plan.Run(ctx) })
	g.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if outs["a"] != "x" || outs["b"] != "x" {
		t.Fatalf("outs = %v", outs)
	}
}

func TestPlanRunErrorIdentifiesNode(t *testing.T) {
	boom := &fnOp{name: "boom", ins: []reflect.Type{stringType}, out: stringType,
		fn: func(_ *Context, _ []Value) (Value, error) { return nil, errors.New("kaput") }}
	plan := NewPlan().
		Add("src", stringSource("src", "x")).
		Add("boom", boom).
		Connect("src", "boom")
	_, err := plan.Run(testCtx(t, 1))
	if err == nil || !strings.Contains(err.Error(), "operator boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestPlanRunRecoversOperatorPanic(t *testing.T) {
	bad := &fnOp{name: "bad", ins: []reflect.Type{stringType}, out: stringType,
		fn: func(_ *Context, _ []Value) (Value, error) { panic("exploded") }}
	plan := NewPlan().
		Add("src", stringSource("src", "x")).
		Add("bad", bad).
		Connect("src", "bad")
	_, err := plan.Run(testCtx(t, 1))
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v", err)
	}
}

func TestExplainMarksMaterializationEdges(t *testing.T) {
	c := testCorpus()
	discrete := LogicalTFKMPlan(c.Source(nil), baseCfg(Discrete))
	want := strings.Join([]string{
		"scan -> tfidf",
		"tfidf -> materialize-arff",
		"materialize-arff =[arff]=> load-arff",
		"load-arff -> kmeans",
		"kmeans -> output",
	}, "\n")
	if got := discrete.Explain(); got != want {
		t.Fatalf("discrete explain:\n%s\nwant:\n%s", got, want)
	}
	merged := LogicalTFKMPlan(c.Source(nil), baseCfg(Merged))
	want = strings.Join([]string{
		"scan -> tfidf",
		"tfidf -> kmeans",
		"kmeans -> output",
	}, "\n")
	if got := merged.Explain(); got != want {
		t.Fatalf("merged explain:\n%s\nwant:\n%s", got, want)
	}
}

// TestPipelineAdapterPhaseRegression pins RunTFKM to the seed engine's
// behavior: a run of the TF/IDF→K-Means pipeline must produce exactly the
// phase keys, in exactly the first-recorded order, that the original
// sequential loop produced.
func TestPipelineAdapterPhaseRegression(t *testing.T) {
	c := testCorpus()
	want := map[Mode][]string{
		Discrete: {tfidf.PhaseInputWC, tfidf.PhaseTransform, tfidf.PhaseOutput, "kmeans-input", kmeans.PhaseKMeans, PhaseOutput},
		Merged:   {tfidf.PhaseInputWC, tfidf.PhaseTransform, kmeans.PhaseKMeans, PhaseOutput},
	}
	for _, mode := range []Mode{Discrete, Merged} {
		ctx := testCtx(t, 2)
		if _, err := RunTFKM(c.Source(nil), ctx, baseCfg(mode)); err != nil {
			t.Fatal(err)
		}
		if got := ctx.Breakdown.Phases(); !reflect.DeepEqual(got, want[mode]) {
			t.Fatalf("%v: phases %v, want %v", mode, got, want[mode])
		}
	}
}

func TestPlanRunReturnsOnlySinks(t *testing.T) {
	c := testCorpus()
	plan := TFKMPlan(c.Source(nil), baseCfg(Merged))
	outs, err := plan.Run(testCtx(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("sinks = %d, want 1", len(outs))
	}
	if _, ok := outs["output"].(*Clustering); !ok {
		t.Fatalf("output sink = %T", outs["output"])
	}
}
