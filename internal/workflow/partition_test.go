package workflow

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"hpa/internal/dict"
	"hpa/internal/tfidf"
)

// refTFKM runs the one-shard workflow as the determinism reference.
func refTFKM(t *testing.T, cfg TFKMConfig) *TFKMReport {
	t.Helper()
	cfg.Shards = 1
	ctx := testCtx(t, 4)
	rep, err := RunTFKM(testCorpus().Source(nil), ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// sameScores asserts bit-identical TF/IDF results (terms, document
// frequencies, every vector component) and cluster assignments.
func sameScores(t *testing.T, label string, want, got *TFKMReport) {
	t.Helper()
	w, g := want.Clustering.TFIDF, got.Clustering.TFIDF
	if w == nil || g == nil {
		t.Fatalf("%s: missing TF/IDF result (want %v, got %v)", label, w != nil, g != nil)
	}
	if !reflect.DeepEqual(w.Terms, g.Terms) {
		t.Fatalf("%s: term tables differ (%d vs %d terms)", label, len(w.Terms), len(g.Terms))
	}
	if !reflect.DeepEqual(w.DF, g.DF) {
		t.Fatalf("%s: document frequencies differ", label)
	}
	if len(w.Vectors) != len(g.Vectors) {
		t.Fatalf("%s: %d vs %d vectors", label, len(w.Vectors), len(g.Vectors))
	}
	for i := range w.Vectors {
		wv, gv := &w.Vectors[i], &g.Vectors[i]
		if !reflect.DeepEqual(wv.Idx, gv.Idx) {
			t.Fatalf("%s: doc %d: index sets differ", label, i)
		}
		for j := range wv.Val {
			if math.Float64bits(wv.Val[j]) != math.Float64bits(gv.Val[j]) {
				t.Fatalf("%s: doc %d component %d: %v != %v (not bit-identical)",
					label, i, j, wv.Val[j], gv.Val[j])
			}
		}
	}
	if !reflect.DeepEqual(w.DocNames, g.DocNames) {
		t.Fatalf("%s: document names differ", label)
	}
	if !reflect.DeepEqual(want.Clustering.Result.Assign, got.Clustering.Result.Assign) {
		t.Fatalf("%s: cluster assignments differ", label)
	}
}

// TestPartitionedBitIdenticalAcrossShardCountsAndDicts is the determinism
// suite: sharded execution must reproduce the one-shard scores and
// assignments exactly, for every dictionary kind and shard counts that do
// and do not divide the corpus evenly.
func TestPartitionedBitIdenticalAcrossShardCountsAndDicts(t *testing.T) {
	for _, kind := range []dict.Kind{dict.Tree, dict.Hash, dict.NodeTree} {
		cfg := baseCfg(Merged)
		cfg.TFIDF.DictKind = kind
		ref := refTFKM(t, cfg)
		if ref.Clustering.TFIDF == nil {
			t.Fatal("reference run dropped the TF/IDF result")
		}
		for _, shards := range []int{1, 4, 7} {
			label := fmt.Sprintf("dict=%s shards=%d", kind, shards)
			scfg := cfg
			scfg.Shards = shards
			ctx := testCtx(t, 4)
			rep, err := RunTFKM(testCorpus().Source(nil), ctx, scfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameScores(t, label, ref, rep)
			if rep.DictFootprint <= 0 {
				t.Errorf("%s: dictionary footprint not captured", label)
			}
		}
	}
}

// TestPartitionedDiscreteComposesWithFusionBoundary checks that
// PartitionRule composes with the discrete plan's materialize/load pair:
// the sharded gather feeds the ARFF materialization, the matrix round-trips
// through disk, and assignments still match the one-shard discrete run.
func TestPartitionedDiscreteComposesWithFusionBoundary(t *testing.T) {
	cfg := baseCfg(Discrete)
	ref := refTFKM(t, cfg)
	scfg := cfg
	scfg.Shards = 3
	ctx := testCtx(t, 4)
	rep, err := RunTFKM(testCorpus().Source(nil), ctx, scfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Clustering.Result.Assign, rep.Clustering.Result.Assign) {
		t.Fatal("partitioned discrete assignments differ from one-shard discrete")
	}
	for _, ph := range []string{tfidf.PhaseOutput, "kmeans-input"} {
		if rep.Breakdown.Get(ph) <= 0 {
			t.Errorf("discrete partitioned run missing phase %s", ph)
		}
	}
}

// TestPartitionedBreakdownKeepsFigurePhaseKeys: per-shard timings must
// aggregate into the Figure 3/4 Breakdown keys, in their order.
func TestPartitionedBreakdownKeepsFigurePhaseKeys(t *testing.T) {
	cfg := baseCfg(Merged)
	cfg.Shards = 4
	ctx := testCtx(t, 4)
	rep, err := RunTFKM(testCorpus().Source(nil), ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{tfidf.PhaseInputWC, tfidf.PhaseTransform, "kmeans", PhaseOutput}
	if got := rep.Breakdown.Phases(); !reflect.DeepEqual(got, want) {
		t.Fatalf("phase keys = %v, want %v", got, want)
	}
	for _, ph := range want {
		if rep.Breakdown.Get(ph) <= 0 {
			t.Errorf("phase %s has no recorded time", ph)
		}
	}
}

// TestPartitionRuleExplainMarksShardBoundaries: Plan.Explain must surface
// partition boundaries — per-shard edges as -[xN]->, gathering reductions
// as =[xN]=>.
func TestPartitionRuleExplainMarksShardBoundaries(t *testing.T) {
	cfg := baseCfg(Merged)
	cfg.Shards = 4
	plan := TFKMPlan(testCorpus().Source(nil), cfg)
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	got := plan.Explain()
	for _, want := range []string{
		"scan -> scan.shards",
		"scan.shards -[x4]-> tfidf.map",
		"tfidf.map =[x4]=> tfidf.df",
		"tfidf.map -[x4]-> tfidf.transform",
		"tfidf.df -> tfidf.transform:1",
		"tfidf.transform =[x4]=> tfidf.gather",
		"tfidf.df -> tfidf.gather:1",
		// The iterative K-Means stages: the transform's vector shards feed
		// the assignment loop directly (gathered, shard-aligned norms), the
		// gather's result joins at the reduce, and the loop edge carries the
		// iterative shard marker.
		"tfidf.transform =[x4]=> kmeans.assign",
		"tfidf.gather -> kmeans.reduce:1",
		"kmeans.assign ~[x4]~> kmeans.reduce",
		"kmeans.reduce -> output",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("Explain missing %q:\n%s", want, got)
		}
	}
}

// TestExplainRendersAnnotations: node and plan annotations — the
// optimizer's decision records — render as "#"-prefixed lines after the
// edges, and survive the rewrite rules, including PartitionRule's node
// expansion (the replaced node's note moves to its fragment entry).
func TestExplainRendersAnnotations(t *testing.T) {
	cfg := baseCfg(Discrete)
	plan := LogicalTFKMPlan(testCorpus().Source(nil), cfg).
		Annotate("tfidf", "dict=map-arena (est 12ms)").
		AnnotatePlan("optimizer: test decision record")
	if got := plan.Annotation("tfidf"); got != "dict=map-arena (est 12ms)" {
		t.Fatalf("Annotation = %q", got)
	}
	explain := plan.Explain()
	for _, want := range []string{
		"# optimizer: test decision record",
		"# tfidf: dict=map-arena (est 12ms)",
	} {
		if !strings.Contains(explain, want) {
			t.Errorf("Explain missing %q:\n%s", want, explain)
		}
	}
	// Annotations precede no edge line: all "#" lines come after the edges.
	sawNote := false
	for _, line := range strings.Split(explain, "\n") {
		if strings.HasPrefix(line, "#") {
			sawNote = true
		} else if sawNote {
			t.Fatalf("edge line after annotations:\n%s", explain)
		}
	}
	// Fusion keeps both notes; partitioning moves the tfidf note onto the
	// expanded map node and keeps the shard markers.
	rewritten := plan.Apply(FuseRule(), PartitionRule(4))
	if err := rewritten.Validate(); err != nil {
		t.Fatal(err)
	}
	explain = rewritten.Explain()
	for _, want := range []string{
		"scan.shards -[x4]-> tfidf.map",
		"tfidf.map =[x4]=> tfidf.df",
		"# optimizer: test decision record",
		"# tfidf.map: dict=map-arena (est 12ms)",
	} {
		if !strings.Contains(explain, want) {
			t.Errorf("rewritten Explain missing %q:\n%s", want, explain)
		}
	}
	// Repeated annotation appends rather than replaces.
	p2 := NewPlan().Add("n", stringSource("n", "x")).Annotate("n", "a").Annotate("n", "b")
	if got := p2.Annotation("n"); got != "a; b" {
		t.Fatalf("appended annotation = %q", got)
	}
}

// TestPredictionsSurviveRewrites: predicted phase times sum per phase in
// first-predicted order, come back as a copy, and survive the rewrite
// rules like annotations do; a plan nobody predicted for has none.
func TestPredictionsSurviveRewrites(t *testing.T) {
	plan := LogicalTFKMPlan(testCorpus().Source(nil), baseCfg(Discrete))
	if plan.Predicted() != nil {
		t.Fatal("fresh plan has predictions")
	}
	plan.Predict("input+wc", 3*time.Millisecond).
		Predict("kmeans", 5*time.Millisecond).
		Predict("input+wc", 4*time.Millisecond)
	plan.Predicted().Add("kmeans", time.Second) // a copy: no effect
	rewritten := plan.Apply(SharedScanRule(), FuseRule(), PartitionRule(4))
	for _, p := range []*Plan{plan, rewritten} {
		pred := p.Predicted()
		if got := pred.Phases(); !reflect.DeepEqual(got, []string{"input+wc", "kmeans"}) {
			t.Fatalf("predicted phases %v", got)
		}
		if pred.Get("input+wc") != 7*time.Millisecond || pred.Get("kmeans") != 5*time.Millisecond {
			t.Fatalf("predictions %s", pred)
		}
	}
}

// TestPartitionedWordCountMatchesMonolithic: the sharded word count is a
// second instantiation of the map/reduce decomposition; three shards must
// agree exactly with the logical plan, which Plan.Run expands at the auto
// shard count and answers under its logical sink name.
func TestPartitionedWordCountMatchesMonolithic(t *testing.T) {
	src := testCorpus().Source(nil)
	mono := NewPlan().
		Add("scan", &SourceOp{Src: src}).
		Add("wordcount", &WordCountOp{DictKind: dict.Tree}).
		Connect("scan", "wordcount")
	sharded := mono.Apply(PartitionRule(3))
	if name := "wordcount.map"; sharded.Node(name) == nil {
		t.Fatalf("PartitionRule did not expand wordcount: %s", sharded.Explain())
	}

	ctx := testCtx(t, 4)
	mouts, err := mono.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	souts, err := sharded.Run(testCtx(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	mwc := mouts["wordcount"].(*WordCounts)
	swc := souts["wordcount.reduce"].(*WordCounts)
	if mwc.TotalTokens != swc.TotalTokens {
		t.Fatalf("token totals differ: %d vs %d", mwc.TotalTokens, swc.TotalTokens)
	}
	if !reflect.DeepEqual(mwc.Words, swc.Words) || !reflect.DeepEqual(mwc.Counts, swc.Counts) {
		t.Fatal("3-shard word counts differ from the auto-expanded plan's")
	}
}

// TestDiamondPlanDeliversToEveryConsumer is the regression test for
// per-edge delivery of multi-consumer outputs: a shared scan feeds two
// consumers, and both must receive the dataset even though intermediates
// are released once delivered.
func TestDiamondPlanDeliversToEveryConsumer(t *testing.T) {
	slow := &fnOp{name: "slow", ins: []reflect.Type{stringType}, out: stringType,
		fn: func(_ *Context, ins []Value) (Value, error) {
			time.Sleep(20 * time.Millisecond) // outlive the fast branch
			if ins[0] == nil {
				return nil, fmt.Errorf("slow consumer saw released input")
			}
			return "slow:" + ins[0].(string), nil
		}}
	fast := &fnOp{name: "fast", ins: []reflect.Type{stringType}, out: stringType,
		fn: func(_ *Context, ins []Value) (Value, error) {
			if ins[0] == nil {
				return nil, fmt.Errorf("fast consumer saw released input")
			}
			return "fast:" + ins[0].(string), nil
		}}
	plan := NewPlan().
		Add("src", stringSource("src", "data")).
		Add("fast", fast).
		Add("slow", slow).
		Connect("src", "fast").
		Connect("src", "slow")
	outs, err := plan.Run(testCtx(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if outs["fast"] != "fast:data" || outs["slow"] != "slow:data" {
		t.Fatalf("diamond outputs = %v", outs)
	}
}

// testSplitter is a zero-input splitter emitting the partition index.
type testSplitter struct{ n int }

func (s *testSplitter) Name() string           { return "split" }
func (s *testSplitter) Inputs() []reflect.Type { return nil }
func (s *testSplitter) Output() reflect.Type   { return anyType }
func (s *testSplitter) PartitionCount() int    { return s.n }
func (s *testSplitter) Split(_ *Context, _ []Value, idx, _ int) (Value, error) {
	return idx, nil
}

// testKernel applies fn per shard.
type testKernel struct {
	name string
	fn   func(idx int, in Value) (Value, error)
}

func (k *testKernel) Name() string           { return k.name }
func (k *testKernel) Inputs() []reflect.Type { return []reflect.Type{anyType} }
func (k *testKernel) Output() reflect.Type   { return anyType }
func (k *testKernel) RunPartition(_ *Context, ins []Value, idx, _ int) (Value, error) {
	return k.fn(idx, ins[0])
}

// TestShardsPipelineAcrossMapStages asserts the executor's partition-task
// scheduling: with no reduction between two map stages, shard 0 must be
// able to enter stage B while shard 1 is still inside stage A. Stage A's
// shard 1 blocks until stage B's shard 0 reports in; under bulk-synchronous
// (whole-node) scheduling that handshake would deadlock and time out.
func TestShardsPipelineAcrossMapStages(t *testing.T) {
	b0Started := make(chan struct{})
	stageA := &testKernel{name: "stage-a", fn: func(idx int, in Value) (Value, error) {
		if idx == 1 {
			select {
			case <-b0Started:
			case <-time.After(10 * time.Second):
				return nil, fmt.Errorf("shard 0 never reached stage B while shard 1 was in stage A")
			}
		}
		return in, nil
	}}
	stageB := &testKernel{name: "stage-b", fn: func(idx int, in Value) (Value, error) {
		if idx == 0 {
			close(b0Started)
		}
		return in, nil
	}}
	gather := &fnOp{name: "sink", ins: []reflect.Type{partitionsType}, out: anyType,
		fn: func(_ *Context, ins []Value) (Value, error) {
			parts := ins[0].(*Partitions)
			got := make([]int, len(parts.Parts))
			for i := range got {
				got[i] = parts.Parts[i].(int)
			}
			return got, nil
		}}
	plan := NewPlan().
		Add("split", &testSplitter{n: 2}).
		Add("stage-a", stageA).
		Add("stage-b", stageB).
		Add("sink", gather).
		Connect("split", "stage-a").
		Connect("stage-a", "stage-b").
		Connect("stage-b", "sink")
	outs, err := plan.Run(testCtx(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := outs["sink"].([]int); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("gathered shards = %v, want [0 1] (index order, not completion order)", got)
	}
}

// TestPartitionedObserverSeesGatheredValues: Observe fires once per node;
// partitioned nodes report their gathered dataset.
func TestPartitionedObserverSeesGatheredValues(t *testing.T) {
	cfg := baseCfg(Merged)
	cfg.Shards = 4
	ctx := testCtx(t, 4)
	seen := map[string]int{}
	var gatherOut Value
	ctx.Observe = func(op Operator, out Value) {
		seen[op.Name()]++
		if op.Name() == "gather" {
			gatherOut = out
		}
	}
	if _, err := RunTFKM(testCorpus().Source(nil), ctx, cfg); err != nil {
		t.Fatal(err)
	}
	for name, n := range seen {
		if n != 1 {
			t.Errorf("operator %s observed %d times", name, n)
		}
	}
	if seen["tf-map"] != 1 || seen["df-reduce"] != 1 || seen["transform"] != 1 {
		t.Errorf("shard stages not observed: %v", seen)
	}
	if _, ok := gatherOut.(*tfidf.Result); !ok {
		t.Errorf("gather observed as %T, want *tfidf.Result", gatherOut)
	}
}

// TestPartitionedValidationRejectsShardLeak: a partitioned producer must
// not connect to an operator expecting the monolithic dataset.
func TestPartitionedValidationRejectsShardLeak(t *testing.T) {
	plan := NewPlan().
		Add("scan", &SourceOp{Src: testCorpus().Source(nil)}).
		Add("partition", &PartitionOp{Shards: 2}).
		Add("tf-map", &TFMapOp{}).
		Add("kmeans", &KMeansOp{}). // wants Vectorized, not shards
		Connect("scan", "partition").
		Connect("partition", "tf-map").
		Connect("tf-map", "kmeans")
	err := plan.Validate()
	if err == nil {
		t.Fatal("shard leak into kmeans validated")
	}
	if !strings.Contains(err.Error(), "kmeans") {
		t.Fatalf("unhelpful error: %v", err)
	}
}
