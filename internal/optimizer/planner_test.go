package optimizer

import (
	"strings"
	"testing"

	"hpa/internal/corpus"
	"hpa/internal/dict"
	"hpa/internal/kmeans"
	"hpa/internal/par"
	"hpa/internal/tfidf"
	"hpa/internal/workflow"
)

// With testModel/testStats the cost model prefers the hash dictionary and
// fusion; pins must override both and be annotated as pinned.
func TestPinnedDictOverridesCostModel(t *testing.T) {
	c := corpus.Generate(corpus.Mix().Scaled(0.002), nil)
	plan := testTFKMPlan(c, workflow.Discrete).Apply(
		Rule(testStats(), testModel(), Options{Procs: 1, Shards: 1, Dict: PinDict(dict.NodeTree)}))
	found := false
	for _, name := range plan.Nodes() {
		if op, ok := plan.Node(name).Op().(*workflow.TFMapOp); ok {
			found = true
			if op.Opts.DictKind != dict.NodeTree {
				t.Fatalf("pinned dict not applied: got %v", op.Opts.DictKind)
			}
			if note := plan.Annotation(name); !strings.Contains(note, "pinned by explicit override") {
				t.Fatalf("pin not annotated: %q", note)
			}
		}
	}
	if !found {
		t.Fatal("no TF/IDF map kernel in optimized plan")
	}
}

func TestPinnedFusionOverridesCostModel(t *testing.T) {
	c := corpus.Generate(corpus.Mix().Scaled(0.002), nil)

	// FusionMaterialize: the materialize/load pair must survive even though
	// the intermediate trivially fits the budget.
	plan := testTFKMPlan(c, workflow.Discrete).Apply(
		Rule(testStats(), testModel(), Options{Procs: 1, Shards: 1, Fusion: FusionMaterialize}))
	hasPair := false
	for _, name := range plan.Nodes() {
		if _, ok := plan.Node(name).Op().(*workflow.MaterializeARFF); ok {
			hasPair = true
		}
	}
	if !hasPair {
		t.Fatal("FusionMaterialize pin did not keep the materialize node")
	}
	assertPlanNote(t, plan, "fusion: kept materialized (pinned by explicit override)")

	// FusionFuse: the pair must cancel even under a zero memory budget that
	// would otherwise force materialization.
	plan = testTFKMPlan(c, workflow.Discrete).Apply(
		Rule(testStats(), testModel(), Options{Procs: 1, Shards: 1, Fusion: FusionFuse, MemoryBudget: 1}))
	for _, name := range plan.Nodes() {
		if _, ok := plan.Node(name).Op().(*workflow.MaterializeARFF); ok {
			t.Fatal("FusionFuse pin left the materialize node in place")
		}
	}
	assertPlanNote(t, plan, "fusion: fused (pinned by explicit override)")
}

func assertPlanNote(t *testing.T, p *workflow.Plan, want string) {
	t.Helper()
	for _, note := range p.PlanAnnotations() {
		if strings.Contains(note, want) {
			return
		}
	}
	t.Fatalf("plan annotations %q missing %q", p.PlanAnnotations(), want)
}

// Pinned plans must still produce bit-identical results to the unpinned
// optimized plan — pins are physical, not logical.
func TestPinnedPlansBitIdentical(t *testing.T) {
	c := corpus.Generate(corpus.Mix().Scaled(0.002), nil)
	st, model := testStats(), testModel()
	run := func(opts Options) *workflow.TFKMReport {
		t.Helper()
		pool := par2(t)
		plan := workflow.TFKMPlan(c.Source(nil), workflow.TFKMConfig{
			Mode:   workflow.Discrete,
			TFIDF:  tfidf.Options{DictKind: dict.Tree, Normalize: true},
			KMeans: kmeans.Options{K: 4, Seed: 7},
		}).Apply(Rule(st, model, opts))
		ctx := workflow.NewContext(pool)
		ctx.ScratchDir = t.TempDir()
		rep, err := workflow.RunTFKMPlan(plan, ctx)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := run(Options{Procs: 2})
	for name, opts := range map[string]Options{
		"dict-pin":        {Procs: 2, Dict: PinDict(dict.NodeTree)},
		"fuse-pin":        {Procs: 2, Fusion: FusionFuse},
		"materialize-pin": {Procs: 2, Fusion: FusionMaterialize},
	} {
		rep := run(opts)
		if got, want := rep.Clustering.Result, base.Clustering.Result; got.Inertia != want.Inertia ||
			got.Iterations != want.Iterations {
			t.Fatalf("%s: results differ from unpinned plan (inertia %v vs %v, iters %d vs %d)",
				name, got.Inertia, want.Inertia, got.Iterations, want.Iterations)
		}
	}
}

func TestPlannerCachesStats(t *testing.T) {
	c := corpus.Generate(corpus.Mix().Scaled(0.002), nil)
	p := NewPlanner(testModel(), Options{Procs: 2})
	st1, err := p.StatsFor("corpus-a", c.Source(nil))
	if err != nil {
		t.Fatal(err)
	}
	st2, err := p.StatsFor("corpus-a", c.Source(nil))
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st2 {
		t.Fatal("second StatsFor for the same key did not return the cached statistics")
	}
}

// A planner-built plan must match a hand-applied Rule over the same model,
// statistics and options — the planner only packages residency, it never
// changes decisions.
func TestPlannerMatchesDirectRule(t *testing.T) {
	c := corpus.Generate(corpus.Mix().Scaled(0.002), nil)
	st, model := testStats(), testModel()
	opts := Options{Procs: 2}
	p := NewPlanner(model, opts)
	cfg := workflow.TFKMConfig{
		Mode:   workflow.Merged, // reset by the planner; the optimizer owns fusion
		Shards: 4,               // ignored by the planner; the optimizer owns sharding
		TFIDF:  tfidf.Options{DictKind: dict.Tree, Normalize: true},
		KMeans: kmeans.Options{K: 8, Seed: 42},
	}
	got := p.PlanTFKMWith(c.Source(nil), cfg, st, p.Options())

	base := cfg
	base.Mode = workflow.Discrete
	want := workflow.LogicalTFKMPlan(c.Source(nil), base).Apply(Rule(st, model, opts))
	if g, w := got.Explain(), want.Explain(); g != w {
		t.Fatalf("planner plan differs from direct rule application:\n--- planner\n%s\n--- direct\n%s", g, w)
	}
}

func par2(t *testing.T) *par.Pool {
	t.Helper()
	p := par.NewPool(2)
	t.Cleanup(p.Close)
	return p
}
