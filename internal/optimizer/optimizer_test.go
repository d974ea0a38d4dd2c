package optimizer

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"hpa/internal/corpus"
	"hpa/internal/dict"
	"hpa/internal/kmeans"
	"hpa/internal/metrics"
	"hpa/internal/obs"
	"hpa/internal/par"
	"hpa/internal/pario"
	"hpa/internal/tfidf"
	"hpa/internal/workflow"
)

// testModel returns a hand-written cost model with known shapes: tree costs
// growing with cardinality, hash flat and cheaper at scale, and round
// bandwidth/overhead numbers — so decision tests are deterministic and
// independent of the machine.
func testModel() *CostModel {
	return &CostModel{
		Version: ModelVersion,
		Procs:   4,
		Dicts: map[string]DictCost{
			dict.Tree.String(): {Points: []DictPoint{
				{Cardinality: 1 << 10, InsertNS: 200, LookupNS: 120},
				{Cardinality: 1 << 16, InsertNS: 600, LookupNS: 360},
			}},
			dict.Hash.String(): {Points: []DictPoint{
				{Cardinality: 1 << 10, InsertNS: 80, LookupNS: 30},
				{Cardinality: 1 << 16, InsertNS: 120, LookupNS: 40},
			}},
			dict.NodeTree.String(): {Points: []DictPoint{
				{Cardinality: 1 << 10, InsertNS: 300, LookupNS: 200},
				{Cardinality: 1 << 16, InsertNS: 900, LookupNS: 500},
			}},
		},
		TokenizeNSPerByte: 5,
		ARFFWriteBPS:      150e6,
		ARFFReadBPS:       150e6,
		ShardTaskNS:       20_000,
		KMeansAssignNS:    2,
	}
}

// testStats returns input statistics of a mid-sized corpus.
func testStats() *Stats {
	return &Stats{
		Docs:           20_000,
		Bytes:          60 << 20,
		DistinctTerms:  180_000,
		TotalTokens:    9_000_000,
		AvgDocTokens:   450,
		AvgDocDistinct: 180,
		SampledDocs:    256,
		SampledBytes:   1 << 20,
		KMeansIters:    12,
	}
}

func testTFKMPlan(c *corpus.Corpus, mode workflow.Mode) *workflow.Plan {
	return workflow.LogicalTFKMPlan(c.Source(nil), workflow.TFKMConfig{
		Mode:   mode,
		TFIDF:  tfidf.Options{DictKind: dict.Tree, Normalize: true},
		KMeans: kmeans.Options{K: 8, Seed: 42},
	})
}

func TestDictCostInterpolation(t *testing.T) {
	m := testModel()
	// Clamped below and above the calibrated range.
	if got := m.DictInsertNS(dict.Tree, 1); got != 200 {
		t.Errorf("below-range insert = %v, want clamp to 200", got)
	}
	if got := m.DictLookupNS(dict.Tree, 1<<20); got != 360 {
		t.Errorf("above-range lookup = %v, want clamp to 360", got)
	}
	// Log-linear midpoint: 1<<13 is halfway between 1<<10 and 1<<16 in log
	// space, so the cost is the arithmetic mean of the endpoints.
	if got, want := m.DictInsertNS(dict.Tree, 1<<13), 400.0; math.Abs(got-want) > 1 {
		t.Errorf("midpoint insert = %v, want ~%v", got, want)
	}
	// Monotone between points for a rising curve.
	prev := 0.0
	for _, card := range []int{1 << 10, 1 << 11, 1 << 13, 1 << 15, 1 << 16} {
		cur := m.DictLookupNS(dict.Tree, card)
		if cur < prev {
			t.Fatalf("lookup cost not monotone at %d: %v < %v", card, cur, prev)
		}
		prev = cur
	}
	// Unknown kind prices to zero rather than panicking.
	if got := (&CostModel{}).DictInsertNS(dict.Tree, 100); got != 0 {
		t.Errorf("empty model insert = %v, want 0", got)
	}
}

func TestCostModelCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m, err := Calibrate(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, back) {
		t.Fatal("model did not survive the JSON round trip")
	}
	// LoadOrCalibrate must serve the cache, not re-measure: plant a
	// sentinel value and check it comes back.
	back.ShardTaskNS = 123456
	if _, err := back.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadOrCalibrate(dir, Quick())
	if err != nil {
		t.Fatal(err)
	}
	if got.ShardTaskNS != 123456 {
		t.Fatalf("LoadOrCalibrate re-measured despite a valid cache (task ns %v)", got.ShardTaskNS)
	}
	// Force bypasses the cache.
	q := Quick()
	q.Force = true
	got, err = LoadOrCalibrate(dir, q)
	if err != nil {
		t.Fatal(err)
	}
	if got.ShardTaskNS == 123456 {
		t.Fatal("Force did not re-calibrate")
	}
}

func TestCacheRejectsStaleVersion(t *testing.T) {
	dir := t.TempDir()
	m, err := Calibrate(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Save keys the file name by the current ModelVersion, so a stale body
	// under the current name is exactly what an old binary would leave
	// behind after a schema change in the other direction.
	m.Version = ModelVersion + 1
	if _, err := m.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("Load accepted a cost model with a stale version")
	}
}

func TestCalibratedModelIsPlausible(t *testing.T) {
	m, err := Calibrate(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if m.TokenizeNSPerByte <= 0 {
		t.Errorf("tokenizer cost %v", m.TokenizeNSPerByte)
	}
	if m.ARFFWriteBPS <= 0 || m.ARFFReadBPS <= 0 {
		t.Errorf("arff bandwidths %v / %v", m.ARFFWriteBPS, m.ARFFReadBPS)
	}
	for name, v := range map[string]float64{
		"shard task overhead": m.ShardTaskNS, "kmeans iteration rate": m.KMeansAssignNS, "rpc ship cost": m.RPCShipNS,
	} {
		if !(v > 0) || math.IsInf(v, 0) {
			t.Errorf("%s %v, want positive and finite", name, v)
		}
	}
	for _, kind := range dict.Kinds() {
		c, ok := m.Dicts[kind.String()]
		if !ok || len(c.Points) == 0 {
			t.Fatalf("kind %s not calibrated", kind)
		}
		for _, p := range c.Points {
			if p.InsertNS <= 0 || p.LookupNS <= 0 {
				t.Errorf("kind %s @%d has non-positive costs: %+v", kind, p.Cardinality, p)
			}
		}
	}
}

// TestFitPlanTermsFromSpans checks the fit of the plan-level terms on a
// hand-built pair of recordings, where every term has an exact answer.
func TestFitPlanTermsFromSpans(t *testing.T) {
	const k = 3 // waves 0 and 1 are the k − 1 seed rounds, 2 and 3 iterations
	epoch := time.Unix(1000, 0)
	var local obs.Trace
	end := epoch.Add(-10 * time.Microsecond)
	// Serial spans, each 10µs after the one before it.
	add := func(node, kind string, wave int, dur time.Duration, io int64) {
		start := end.Add(10 * time.Microsecond)
		end = start.Add(dur)
		local.Spans = append(local.Spans, obs.Span{Node: node, Kind: kind, Iter: wave, Start: start, End: end, IOBytes: io})
	}
	add("scan", "run", -1, 7*time.Microsecond, 0)
	add("materialize-arff", "run", -1, 2*time.Second, 3e9)
	add("load-arff", "run", -1, 4*time.Second, 3e9)
	add("kmeans.assign", "loop-begin", -1, 100*time.Microsecond, 0)
	for wave := 0; wave < 4; wave++ {
		// Seed rounds cost 1 ms a wave, iterations 60µs; only the latter count.
		shard, barrier := 900*time.Microsecond, 100*time.Microsecond
		if wave >= k-1 {
			shard, barrier = 50*time.Microsecond, 10*time.Microsecond
		}
		add("kmeans.assign", "loop-shard", wave, shard, 0)
		add("kmeans.assign", "loop-end", wave, barrier, 0)
	}
	add("kmeans.assign", "loop-finish", -1, 300*time.Microsecond, 0)
	add("output", "run", -1, 20*time.Microsecond, 0)

	remote := obs.Trace{Spans: []obs.Span{
		// In-process tasks (no worker) do not ship: this one must not count.
		{Node: "tfidf.df", Kind: "run", Start: epoch, End: epoch.Add(time.Second)},
		{Node: "tfidf.map", Kind: "map", Worker: "client0", Start: epoch, End: epoch.Add(300 * time.Microsecond), WorkerRun: 100 * time.Microsecond},
		{Node: "tfidf.map", Kind: "map", Worker: "client0", Start: epoch, End: epoch.Add(500 * time.Microsecond), WorkerRun: 100 * time.Microsecond},
	}}

	const nnz = 100
	var m CostModel
	if err := fitPlanTerms(&m, &local, &remote, nnz, k); err != nil {
		t.Fatal(err)
	}
	want := CostModel{
		ARFFWriteBPS: 1.5e9,  // 3e9 bytes in 2 s
		ARFFReadBPS:  0.75e9, // 3e9 bytes in 4 s
		ShardTaskNS:  10_000, // every gap is 10µs
		// Two iteration waves of 60µs over 2 iterations × 100 nnz × 3.
		KMeansAssignNS: 120_000.0 / 600,
		// Mean of 300 − 100 and 500 − 100 µs.
		RPCShipNS: 300_000,
	}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("fit %+v, want %+v", m, want)
	}

	// A recording without worker spans fits no ship cost: an error, not a
	// zero price.
	if err := fitPlanTerms(&CostModel{}, &local, &obs.Trace{}, nnz, k); err == nil {
		t.Fatal("fit accepted a remote recording with no worker spans")
	}
}

// TestZeroValueKindIsWhatTheModelPicks defends the library default with a
// number: on the benchmark's text corpus (Mix@0.05), dictionary curves
// calibrated on this machine make tfidfBestKind choose the zero-value
// dict.Kind. A calibration pass that a scheduler stall lands in can misprice
// one kind, so the claim is that a clean pass picks the default — up to
// three are tried.
func TestZeroValueKindIsWhatTheModelPicks(t *testing.T) {
	st, err := FromCorpus(corpus.Generate(corpus.Mix().Scaled(0.05), nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := CalibrationOptions{}
	opts.defaults()
	var dec decision
	for attempt := 0; attempt < 3; attempt++ {
		m := &CostModel{Version: ModelVersion, Dicts: map[string]DictCost{}}
		for _, kind := range candidateKinds {
			var curve DictCost
			for _, card := range opts.DictCardinalities {
				curve.Points = append(curve.Points, calibrateDictPoint(kind, card, opts.DictPasses))
			}
			m.Dicts[kind.String()] = curve
		}
		var best dict.Kind
		best, dec = (&rule{st: st, m: m}).tfidfBestKind()
		if best == dict.Kind(0) {
			return
		}
	}
	t.Fatalf("the calibrated model never picked the default kind %s: %s", dict.Kind(0), dec.note)
}

func TestCollectStats(t *testing.T) {
	c := corpus.Generate(corpus.Mix().Scaled(0.01), nil)
	st, err := FromCorpus(c, 128)
	if err != nil {
		t.Fatal(err)
	}
	if st.Docs != c.Len() {
		t.Errorf("docs = %d, want %d", st.Docs, c.Len())
	}
	if st.Bytes != c.Bytes() {
		t.Errorf("bytes = %d, want %d", st.Bytes, c.Bytes())
	}
	if st.SampledDocs > c.Len() || st.SampledDocs < 64 {
		t.Errorf("sampled %d of %d docs", st.SampledDocs, c.Len())
	}
	real := c.MeasureStats()
	// The Heaps extrapolation is an estimate; require the right order of
	// magnitude (within 3x), which is all the cost comparisons need.
	ratio := float64(st.DistinctTerms) / float64(real.DistinctWords)
	if ratio < 1.0/3 || ratio > 3 {
		t.Errorf("distinct estimate %d vs measured %d (ratio %.2f)", st.DistinctTerms, real.DistinctWords, ratio)
	}
	tokRatio := float64(st.TotalTokens) / float64(real.TotalTokens)
	if tokRatio < 0.5 || tokRatio > 2 {
		t.Errorf("token estimate %d vs measured %d", st.TotalTokens, real.TotalTokens)
	}
	if st.KMeansIters < 1 || st.KMeansIters > 100 {
		t.Errorf("kmeans iteration estimate %d outside [1, 100]", st.KMeansIters)
	}
	// Sampling is deterministic: a second pass sees identical numbers.
	st2, err := FromCorpus(c, 128)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, st2) {
		t.Fatal("sampling is not deterministic")
	}
}

func TestCollectEmptySource(t *testing.T) {
	st, err := Collect(corpus.Generate(corpus.Spec{Documents: 1, TargetBytes: 1024, TargetDistinct: 16, ZipfS: 1.05, ZipfQ: 2.7, Seed: 9}, nil).Source(nil), 8)
	if err != nil {
		t.Fatal(err)
	}
	if st.Docs != 1 || st.SampledDocs != 1 {
		t.Fatalf("stats over one-doc corpus: %+v", st)
	}
}

func TestCollectTokenFreeDocuments(t *testing.T) {
	// Documents that tokenize to nothing (digits/punctuation only) must
	// yield zero token statistics, not NaN-derived garbage.
	src := &pario.MemSource{Docs: [][]byte{[]byte("1234 5678"), []byte("!!! ???")}}
	st, err := Collect(src, 8)
	if err != nil {
		t.Fatal(err)
	}
	if st.DistinctTerms != 0 || st.TotalTokens != 0 || st.AvgDocTokens != 0 {
		t.Fatalf("token-free corpus produced nonzero token stats: %+v", st)
	}
	if st.Docs != 2 || st.SampledDocs != 2 || st.Bytes <= 0 {
		t.Fatalf("document stats wrong: %+v", st)
	}
}

func TestRewriteDoesNotMutateInputWhenNothingApplies(t *testing.T) {
	// A plan with no TF/IDF, no word count, no materialize/load pair and
	// nothing partitionable: every decision keeps the shape, but the
	// returned plan must still be a copy — the caller's plan stays free of
	// optimizer annotations (and so can be optimized later with different
	// options).
	c := corpus.Generate(corpus.Mix().Scaled(0.002), nil)
	p := workflow.NewPlan().Add("scan", &workflow.SourceOp{Src: c.Source(nil)})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	opt := p.Apply(Rule(testStats(), testModel(), Options{Procs: 4}))
	if len(p.PlanAnnotations()) != 0 {
		t.Fatalf("Rule annotated the input plan: %v", p.PlanAnnotations())
	}
	if len(opt.PlanAnnotations()) == 0 {
		t.Fatal("optimized copy carries no record of the pass")
	}
}

func TestOptimizePartitionedPlanKeepsShardsButRetunesDicts(t *testing.T) {
	// A plan the user already partitioned keeps its shard count — the pass
	// prices monolithic operators and must not stamp a contradictory
	// decision onto the existing partition node — but the dictionary
	// decision still reaches the expanded shard kernels.
	c := corpus.Generate(corpus.Mix().Scaled(0.002), nil)
	pre := workflow.TFKMPlan(c.Source(nil), workflow.TFKMConfig{
		Mode:   workflow.Merged,
		Shards: 4,
		TFIDF:  tfidf.Options{DictKind: dict.Tree, Normalize: true},
		KMeans: kmeans.Options{K: 4, Seed: 7},
	})
	opt := pre.Apply(Rule(testStats(), testModel(), Options{Procs: 8}))
	if err := opt.Validate(); err != nil {
		t.Fatal(err)
	}
	kernels := 0
	for _, name := range opt.Nodes() {
		switch op := opt.Node(name).Op().(type) {
		case *workflow.PartitionOp:
			if op.PartitionCount() != 4 {
				t.Fatalf("existing partition node changed to %d shards", op.PartitionCount())
			}
			if note := opt.Annotation(name); strings.Contains(note, "shards=") {
				t.Fatalf("existing partition node got a contradictory decision: %q", note)
			}
		case *workflow.TFMapOp:
			kernels++
			if op.Opts.DictKind != dict.Hash {
				t.Errorf("tf-map kernel kept dict %s, want %s", op.Opts.DictKind, dict.Hash)
			}
		case *workflow.DFReduceOp:
			kernels++
			if op.Opts.DictKind != dict.Hash {
				t.Errorf("df-reduce kept dict %s, want %s", op.Opts.DictKind, dict.Hash)
			}
		case *workflow.TransformOp:
			kernels++
			if op.Opts.DictKind != dict.Hash {
				t.Errorf("transform kept dict %s, want %s", op.Opts.DictKind, dict.Hash)
			}
		}
	}
	if kernels < 3 {
		t.Fatalf("expected expanded kernels in the plan:\n%s", opt.Explain())
	}
	found := false
	for _, note := range opt.PlanAnnotations() {
		if strings.Contains(note, "already partitioned") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no already-partitioned record in %v", opt.PlanAnnotations())
	}
	// The retuned partitioned plan still runs and matches the default
	// configuration bit-for-bit on assignments.
	pool := par.NewPool(2)
	defer pool.Close()
	ctx := workflow.NewContext(pool)
	ctx.ScratchDir = t.TempDir()
	rep, err := workflow.RunTFKMPlan(opt, ctx)
	if err != nil {
		t.Fatal(err)
	}
	ctx2 := workflow.NewContext(pool)
	ctx2.ScratchDir = t.TempDir()
	ref, err := workflow.RunTFKMPlan(pre, ctx2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Clustering.Result.Assign, rep.Clustering.Result.Assign) {
		t.Fatal("dictionary retune changed the clustering")
	}
}

func TestRuleValueIsReusableAcrossPlans(t *testing.T) {
	// One Rule value applied to two different plans must optimize both —
	// the fixpoint guard is the plan's own annotation, not rule state.
	st, m := testStats(), testModel()
	c := corpus.Generate(corpus.Mix().Scaled(0.002), nil)
	r := Rule(st, m, Options{Procs: 4})
	first := testTFKMPlan(c, workflow.Discrete).Apply(r)
	second := testTFKMPlan(c, workflow.Discrete).Apply(r)
	for i, opt := range []*workflow.Plan{first, second} {
		if len(opt.PlanAnnotations()) == 0 {
			t.Fatalf("plan %d was not optimized by the shared rule", i)
		}
	}
}

// constStraggler is the fixed-allowance straggler model the pricing unit
// tests use (the historical constant).
func constStraggler(int) float64 { return stragglerFactor }

func TestChooseShardCount(t *testing.T) {
	taskNS := 20_000.0
	// Big work on many procs: over-decompose past the worker count so work
	// stealing can smooth stragglers, bounded by 4 waves.
	s, _ := chooseShardCount(10e9, 8, 1<<20, taskNS, constStraggler)
	if s < 8 || s > 32 {
		t.Errorf("big work chose %d shards, want within [8, 32]", s)
	}
	// Tiny work: the per-task overhead dominates, sharding must not pay.
	s, _ = chooseShardCount(50_000, 8, 1<<20, taskNS, constStraggler)
	if s != 1 {
		t.Errorf("tiny work chose %d shards, want 1", s)
	}
	// One processor: no parallelism to buy, one shard no matter the work.
	s, _ = chooseShardCount(10e9, 1, 1<<20, taskNS, constStraggler)
	if s != 1 {
		t.Errorf("single proc chose %d shards, want 1", s)
	}
	// The document count caps the shard count.
	s, _ = chooseShardCount(10e9, 8, 3, taskNS, constStraggler)
	if s > 3 {
		t.Errorf("3-doc corpus chose %d shards", s)
	}
}

func TestBackendProfilePricing(t *testing.T) {
	taskNS := 20_000.0
	// A ruinously expensive ship cost must push the decision to one shard
	// even for work that sharding would otherwise win.
	local, _ := chooseShardCount(10e9, 8, 1<<20, taskNS, constStraggler)
	if local <= 1 {
		t.Fatalf("local pricing chose one shard for heavy work")
	}
	bp := BackendProfile{Remote: true, Workers: 2, ShipNS: 10e9}
	remote, _ := chooseShardCount(10e9, bp.slots(8), 1<<20, bp.perTaskNS(taskNS), constStraggler)
	if remote != 1 {
		t.Errorf("ruinous ship cost still chose %d shards, want 1", remote)
	}
	// A cheap ship cost with extra workers adds slots: at least as many
	// shards as the local decision.
	cheap := BackendProfile{Remote: true, Workers: 8, ShipNS: 1000}
	s, _ := chooseShardCount(10e9, cheap.slots(8), 1<<20, cheap.perTaskNS(taskNS), constStraggler)
	if s < local {
		t.Errorf("8 extra workers chose %d shards, local chose %d", s, local)
	}
	// Single-proc coordinator with 8 workers and a modest ship cost: the
	// workers are slots one shard cannot use, so sharding must win.
	many := BackendProfile{Remote: true, Workers: 8, ShipNS: 1e6}
	s, _ = chooseShardCount(1e9, many.slots(1), 1<<20, many.perTaskNS(taskNS), constStraggler)
	if s <= 1 {
		t.Errorf("1 proc + 8 workers chose one shard; sharding onto workers must win")
	}
}

func TestStragglerFromVariance(t *testing.T) {
	m := testModel()
	// No variance recorded: the historical constant.
	r := &rule{st: &Stats{Docs: 10000}, m: m, opts: Options{Procs: 8}}
	if got := r.stragglerAt(8); got != stragglerFactor {
		t.Errorf("no-variance straggler = %v, want the constant %v", got, stragglerFactor)
	}
	// Mild variance over many docs per shard: well below the constant,
	// floored at stragglerMin.
	r.st.DocSizeCV = 0.3
	got := r.stragglerAt(8)
	if got >= stragglerFactor || got < stragglerMin {
		t.Errorf("derived straggler = %v, want in [%v, %v)", got, stragglerMin, stragglerFactor)
	}
	// Extreme variance cannot exceed the historical cap.
	r.st.DocSizeCV = 50
	r.st.Docs = 16
	if got := r.stragglerAt(8); got > stragglerFactor {
		t.Errorf("capped straggler = %v, want <= %v", got, stragglerFactor)
	}
	// More shards over the same corpus mean fewer docs per shard and a
	// larger max-of-s overshoot: the allowance must not decrease.
	r.st = &Stats{Docs: 100000, DocSizeCV: 1.5}
	if a2, a32 := r.stragglerAt(2), r.stragglerAt(32); a32 < a2 {
		t.Errorf("straggler at 32 shards (%v) < at 2 shards (%v)", a32, a2)
	}
}

func TestOptimizeChoosesCheaperDict(t *testing.T) {
	st, m := testStats(), testModel()
	c := corpus.Generate(corpus.Mix().Scaled(0.002), nil)
	plan := testTFKMPlan(c, workflow.Discrete)
	opt := plan.Apply(Rule(st, m, Options{Procs: 4}))
	if err := opt.Validate(); err != nil {
		t.Fatalf("optimized plan invalid: %v", err)
	}
	// The hand-written model makes the hash dictionary strictly cheaper.
	found := false
	for _, name := range opt.Nodes() {
		switch op := opt.Node(name).Op().(type) {
		case *workflow.TFIDFOp:
			found = true
			if op.Opts.DictKind != dict.Hash {
				t.Errorf("node %s kept dict %s, want %s", name, op.Opts.DictKind, dict.Hash)
			}
		case *workflow.TFMapOp:
			found = true
			if op.Opts.DictKind != dict.Hash {
				t.Errorf("shard kernel %s has dict %s, want %s", name, op.Opts.DictKind, dict.Hash)
			}
		}
	}
	if !found {
		t.Fatalf("no TF/IDF operator in optimized plan: %s", opt.Explain())
	}
	// The input plan is untouched (Rewriter contract).
	if op := plan.Node("tfidf").Op().(*workflow.TFIDFOp); op.Opts.DictKind != dict.Tree {
		t.Fatal("Rule mutated the input plan")
	}
	explain := opt.Explain()
	for _, want := range []string{"dict=u-map", "# optimizer:", "fusion: fused"} {
		if !strings.Contains(explain, want) {
			t.Errorf("Explain missing %q:\n%s", want, explain)
		}
	}
}

func TestOptimizeShardsOnMultiProcModel(t *testing.T) {
	st, m := testStats(), testModel()
	c := corpus.Generate(corpus.Mix().Scaled(0.002), nil)
	opt := testTFKMPlan(c, workflow.Discrete).Apply(Rule(st, m, Options{Procs: 8}))
	if err := opt.Validate(); err != nil {
		t.Fatalf("optimized plan invalid: %v", err)
	}
	var part *workflow.PartitionOp
	partName := ""
	for _, name := range opt.Nodes() {
		if po, ok := opt.Node(name).Op().(*workflow.PartitionOp); ok {
			part, partName = po, name
		}
	}
	if part == nil {
		t.Fatalf("big-work 8-proc plan was not partitioned:\n%s", opt.Explain())
	}
	if part.Shards < 8 {
		t.Errorf("chose %d shards on 8 procs for heavy work", part.Shards)
	}
	if note := opt.Annotation(partName); !strings.Contains(note, "shards=") {
		t.Errorf("partition node not annotated: %q", note)
	}
	// Shard boundary markers and the decision annotations coexist in
	// Explain.
	explain := opt.Explain()
	if !strings.Contains(explain, "]->") || !strings.Contains(explain, "]=>") {
		t.Errorf("Explain lost shard markers:\n%s", explain)
	}
}

// TestOptimizeOneProcPlansOneShard: where sharding would not pay, the
// decision is still applied — as one explicit shard, not a logical plan
// left for Plan.Run to expand.
func TestOptimizeOneProcPlansOneShard(t *testing.T) {
	c := corpus.Generate(corpus.Mix().Scaled(0.002), nil)
	opt := testTFKMPlan(c, workflow.Merged).Apply(Rule(testStats(), testModel(), Options{Procs: 1}))
	for _, name := range opt.Nodes() {
		if po, ok := opt.Node(name).Op().(*workflow.PartitionOp); ok {
			if po.Shards != 1 {
				t.Errorf("one proc chose %d shards, want 1", po.Shards)
			}
			return
		}
	}
	t.Fatalf("one-proc plan left unpartitioned:\n%s", opt.Explain())
}

func TestOptimizePinnedShards(t *testing.T) {
	st, m := testStats(), testModel()
	c := corpus.Generate(corpus.Mix().Scaled(0.002), nil)
	// Pinned count wins over the model's choice, in the map stages and the
	// K-Means loop alike.
	opt := testTFKMPlan(c, workflow.Discrete).Apply(Rule(st, m, Options{Procs: 8, Shards: 3}))
	found := false
	for _, name := range opt.Nodes() {
		switch op := opt.Node(name).Op().(type) {
		case *workflow.PartitionOp:
			found = true
			if op.Shards != 3 {
				t.Errorf("pinned shards = %d, want 3", op.Shards)
			}
			if !strings.Contains(opt.Annotation(name), "pinned") {
				t.Errorf("pin not annotated: %q", opt.Annotation(name))
			}
		case *workflow.KMAssignOp:
			if op.Shards != 3 {
				t.Errorf("pinned loop shards = %d, want 3", op.Shards)
			}
		}
	}
	if !found {
		t.Fatalf("pinned plan not partitioned:\n%s", opt.Explain())
	}
}

func TestOptimizeKeepsMaterializationOverBudget(t *testing.T) {
	st, m := testStats(), testModel()
	c := corpus.Generate(corpus.Mix().Scaled(0.002), nil)
	// A budget below the estimated resident matrix forces the discrete
	// shape to survive.
	opt := testTFKMPlan(c, workflow.Discrete).Apply(Rule(st, m, Options{Procs: 1, MemoryBudget: 1 << 20}))
	hasMat := false
	for _, name := range opt.Nodes() {
		if _, ok := opt.Node(name).Op().(*workflow.MaterializeARFF); ok {
			hasMat = true
		}
	}
	if !hasMat {
		t.Fatalf("fusion ignored the memory budget:\n%s", opt.Explain())
	}
	if explain := opt.Explain(); !strings.Contains(explain, "kept materialized") {
		t.Errorf("kept-materialized decision not annotated:\n%s", explain)
	}
}

func TestRuleFixpointsAndComposes(t *testing.T) {
	st, m := testStats(), testModel()
	c := corpus.Generate(corpus.Mix().Scaled(0.002), nil)
	plan := testTFKMPlan(c, workflow.Discrete)
	r := Rule(st, m, Options{Procs: 4})
	// Apply drives Rewrite to a fixpoint; a second full Apply with a fresh
	// rule must also be a no-op because the plan carries the optimizer
	// annotation.
	opt := plan.Apply(r)
	again := opt.Apply(Rule(st, m, Options{Procs: 4}))
	if !reflect.DeepEqual(opt.Nodes(), again.Nodes()) {
		t.Fatal("re-optimizing an optimized plan changed it")
	}
	if len(again.PlanAnnotations()) != len(opt.PlanAnnotations()) {
		t.Fatal("re-optimizing duplicated annotations")
	}
	// Composes with the other rules in one Apply chain.
	composed := plan.Apply(workflow.SharedScanRule(), Rule(st, m, Options{Procs: 4}))
	if err := composed.Validate(); err != nil {
		t.Fatalf("composed rewrite invalid: %v", err)
	}
}

// TestOptimizeTunesKMeansLoop: on a multi-proc model, the pass must
// expand K-Means into the iterative loop stages, set the loop shard count
// from the calibrated kernel cost and the iteration estimate, and
// annotate the decision on the assignment node — the loop count is
// independent of the map shard count.
func TestOptimizeTunesKMeansLoop(t *testing.T) {
	st, m := testStats(), testModel()
	c := corpus.Generate(corpus.Mix().Scaled(0.002), nil)
	opt := testTFKMPlan(c, workflow.Discrete).Apply(Rule(st, m, Options{Procs: 8}))
	if err := opt.Validate(); err != nil {
		t.Fatalf("optimized plan invalid: %v", err)
	}
	var assign *workflow.KMAssignOp
	assignName := ""
	for _, name := range opt.Nodes() {
		if op, ok := opt.Node(name).Op().(*workflow.KMAssignOp); ok {
			assign, assignName = op, name
		}
	}
	if assign == nil {
		t.Fatalf("8-proc plan kept the monolithic K-Means operator:\n%s", opt.Explain())
	}
	if assign.Shards < 8 {
		t.Errorf("loop shards = %d on 8 procs for heavy iterative work", assign.Shards)
	}
	note := opt.Annotation(assignName)
	for _, want := range []string{"loop shards=", "iterations"} {
		if !strings.Contains(note, want) {
			t.Errorf("assignment node annotation %q missing %q", note, want)
		}
	}
	// The iterative loop edge renders in Explain alongside the decisions.
	if explain := opt.Explain(); !strings.Contains(explain, "]~>") {
		t.Errorf("Explain lost the iterative loop marker:\n%s", explain)
	}
}

// TestChooseLoopShards: the loop shard count follows the per-iteration
// work against the per-task overhead.
func TestChooseLoopShards(t *testing.T) {
	// A single processor prices the loop down to one shard: pure overhead,
	// no parallelism to buy.
	if s, _ := chooseLoopShards(10e9, 12, 1, 1<<20, 20_000, 20_000, constStraggler); s != 1 {
		t.Errorf("single proc chose %d loop shards, want 1", s)
	}
	// Heavy work on many procs over-decomposes past the worker count.
	if s, _ := chooseLoopShards(10e9, 12, 8, 1<<20, 20_000, 20_000, constStraggler); s < 8 {
		t.Errorf("heavy work on 8 procs chose %d loop shards", s)
	}
	// Tiny per-iteration work: barrier overhead dominates, stay serial.
	if s, _ := chooseLoopShards(100_000, 50, 8, 1<<20, 20_000, 20_000, constStraggler); s != 1 {
		t.Errorf("tiny iterative work chose %d loop shards, want 1", s)
	}
}

// TestOptimizedPlanBitIdenticalAndRuns is the acceptance determinism test:
// on the calibration corpus, the optimized plan must produce bit-identical
// TF/IDF scores and cluster assignments to a reference configuration
// (Merged, auto shards, TreeDict), using a real calibrated model.
func TestOptimizedPlanBitIdenticalAndRuns(t *testing.T) {
	c := corpus.Generate(corpus.Calibration().Scaled(0.2), nil)
	pool := par.NewPool(4)
	defer pool.Close()

	run := func(plan *workflow.Plan) *workflow.TFKMReport {
		t.Helper()
		ctx := workflow.NewContext(pool)
		ctx.ScratchDir = t.TempDir()
		rep, err := workflow.RunTFKMPlan(plan, ctx)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	// Reference configuration: merged mode, auto shards, tree dictionary.
	def := workflow.TFKMPlan(c.Source(nil), workflow.TFKMConfig{
		Mode:   workflow.Merged,
		TFIDF:  tfidf.Options{DictKind: dict.Tree, Normalize: true},
		KMeans: kmeans.Options{K: 8, Seed: 42},
	})
	ref := run(def)

	m, err := Calibrate(Quick())
	if err != nil {
		t.Fatal(err)
	}
	st, err := FromCorpus(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	opt := Optimize(testTFKMPlan(c, workflow.Discrete), st, m)
	if err := opt.Validate(); err != nil {
		t.Fatalf("optimized plan invalid: %v", err)
	}
	rep := run(opt)

	if !reflect.DeepEqual(ref.Clustering.Result.Assign, rep.Clustering.Result.Assign) {
		t.Fatal("optimized plan changed cluster assignments")
	}
	w, g := ref.Clustering.TFIDF, rep.Clustering.TFIDF
	if w == nil || g == nil {
		// The optimizer may legitimately keep materialization (no TFIDF
		// retained); scores were still checked transitively through the
		// assignments above. But under the default 4 GiB budget on the
		// calibration corpus it must fuse.
		t.Fatalf("expected fused plans to retain the TF/IDF result (ref %v, opt %v)", w != nil, g != nil)
	}
	if !reflect.DeepEqual(w.Terms, g.Terms) || !reflect.DeepEqual(w.DF, g.DF) {
		t.Fatal("optimized plan changed the term table")
	}
	for i := range w.Vectors {
		wv, gv := &w.Vectors[i], &g.Vectors[i]
		if !reflect.DeepEqual(wv.Idx, gv.Idx) {
			t.Fatalf("doc %d: index sets differ", i)
		}
		for j := range wv.Val {
			if math.Float64bits(wv.Val[j]) != math.Float64bits(gv.Val[j]) {
				t.Fatalf("doc %d component %d not bit-identical", i, j)
			}
		}
	}
}

// TestAutopsyReportsThePlansPredictions runs two optimized plans traced —
// TF/IDF→K-Means, and a word count sharing TF/IDF's scan — and checks the
// autopsy's per-phase block against the plan's typed predictions: exactly
// Predicted()'s phases, in its order, at its values, each next to the
// run's measurement. The predictions state what the annotations print,
// and the shared scan's input+wc sums the TF/IDF and word-count terms.
func TestAutopsyReportsThePlansPredictions(t *testing.T) {
	c := corpus.Generate(corpus.Mix().Scaled(0.002), nil)
	st, m := testStats(), testModel()
	opts := Options{Procs: 2}
	r := Rule(st, m, opts).(*rule)
	_, tf := r.tfidfBestKind()
	_, wc := r.wordCountBestKind()
	est := func(d decision, i int) time.Duration { return time.Duration(d.est[i].ns) }

	pool := par.NewPool(2)
	defer pool.Close()
	autopsy := func(plan *workflow.Plan, tfkm bool) (*metrics.Breakdown, string) {
		t.Helper()
		ctx := workflow.NewContext(pool)
		ctx.ScratchDir = t.TempDir()
		ctx.Tracer = obs.NewTracer()
		var err error
		if tfkm {
			_, err = workflow.RunTFKMPlan(plan, ctx)
		} else {
			_, err = plan.Run(ctx)
		}
		if err != nil {
			t.Fatal(err)
		}
		return ctx.Breakdown, obs.Autopsy(plan, ctx.Tracer.Snapshot(), ctx.Breakdown)
	}
	checkBlock := func(name string, plan *workflow.Plan, want map[string]time.Duration, tfkm bool) {
		t.Helper()
		pred := plan.Predicted()
		if pred == nil {
			t.Fatalf("%s: optimized plan predicts nothing", name)
		}
		if len(pred.Phases()) != len(want) {
			t.Fatalf("%s: predicted phases %v, want %v", name, pred.Phases(), want)
		}
		for phase, d := range want {
			if got := pred.Get(phase); got != d {
				t.Errorf("%s: predicted %s = %v, want %v", name, phase, got, d)
			}
		}
		bd, out := autopsy(plan, tfkm)
		_, block, ok := strings.Cut(out, "# cost model by phase (predicted / measured):\n")
		if !ok {
			t.Fatalf("%s: no cost-model block:\n%s", name, out)
		}
		lines := strings.Split(block, "\n")
		if len(lines) != len(pred.Phases()) {
			t.Fatalf("%s: block has %d lines, plan predicts %d phases:\n%s", name, len(lines), len(pred.Phases()), block)
		}
		for i, phase := range pred.Phases() {
			prefix := fmt.Sprintf("#   %-10s %s / %s (", phase+":",
				metrics.FormatEstimate(pred.Get(phase)), metrics.FormatEstimate(bd.Get(phase)))
			if !strings.HasPrefix(lines[i], prefix) {
				t.Errorf("%s: block line %d = %q, want prefix %q", name, i, lines[i], prefix)
			}
		}
		if n := strings.Count(out, "predicted"); n != 1 { // the block header's
			t.Errorf("%s: a per-node predicted ratio survived:\n%s", name, out)
		}
	}

	tfkm := testTFKMPlan(c, workflow.Merged).Apply(Rule(st, m, opts))
	pred := tfkm.Predicted()
	checkBlock("tfidf→kmeans", tfkm, map[string]time.Duration{
		tfidf.PhaseInputWC: est(tf, 0),
		kmeans.PhaseKMeans: pred.Get(kmeans.PhaseKMeans),
	}, true)
	// The predictions are the figures the annotations print.
	wantTF := fmt.Sprintf("est input+wc %s; ", metrics.FormatEstimate(pred.Get(tfidf.PhaseInputWC)))
	wantKM := fmt.Sprintf("loop shards=%d (est %s; ", tfkm.Node("kmeans.assign").Op().(*workflow.KMAssignOp).Shards,
		metrics.FormatEstimate(pred.Get(kmeans.PhaseKMeans)))
	if note := tfkm.Annotation("tfidf.map"); !strings.Contains(note, wantTF) {
		t.Errorf("tfidf.map note %q does not state %q", note, wantTF)
	}
	if note := tfkm.Annotation("kmeans.assign"); !strings.Contains(note, wantKM) {
		t.Errorf("kmeans.assign note %q does not state %q", note, wantKM)
	}

	src := c.Source(nil)
	shared := workflow.NewPlan().
		Add("scan", &workflow.SourceOp{Src: src}).
		Add("scan2", &workflow.SourceOp{Src: src}).
		Add("wordcount", &workflow.WordCountOp{DictKind: dict.Tree}).
		Add("tfidf", &workflow.TFIDFOp{Opts: tfidf.Options{DictKind: dict.Tree}}).
		Connect("scan", "wordcount").
		Connect("scan2", "tfidf").
		Apply(workflow.SharedScanRule(), Rule(st, m, opts))
	if shared.Node("scan2") != nil {
		t.Fatalf("scans not shared:\n%s", shared.Explain())
	}
	checkBlock("wordcount+tfidf", shared, map[string]time.Duration{
		tfidf.PhaseInputWC: est(tf, 0) + est(wc, 0),
	}, false)
}
