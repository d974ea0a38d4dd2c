package hpa_test

// Integration tests of the public API surface: everything a downstream
// user touches, exercised together.

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpa"
)

func TestPublicEndToEndMerged(t *testing.T) {
	pool := hpa.NewPool(2)
	defer pool.Close()
	c := hpa.GenerateCorpus(hpa.MixSpec().Scaled(0.003), pool)
	if c.Len() == 0 {
		t.Fatal("empty corpus")
	}
	ctx := hpa.NewWorkflowContext(pool)
	ctx.ScratchDir = t.TempDir()
	rep, err := hpa.RunTFIDFKMeans(c.Source(nil), ctx, hpa.TFKMConfig{
		Mode:   hpa.Merged,
		TFIDF:  hpa.TFIDFOptions{DictKind: hpa.TreeDict, Normalize: true},
		KMeans: hpa.KMeansOptions{K: 4, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Clustering.Result
	if len(res.Assign) != c.Len() {
		t.Fatalf("%d assignments for %d docs", len(res.Assign), c.Len())
	}
	var n int64
	for _, s := range res.Counts {
		n += s
	}
	if n != int64(c.Len()) {
		t.Fatalf("cluster sizes sum to %d", n)
	}
	if rep.Breakdown.Total() == 0 {
		t.Fatal("no phases timed")
	}
}

func TestPublicOperatorsSeparately(t *testing.T) {
	pool := hpa.NewPool(2)
	defer pool.Close()
	c := hpa.GenerateCorpus(hpa.NSFAbstractsSpec().Scaled(0.001), pool)
	tf, err := hpa.TFIDF(c.Source(nil), pool, hpa.TFIDFOptions{
		DictKind:  hpa.HashDict,
		Normalize: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tf.Dim() == 0 || len(tf.Vectors) != c.Len() {
		t.Fatalf("tfidf: %d terms, %d vectors", tf.Dim(), len(tf.Vectors))
	}
	km, err := hpa.KMeans(tf.Vectors, tf.Dim(), pool, hpa.KMeansOptions{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(km.Centroids) != 3 {
		t.Fatalf("%d centroids", len(km.Centroids))
	}
}

func TestPublicCorpusDiskRoundTrip(t *testing.T) {
	pool := hpa.NewPool(2)
	defer pool.Close()
	dir := filepath.Join(t.TempDir(), "corpus")
	c := hpa.GenerateCorpus(hpa.MixSpec().Scaled(0.001), pool)
	if err := c.WriteDir(dir, 64); err != nil {
		t.Fatal(err)
	}
	loaded, err := hpa.LoadCorpusDir(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != c.Len() || loaded.Bytes() != c.Bytes() {
		t.Fatalf("round trip: %d/%d docs, %d/%d bytes",
			loaded.Len(), c.Len(), loaded.Bytes(), c.Bytes())
	}
}

func TestPublicBaselineAgreesWithOptimized(t *testing.T) {
	pool := hpa.NewPool(1)
	defer pool.Close()
	c := hpa.GenerateCorpus(hpa.MixSpec().Scaled(0.002), pool)
	tf, err := hpa.TFIDF(c.Source(nil), pool, hpa.TFIDFOptions{DictKind: hpa.TreeDict, Normalize: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := hpa.KMeansOptions{K: 5, Seed: 9}
	fast, err := hpa.KMeans(tf.Vectors, tf.Dim(), pool, opts)
	if err != nil {
		t.Fatal(err)
	}
	dense := make([][]float64, len(tf.Vectors))
	for i := range dense {
		dense[i] = tf.Vectors[i].ToDense(tf.Dim())
	}
	base := &hpa.SimpleKMeans{Instances: dense, Opts: opts}
	slow, err := base.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fast.Inertia-slow.Inertia) > 1e-6*(1+slow.Inertia) {
		t.Fatalf("inertia %v vs %v", fast.Inertia, slow.Inertia)
	}
}

func TestPublicBranchingPlan(t *testing.T) {
	pool := hpa.NewPool(4)
	defer pool.Close()
	c := hpa.GenerateCorpus(hpa.MixSpec().Scaled(0.002), pool)
	src := c.Source(nil)

	// One scan fans out to word-count and TF/IDF; the TF/IDF result fans
	// out to K-Means and an ARFF archive. Two scan nodes collapse into one
	// via the shared-scan rule.
	plan := hpa.NewPlan().
		Add("scan-wc", &hpa.SourceOp{Src: src}).
		Add("scan-tfidf", &hpa.SourceOp{Src: src}).
		Add("wordcount", &hpa.WordCountOp{DictKind: hpa.TreeDict}).
		Add("tfidf", &hpa.TFIDFOp{Opts: hpa.TFIDFOptions{DictKind: hpa.TreeDict, Normalize: true}}).
		Add("kmeans", &hpa.KMeansOp{Opts: hpa.KMeansOptions{K: 4, Seed: 2}}).
		Add("archive", &hpa.MaterializeARFF{}).
		Connect("scan-wc", "wordcount").
		Connect("scan-tfidf", "tfidf").
		Connect("tfidf", "kmeans").
		Connect("tfidf", "archive")
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	plan = plan.Apply(hpa.SharedScanRule(), hpa.FuseRule())
	if got := len(plan.Nodes()); got != 5 {
		t.Fatalf("%d nodes after shared-scan dedup: %v", got, plan.Nodes())
	}

	ctx := hpa.NewWorkflowContext(pool)
	ctx.ScratchDir = t.TempDir()
	outs, err := plan.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if wc, ok := outs["wordcount"].(*hpa.WordCounts); !ok || wc.TotalTokens == 0 {
		t.Fatalf("wordcount sink = %T", outs["wordcount"])
	}
	if cl, ok := outs["kmeans"].(*hpa.Clustering); !ok || len(cl.Result.Assign) != c.Len() {
		t.Fatalf("kmeans sink = %T", outs["kmeans"])
	}
	if _, err := os.Stat(filepath.Join(ctx.ScratchDir, "tfidf.arff")); err != nil {
		t.Fatalf("archive missing: %v", err)
	}
}

func TestPublicPlanValidateCatchesBadEdge(t *testing.T) {
	pool := hpa.NewPool(1)
	defer pool.Close()
	c := hpa.GenerateCorpus(hpa.MixSpec().Scaled(0.001), pool)
	plan := hpa.NewPlan().
		Add("scan", &hpa.SourceOp{Src: c.Source(nil)}).
		Add("wordcount", &hpa.WordCountOp{DictKind: hpa.TreeDict}).
		Add("kmeans", &hpa.KMeansOp{Opts: hpa.KMeansOptions{K: 2}}).
		Connect("scan", "wordcount").
		Connect("wordcount", "kmeans") // WordCounts is not clusterable
	if err := plan.Validate(); err == nil {
		t.Fatal("type-mismatched edge validated")
	}
}

func TestPublicFusePipeline(t *testing.T) {
	p := hpa.NewTFKMPlan(nil, hpa.TFKMConfig{Mode: hpa.Discrete})
	fused := p.Apply(hpa.FuseRule())
	if len(fused.Nodes()) >= len(p.Nodes()) {
		t.Fatalf("fusion removed nothing: %d -> %d nodes", len(p.Nodes()), len(fused.Nodes()))
	}
}

func TestPublicOptimizerEndToEnd(t *testing.T) {
	pool := hpa.NewPool(2)
	defer pool.Close()
	c := hpa.GenerateCorpus(hpa.CalibrationCorpusSpec().Scaled(0.1), pool)

	cacheDir := t.TempDir()
	model, err := hpa.LoadOrCalibrateCostModel(cacheDir, hpa.QuickCalibration())
	if err != nil {
		t.Fatal(err)
	}
	// Second load must hit the JSON cache.
	if _, err := hpa.LoadOrCalibrateCostModel(cacheDir, hpa.QuickCalibration()); err != nil {
		t.Fatal(err)
	}
	stats, err := hpa.CollectCorpusStats(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Docs != c.Len() || stats.DistinctTerms <= 0 {
		t.Fatalf("implausible stats: %+v", stats)
	}

	base := hpa.NewTFKMPlan(c.Source(nil), hpa.TFKMConfig{
		Mode:   hpa.Discrete,
		TFIDF:  hpa.TFIDFOptions{DictKind: hpa.TreeDict, Normalize: true},
		KMeans: hpa.KMeansOptions{K: 4, Seed: 7},
	})
	opt := hpa.Optimize(base, stats, model)
	if err := opt.Validate(); err != nil {
		t.Fatalf("optimized plan invalid: %v", err)
	}
	if explain := opt.Explain(); !strings.Contains(explain, "# optimizer:") {
		t.Fatalf("Explain carries no optimizer annotations:\n%s", explain)
	}

	ctx := hpa.NewWorkflowContext(pool)
	ctx.ScratchDir = t.TempDir()
	rep, err := hpa.RunTFKMPlan(opt, ctx)
	if err != nil {
		t.Fatal(err)
	}
	ctx2 := hpa.NewWorkflowContext(pool)
	ctx2.ScratchDir = t.TempDir()
	ref, err := hpa.RunTFIDFKMeans(c.Source(nil), ctx2, hpa.TFKMConfig{
		Mode:   hpa.Merged,
		TFIDF:  hpa.TFIDFOptions{DictKind: hpa.TreeDict, Normalize: true},
		KMeans: hpa.KMeansOptions{K: 4, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Clustering.Result.Assign) != len(ref.Clustering.Result.Assign) {
		t.Fatal("document counts differ")
	}
	for i := range ref.Clustering.Result.Assign {
		if ref.Clustering.Result.Assign[i] != rep.Clustering.Result.Assign[i] {
			t.Fatalf("doc %d: optimized cluster differs from default", i)
		}
	}
}

func TestPublicDiskSimThrottles(t *testing.T) {
	disk := hpa.HDD2016()
	src := &hpa.MemSource{Docs: [][]byte{[]byte("hello world")}, Disk: disk}
	if _, err := src.Read(0); err != nil {
		t.Fatal(err)
	}
}

func TestMain(m *testing.M) {
	os.Exit(m.Run())
}
