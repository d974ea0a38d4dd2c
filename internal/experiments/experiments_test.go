package experiments

import (
	"strings"
	"testing"

	"hpa/internal/corpus"
	"hpa/internal/tfidf"
)

// tinyConfig keeps experiment tests fast: very small corpora, a short
// thread axis, simulated sweeps.
func tinyConfig() Config {
	c := DefaultConfig()
	c.MixScale = 0.004
	c.NSFScale = 0.002
	c.Threads = []int{1, 2, 4, 16}
	c.Mode = Sim
	c.Repeats = 1
	return c
}

func TestTable1(t *testing.T) {
	res, err := RunTable1(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Measured.Documents != row.Spec.Documents {
			t.Fatalf("%s: %d docs, want %d", row.Name, row.Measured.Documents, row.Spec.Documents)
		}
		if row.Measured.DistinctWords == 0 || row.Measured.Bytes == 0 {
			t.Fatalf("%s: empty measurement", row.Name)
		}
	}
	out := res.Render()
	for _, want := range []string{"Table 1", "Mix", "NSF Abstracts", "Distinct words"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFig1ShapeAndRender(t *testing.T) {
	// At this scale one K-Means recording is 2–3 ms of tasks, so a single
	// descheduling on a loaded box (the package runs beside another under
	// go test ./...) outweighs the whole trace and can flip the ordering
	// below. Recordings are cheap: every task keeps its shortest of fifteen
	// (Config.Repeats) instead of its only one.
	cfg := tinyConfig()
	cfg.Repeats = 15
	res, err := RunFig1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("%d series", len(res.Series))
	}
	for _, s := range res.Series {
		sp, ok := s.Speedup(16)
		if !ok {
			t.Fatalf("%s: no speedup at 16", s.Name())
		}
		if sp < 1 {
			t.Fatalf("%s: speedup %v < 1 at 16 threads", s.Name(), sp)
		}
		if sp2, _ := s.Speedup(2); sp2 > 2.2 {
			t.Fatalf("%s: superlinear speedup %v at 2 threads", s.Name(), sp2)
		}
	}
	// Paper's headline: the larger dataset (NSF, series 0) scales further.
	if res.Series[0].MaxSpeedup() <= res.Series[1].MaxSpeedup() {
		t.Fatalf("NSF (%.2fx) does not out-scale Mix (%.2fx)",
			res.Series[0].MaxSpeedup(), res.Series[1].MaxSpeedup())
	}
	if out := res.Render(); !strings.Contains(out, "Figure 1") || !strings.Contains(out, "paper") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestFig2ShapeAndRender(t *testing.T) {
	// The speed-ups below relate recorded task times; every task keeps its
	// shortest of three recordings (Config.Repeats) so one descheduling on
	// a loaded box cannot decide them.
	cfg := tinyConfig()
	cfg.Repeats = 3
	res, err := RunFig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		sp16, ok := s.Speedup(16)
		if !ok || sp16 < 1 {
			t.Fatalf("%s: speedup %v at 16 threads", s.Name(), sp16)
		}
		sp1, _ := s.Speedup(1)
		if sp1 != 1 {
			t.Fatalf("%s: self-relative speedup at 1 thread is %v", s.Name(), sp1)
		}
	}
	if out := res.Render(); !strings.Contains(out, "Figure 2") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestFig3Shape(t *testing.T) {
	res, err := RunFig3(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Discrete must carry the materialization phases; merged must not.
	d16, m16 := res.Discrete[16], res.Merged[16]
	if d16.Get(tfidf.PhaseOutput) == 0 || d16.Get("kmeans-input") == 0 {
		t.Fatalf("discrete lacks I/O phases: %v", d16)
	}
	if m16.Get(tfidf.PhaseOutput) != 0 || m16.Get("kmeans-input") != 0 {
		t.Fatalf("merged has I/O phases: %v", m16)
	}
	// The paper's headline shape: discrete is slower, and relatively much
	// slower at high thread counts than at one thread.
	ov1, ok := res.OverheadAt1()
	if !ok || ov1 <= 0 {
		t.Fatalf("overhead at 1 thread: %v, %v", ov1, ok)
	}
	sl16, ok := res.SlowdownAt(16)
	if !ok || sl16 <= 1 {
		t.Fatalf("slowdown at 16: %v, %v", sl16, ok)
	}
	if sl16 <= 1+ov1 {
		t.Fatalf("I/O penalty did not grow with threads: 1+ov1=%v, sl16=%v", 1+ov1, sl16)
	}
	if out := res.Render(); !strings.Contains(out, "Figure 3") || !strings.Contains(out, "discrete") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestFig4Shape(t *testing.T) {
	res, err := RunFig4(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Node.DictFootprint == 0 || res.Hash.DictFootprint == 0 || res.Arena.DictFootprint == 0 {
		t.Fatal("footprints not captured")
	}
	// The paper's memory shape: the 4K-presized hash tables dwarf the tree.
	if res.Hash.DictFootprint < 5*res.Node.DictFootprint {
		t.Fatalf("hash footprint %d not >> tree footprint %d",
			res.Hash.DictFootprint, res.Node.DictFootprint)
	}
	for _, v := range []*DictVariant{&res.Node, &res.Hash, &res.Arena} {
		if len(v.Breakdowns) != len(tinyConfig().Threads) {
			t.Fatalf("%v: %d breakdowns", v.Kind, len(v.Breakdowns))
		}
		if _, ok := v.TransformSpeedup(16); !ok {
			t.Fatalf("%v: no transform speedup", v.Kind)
		}
	}
	if out := res.Render(); !strings.Contains(out, "u-map") || !strings.Contains(out, "12.8 GB") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestWekaComparison(t *testing.T) {
	cfg := tinyConfig()
	res, err := RunWeka(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	specs := []corpus.Spec{cfg.mixSpec(), cfg.nsfSpec()}
	for i, row := range res.Rows {
		if !row.InertiaMatch {
			t.Fatalf("%s: clusterings diverged", row.Dataset)
		}
		// Assert the cause of the speed-up, not the wall clock (which a
		// few-ms run on a shared box cannot hold): per iteration the dense
		// baseline does documents × dim × k multiply-adds, the sparse
		// operator Σ nnz × k. Render reports the measured times.
		prep, err := prepareVectors(cfg, specs[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(prep.vectors) != row.Documents || prep.dim != row.Dim {
			t.Fatalf("%s: row is %d × %d, prepared matrix %d × %d",
				row.Dataset, row.Documents, row.Dim, len(prep.vectors), prep.dim)
		}
		nnz := 0
		for j := range prep.vectors {
			nnz += prep.vectors[j].NNZ()
		}
		if dense := row.Documents * row.Dim; dense < 10*nnz {
			t.Fatalf("%s: dense baseline does %d multiply-adds per centroid and iteration, sparse %d: under 10x",
				row.Dataset, dense, nnz)
		}
	}
	if out := res.Render(); !strings.Contains(out, "SimpleKMeans") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestModeResolution(t *testing.T) {
	c := tinyConfig()
	c.Mode = Sim
	if c.effectiveMode() != Sim {
		t.Fatal("explicit Sim not honored")
	}
	c.Mode = Real
	if c.effectiveMode() != Real {
		t.Fatal("explicit Real not honored")
	}
	c.Mode = Auto
	c.Threads = []int{1 << 20} // more than any host
	if c.effectiveMode() != Sim {
		t.Fatal("Auto did not fall back to Sim")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := DefaultConfig()
	if c.K != 8 {
		t.Fatalf("default K = %d, want the paper's 8", c.K)
	}
	if c.maxThreads() != 20 {
		t.Fatalf("default max threads = %d, want the paper's 20", c.maxThreads())
	}
	f := FullConfig()
	if f.MixScale != 1 || f.NSFScale != 1 {
		t.Fatal("FullConfig not full scale")
	}
}

func TestAblation(t *testing.T) {
	// The shard ablation compares two recorded speed-ups; every task keeps
	// its shortest of three recordings (Config.Repeats).
	cfg := tinyConfig()
	cfg.Repeats = 3
	res, err := RunAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"map-arena", "map", "u-map"} {
		if res.DictPhase1[k] == 0 || res.DictTransform[k] == 0 || res.DictFootprint[k] == 0 {
			t.Fatalf("dictionary ablation missing %q", k)
		}
	}
	// Finer tasks must scale at least as well as one loop shard.
	if res.ShardSpeedup[64] < res.ShardSpeedup[1] {
		t.Fatalf("shard ablation inverted: 64 -> %.2fx vs 1 -> %.2fx",
			res.ShardSpeedup[64], res.ShardSpeedup[1])
	}
	// The 4K presize must cost clearly more memory than no presize.
	if res.PresizeMem[4096] < 2*res.PresizeMem[0] {
		t.Fatalf("presize ablation: mem[4096]=%d not >> mem[0]=%d",
			res.PresizeMem[4096], res.PresizeMem[0])
	}
	// Stemming never grows the vocabulary.
	if res.StemVocab["stemmed"] > res.StemVocab["raw"] {
		t.Fatalf("stemming grew vocabulary: %d -> %d",
			res.StemVocab["raw"], res.StemVocab["stemmed"])
	}
	out := res.Render()
	for _, want := range []string{"Ablations", "LoopShards", "DocPresize", "stemmed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

func TestCSVExports(t *testing.T) {
	cfg := tinyConfig()
	t1, _ := RunTable1(cfg)
	f1, _ := RunFig1(cfg)
	f3, _ := RunFig3(cfg)
	f4, _ := RunFig4(cfg)
	wk, _ := RunWeka(cfg)
	for name, csv := range map[string]string{
		"table1": t1.CSV(), "fig1": f1.CSV(), "fig3": f3.CSV(), "fig4": f4.CSV(), "weka": wk.CSV(),
	} {
		lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
		if len(lines) < 2 {
			t.Fatalf("%s: csv has %d lines", name, len(lines))
		}
		cols := strings.Count(lines[0], ",")
		for i, l := range lines {
			if strings.Count(l, ",") != cols && !strings.Contains(l, "\"") {
				t.Fatalf("%s: line %d has inconsistent columns: %q", name, i, l)
			}
		}
	}
}
