package hpa_test

// This file regenerates every table and figure of the paper's evaluation as
// Go benchmarks — `go test -bench=. -benchmem` produces the full set. Each
// benchmark runs the corresponding experiment from internal/experiments,
// reports its headline numbers as benchmark metrics, and logs the rendered
// figure (visible with -v).
//
// Scale: corpora default to a few percent of the paper's Table 1 sizes so
// the suite completes in about a minute; set HPA_BENCH_SCALE (e.g. "0.2" or
// "1" for full scale) to rescale, and HPA_BENCH_MODE=real to use real
// thread pools instead of the virtual-time scheduler on big machines.

import (
	"os"
	"strconv"
	"testing"

	"hpa/internal/corpus"
	"hpa/internal/experiments"
)

func benchConfig(b *testing.B) experiments.Config {
	cfg := experiments.DefaultConfig()
	if s := os.Getenv("HPA_BENCH_SCALE"); s != "" {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil || f <= 0 {
			b.Fatalf("bad HPA_BENCH_SCALE %q", s)
		}
		cfg.MixScale, cfg.NSFScale = f, f
	}
	if os.Getenv("HPA_BENCH_MODE") == "real" {
		cfg.Mode = experiments.Real
	} else {
		cfg.Mode = experiments.Sim
	}
	return cfg
}

// BenchmarkTable1DatasetStats regenerates Table 1: corpus generation plus
// the measured document/byte/distinct-word statistics.
func BenchmarkTable1DatasetStats(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			hit := float64(row.Measured.DistinctWords) / float64(row.Spec.TargetDistinct)
			b.ReportMetric(hit, baseMetric(row.Name)+"-distinct-ratio")
		}
		if i == b.N-1 {
			b.Log("\n" + res.Render())
		}
	}
}

// BenchmarkFig1KMeansScalability regenerates Figure 1: K-Means
// self-relative speedup vs threads on both datasets.
func BenchmarkFig1KMeansScalability(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range res.Series {
			if sp, ok := s.Speedup(16); ok {
				b.ReportMetric(sp, baseMetric(s.Name())+"-speedup-16t")
			}
		}
		if i == b.N-1 {
			b.Log("\n" + res.Render())
		}
	}
}

// BenchmarkFig2TFIDFScalability regenerates Figure 2: TF/IDF self-relative
// speedup vs threads on both datasets.
func BenchmarkFig2TFIDFScalability(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range res.Series {
			if sp, ok := s.Speedup(16); ok {
				b.ReportMetric(sp, baseMetric(s.Name())+"-speedup-16t")
			}
		}
		if i == b.N-1 {
			b.Log("\n" + res.Render())
		}
	}
}

// BenchmarkFig3WorkflowFusion regenerates Figure 3: discrete vs merged
// workflow execution across thread counts with per-phase breakdowns.
func BenchmarkFig3WorkflowFusion(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if ov, ok := res.OverheadAt1(); ok {
			b.ReportMetric(ov*100, "io-overhead-1t-%")
		}
		if sl, ok := res.SlowdownAt(16); ok {
			b.ReportMetric(sl, "discrete-slowdown-16t-x")
		}
		if i == b.N-1 {
			b.Log("\n" + res.Render())
		}
	}
}

// BenchmarkFig4DataStructures regenerates Figure 4: the workflow with map
// (node red-black tree), u-map (4K-presized hash) and the beyond-paper
// arena tree, with memory footprints.
func BenchmarkFig4DataStructures(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Node.DictFootprint)/(1<<20), "map-dict-MB")
		b.ReportMetric(float64(res.Hash.DictFootprint)/(1<<20), "u-map-dict-MB")
		if ts, ok := res.Node.TransformSpeedup(16); ok {
			b.ReportMetric(ts, "map-transform-speedup-16t")
		}
		if hs, ok := res.Hash.TransformSpeedup(16); ok {
			b.ReportMetric(hs, "u-map-transform-speedup-16t")
		}
		if i == b.N-1 {
			b.Log("\n" + res.Render())
		}
	}
}

// BenchmarkE6WekaBaseline regenerates the Section 3.1 comparison: the
// optimized sequential K-Means vs the WEKA-style dense baseline.
func BenchmarkE6WekaBaseline(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunWeka(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			b.ReportMetric(row.Speedup, baseMetric(row.Dataset)+"-speedup-x")
		}
		if i == b.N-1 {
			b.Log("\n" + res.Render())
		}
	}
}

func baseMetric(name string) string {
	if name == corpus.NSFAbstracts().Name {
		return "nsf"
	}
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			out = append(out, r)
		case r >= 'A' && r <= 'Z':
			out = append(out, r+'a'-'A')
		case r == ' ' || r == '@' || r == '.':
			// drop
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// BenchmarkAblations measures the beyond-paper design choices: dictionary
// allocation layout, K-Means loop shard count, hash pre-sizing, and
// stemming.
func BenchmarkAblations(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ShardSpeedup[16], "shards16-speedup-16t")
		b.ReportMetric(float64(res.PresizeMem[4096])/(1<<20), "presize4k-mem-MB")
		if i == b.N-1 {
			b.Log("\n" + res.Render())
		}
	}
}
