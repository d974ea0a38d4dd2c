package workflow

import (
	"fmt"
	"runtime"
	"testing"

	"hpa/internal/corpus"
	"hpa/internal/dict"
	"hpa/internal/kmeans"
	"hpa/internal/par"
	"hpa/internal/tfidf"
)

// BenchmarkPlanIterative compares two drivers of the same kernels over the
// full TF/IDF→K-Means dataflow: the unpartitioned plan (tfidf.Run and
// Clusterer.Step, one contiguous shard/range per pool worker) against the
// partitioned plan at the automatic shard counts (per-shard tasks on the
// executor, one reduction-barrier task per K-Means iteration). The gap
// prices the executor's loop machinery (begin/barrier/finish tasks per
// iteration) against its finer shards. Run with
//
//	go test ./internal/workflow -run '^$' -bench PlanIterative -benchtime 5x
//
// and record the output as BENCH_iterative.json.
func BenchmarkPlanIterative(b *testing.B) {
	c := corpus.Generate(corpus.Mix().Scaled(0.05), nil)
	auto := (&KMAssignOp{}).LoopShards()
	cases := []struct {
		name   string
		shards int
	}{
		{"bulk", 0},
		{fmt.Sprintf("loop=%d(auto)", auto), -1},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			pool := par.NewPool(runtime.GOMAXPROCS(0))
			defer pool.Close()
			b.SetBytes(c.Bytes())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan := NewPlan().
					Add("scan", &SourceOp{Src: c.Source(nil)}).
					Add("tfidf", &TFIDFOp{Opts: tfidf.Options{DictKind: dict.Tree, Normalize: true}}).
					Add("kmeans", &KMeansOp{Opts: kmeans.Options{K: 8, Seed: 42}}).
					Connect("scan", "tfidf").
					Connect("tfidf", "kmeans")
				if bc.shards < 0 {
					plan = plan.Apply(PartitionRule(0)) // auto
				}
				ctx := NewContext(pool)
				outs, err := plan.Run(ctx)
				if err != nil {
					b.Fatal(err)
				}
				if len(outs) != 1 {
					b.Fatalf("expected one sink, got %d", len(outs))
				}
			}
		})
	}
}

// BenchmarkPlanPartitioned runs the scan→tfidf dataflow three ways over the
// same shard kernels: unpartitioned (tfidf.Run inside one operator node —
// one contiguous shard per pool worker, one reader each), and partitioned
// by the executor at 1 shard and at the automatic count (2×GOMAXPROCS,
// over-decomposed so work stealing rebalances straggler shards). The
// bulk-vs-auto gap prices the splitter/gather machinery against the finer
// shards. Run with
//
//	go test ./internal/workflow -run '^$' -bench PlanPartitioned -benchtime 5x
//
// and record the output as BENCH_partitioned.json.
func BenchmarkPlanPartitioned(b *testing.B) {
	c := corpus.Generate(corpus.Mix().Scaled(0.05), nil)
	auto := (&PartitionOp{}).PartitionCount()
	cases := []struct {
		name   string
		shards int
	}{
		{"bulk", 0},
		{"shards=1", 1},
		{fmt.Sprintf("shards=%d(auto)", auto), -1},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			pool := par.NewPool(runtime.GOMAXPROCS(0))
			defer pool.Close()
			b.SetBytes(c.Bytes())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan := NewPlan().
					Add("scan", &SourceOp{Src: c.Source(nil)}).
					Add("tfidf", &TFIDFOp{Opts: tfidf.Options{DictKind: dict.Tree, Normalize: true}}).
					Connect("scan", "tfidf")
				switch {
				case bc.shards > 0:
					plan = plan.Apply(PartitionRule(bc.shards))
				case bc.shards < 0:
					plan = plan.Apply(PartitionRule(0)) // auto
				}
				ctx := NewContext(pool)
				outs, err := plan.Run(ctx)
				if err != nil {
					b.Fatal(err)
				}
				if len(outs) != 1 {
					b.Fatalf("expected one sink, got %d", len(outs))
				}
			}
		})
	}
}
