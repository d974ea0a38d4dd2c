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
// full TF/IDF→K-Means dataflow: the library drivers (tfidf.Run and
// kmeans.Run, one contiguous shard/range per pool worker, no executor)
// against the plan at the automatic shard counts (per-shard tasks on the
// executor, one reduction-barrier task per K-Means iteration). The gap
// prices the executor's loop machinery (begin/barrier/finish tasks per
// iteration) against its finer shards. Run with
//
//	go test ./internal/workflow -run '^$' -bench PlanIterative -benchtime 5x
func BenchmarkPlanIterative(b *testing.B) {
	c := corpus.Generate(corpus.Mix().Scaled(0.05), nil)
	tfOpts := tfidf.Options{DictKind: dict.Tree, Normalize: true}
	kmOpts := kmeans.Options{K: 8, Seed: 42}
	auto := (&KMAssignOp{}).LoopShards()
	cases := []struct {
		name string
		run  func(pool *par.Pool) error
	}{
		{"drivers", func(pool *par.Pool) error {
			res, err := tfidf.Run(c.Source(nil), pool, tfOpts, nil)
			if err != nil {
				return err
			}
			_, err = kmeans.Run(res.Vectors, res.Dim(), pool, kmOpts, nil)
			return err
		}},
		{fmt.Sprintf("loop=%d(auto)", auto), func(pool *par.Pool) error {
			_, err := NewPlan().
				Add("scan", &SourceOp{Src: c.Source(nil)}).
				Add("tfidf", &TFIDFOp{Opts: tfOpts}).
				Add("kmeans", &KMeansOp{Opts: kmOpts}).
				Connect("scan", "tfidf").
				Connect("tfidf", "kmeans").
				Run(NewContext(pool))
			return err
		}},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			pool := par.NewPool(runtime.GOMAXPROCS(0))
			defer pool.Close()
			b.SetBytes(c.Bytes())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bc.run(pool); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPlanPartitioned runs the scan→tfidf dataflow over the same
// shard kernels at 1 shard and at the automatic count (2×GOMAXPROCS,
// over-decomposed so work stealing rebalances straggler shards). The gap
// prices the splitter/gather machinery against the finer shards. Run with
//
//	go test ./internal/workflow -run '^$' -bench PlanPartitioned -benchtime 5x
func BenchmarkPlanPartitioned(b *testing.B) {
	c := corpus.Generate(corpus.Mix().Scaled(0.05), nil)
	auto := (&PartitionOp{}).PartitionCount()
	for _, bc := range []struct {
		name   string
		shards int
	}{
		{"shards=1", 1},
		{fmt.Sprintf("shards=%d(auto)", auto), 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			pool := par.NewPool(runtime.GOMAXPROCS(0))
			defer pool.Close()
			b.SetBytes(c.Bytes())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				outs, err := NewPlan().
					Add("scan", &SourceOp{Src: c.Source(nil)}).
					Add("tfidf", &TFIDFOp{Opts: tfidf.Options{DictKind: dict.Tree, Normalize: true}}).
					Connect("scan", "tfidf").
					Apply(PartitionRule(bc.shards)).
					Run(NewContext(pool))
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
