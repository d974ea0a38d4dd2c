// Iterative: partitioned K-Means through the plan engine. PartitionRule
// extends the sharded dataflow into the iterative phase: the K-Means
// operator expands into kmeans.assign — an iterative loop node the
// executor drives as per-shard assignment tasks with one deterministic
// reduction barrier per iteration — and kmeans.reduce, which joins the
// clustering with the TF/IDF result. The transform stage's vector shards
// feed the assignment directly (norms precomputed shard-by-shard), the
// per-iteration reduce merges shard accumulators in shard-index order,
// and the clustering is identical at any shard count, which this example
// verifies by comparing 4 shards against 1.
package main

import (
	"fmt"
	"log"
	"os"
	"reflect"
	"time"

	"hpa"
)

func main() {
	pool := hpa.NewPool(4)
	defer pool.Close()

	corpus := hpa.GenerateCorpus(hpa.MixSpec().Scaled(0.02), pool)
	fmt.Printf("corpus: %d documents, %d bytes\n\n", corpus.Len(), corpus.Bytes())

	cfg := hpa.TFKMConfig{
		Mode:   hpa.Merged,
		TFIDF:  hpa.TFIDFOptions{DictKind: hpa.TreeDict, Normalize: true},
		KMeans: hpa.KMeansOptions{K: 6, Seed: 1},
	}

	scratch, err := os.MkdirTemp("", "hpa-iterative-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(scratch)

	// The partitioned plan: -[xN]-> marks per-shard map edges, =[xN]=>
	// reduction barriers, and ~[xN]~> the iterative K-Means loop — the
	// same shard task set re-dispatched every iteration.
	shown := hpa.NewTFKMPlan(corpus.Source(nil), hpa.TFKMConfig{
		Mode: cfg.Mode, Shards: 4, TFIDF: cfg.TFIDF, KMeans: cfg.KMeans,
	})
	fmt.Println("partitioned iterative plan (4 shards):")
	fmt.Println(shown.Explain())
	fmt.Println()

	run := func(shards int) *hpa.TFKMReport {
		c := cfg
		c.Shards = shards
		ctx := hpa.NewWorkflowContext(pool)
		ctx.ScratchDir = scratch
		rep, err := hpa.RunTFIDFKMeans(corpus.Source(nil), ctx, c)
		if err != nil {
			log.Fatal(err)
		}
		return rep
	}

	report := func(label string, rep *hpa.TFKMReport) {
		res := rep.Clustering.Result
		perIter := time.Duration(0)
		if res.Iterations > 0 {
			perIter = (rep.Breakdown.Get("kmeans") / time.Duration(res.Iterations)).Round(time.Microsecond)
		}
		fmt.Printf("%-12s %2d iterations, %s mean assign+reduce per iteration, counts %v\n",
			label, res.Iterations, perIter, res.Counts)
	}

	ref := run(1) // the reference: one loop shard, one assignment task per iteration
	report("1 shard:", ref)
	four := run(4)
	report("4 shards:", four)
	if !reflect.DeepEqual(ref.Clustering.Result.Assign, four.Clustering.Result.Assign) {
		log.Fatal("assignments diverged at 4 shards")
	}
	if ref.Clustering.Result.Iterations != four.Clustering.Result.Iterations {
		log.Fatal("iteration count diverged at 4 shards")
	}

	// The loop shard count is independent of the map shard count: retune
	// the assignment loop to 6 shards over 4 map shards. The count must be
	// set before the plan is first validated, explained or run — it
	// resolves once, like PartitionOp's.
	plan := hpa.NewTFKMPlan(corpus.Source(nil), hpa.TFKMConfig{
		Mode: cfg.Mode, Shards: 4, TFIDF: cfg.TFIDF, KMeans: cfg.KMeans,
	})
	for _, name := range plan.Nodes() {
		if op, ok := plan.Node(name).Op().(*hpa.KMAssignOp); ok {
			op.Shards = 6
		}
	}
	ctx := hpa.NewWorkflowContext(pool)
	ctx.ScratchDir = scratch
	rep, err := hpa.RunTFKMPlan(plan, ctx)
	if err != nil {
		log.Fatal(err)
	}
	report("loop=6/map=4:", rep)
	if !reflect.DeepEqual(ref.Clustering.Result.Assign, rep.Clustering.Result.Assign) {
		log.Fatal("assignments diverged with independent loop shard count")
	}

	fmt.Println("\nclusterings are identical across every configuration")
}
