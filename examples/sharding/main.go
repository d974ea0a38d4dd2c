// Sharding: partitioned streaming execution of the TF/IDF→K-Means
// workflow. PartitionRule rewrites the plan so the corpus scan is carved
// into document shards that flow through per-shard map kernels (phase-1
// tokenize+count, phase-2 transform) around explicit reductions (the
// document-frequency tree-merge and the gather of the vector shards into
// one result). The executor schedules one task per (node, shard), so shards
// pipeline through the map stages instead of meeting a barrier after every
// stage — and the scores and cluster assignments are bit-identical at any
// shard count, which this example verifies by comparing 4 shards against 1.
package main

import (
	"fmt"
	"log"
	"os"
	"reflect"

	"hpa"
)

func main() {
	pool := hpa.NewPool(4)
	defer pool.Close()

	corpus := hpa.GenerateCorpus(hpa.MixSpec().Scaled(0.02), pool)
	fmt.Printf("corpus: %d documents, %d bytes\n", corpus.Len(), corpus.Bytes())

	// The shard boundaries a PartitionOp would carve — contiguous,
	// deterministic, sized within one document of each other.
	fmt.Print("shard boundaries (4 shards): ")
	for i, sub := range corpus.ShardSources(4, nil) {
		if i > 0 {
			fmt.Print(", ")
		}
		fmt.Printf("[%d,%d)", sub.Lo, sub.Hi)
	}
	fmt.Print("\n\n")

	cfg := hpa.TFKMConfig{
		Mode:   hpa.Merged,
		TFIDF:  hpa.TFIDFOptions{DictKind: hpa.TreeDict, Normalize: true},
		KMeans: hpa.KMeansOptions{K: 6, Seed: 1},
	}

	scratch, err := os.MkdirTemp("", "hpa-sharding-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(scratch)

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

	// Show the sharded plan: -[xN]-> marks per-shard edges, =[xN]=> the
	// reduction barriers.
	sharded := hpa.NewTFKMPlan(corpus.Source(nil), hpa.TFKMConfig{
		Mode: cfg.Mode, Shards: 4, TFIDF: cfg.TFIDF, KMeans: cfg.KMeans,
	})
	fmt.Println("partitioned plan (4 shards):")
	fmt.Println(sharded.Explain())
	fmt.Println()

	ref := run(1) // the reference: one shard, one task per stage
	fmt.Printf("1 shard:   %s\n", ref.Breakdown)
	rep := run(4)
	fmt.Printf("4 shards:  %s\n", rep.Breakdown)
	if !reflect.DeepEqual(ref.Clustering.Result.Assign, rep.Clustering.Result.Assign) {
		log.Fatal("assignments diverged at 4 shards")
	}
	fmt.Println("\ncluster assignments bit-identical at 1 and 4 shards")
}
