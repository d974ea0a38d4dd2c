// Optimize: the cost-based plan optimizer end to end. The engine measures
// the machine once (dictionary insert/lookup costs per kind and
// cardinality and tokenizer throughput from short probes; ARFF bandwidth
// and per-task overhead from a traced run of the workflow plan), samples
// the corpus for its scale factors, and
// derives the physical plan configuration the paper says must be chosen
// per workflow phase: dictionary kind, fusion vs. materialization, and the
// shard count of partitioned execution. Every decision lands in
// Plan.Explain as a "#" annotation, and the optimized plan's results stay
// bit-identical to the default configuration — only the time changes,
// which this example measures.
package main

import (
	"fmt"
	"log"
	"os"
	"reflect"
	"runtime"
	"time"

	"hpa"
)

func main() {
	pool := hpa.NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()

	corpus := hpa.GenerateCorpus(hpa.CalibrationCorpusSpec(), pool)
	fmt.Printf("corpus: %d documents, %d bytes\n\n", corpus.Len(), corpus.Bytes())

	scratch, err := os.MkdirTemp("", "hpa-optimize-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(scratch)

	// 1. Calibrate (or load the cached model — keyed by GOMAXPROCS and the
	// model version, so a machine is measured once, not once per run).
	start := time.Now()
	model, err := hpa.LoadOrCalibrateCostModel(scratch, hpa.CalibrationOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("calibrated in %v: tokenizer %.1f ns/byte, ARFF write %.0f MB/s, %0.1fµs/shard-task\n",
		time.Since(start).Round(time.Millisecond),
		model.TokenizeNSPerByte, model.ARFFWriteBPS/1e6, model.ShardTaskNS/1e3)
	for _, card := range []int{1 << 10, 1 << 16} {
		fmt.Printf("  dict @%-6d  map-arena %3.0f/%3.0f ns  u-map %3.0f/%3.0f ns (insert/lookup)\n",
			card,
			model.DictInsertNS(hpa.TreeDict, card), model.DictLookupNS(hpa.TreeDict, card),
			model.DictInsertNS(hpa.HashDict, card), model.DictLookupNS(hpa.HashDict, card))
	}

	// 2. Collect input statistics with a cheap sampling pre-pass.
	stats, err := hpa.CollectCorpusStats(corpus, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstats: %s\n\n", stats)

	// 3. Optimize: build the discrete logical plan — the optimizer owns the
	// fusion and sharding decisions — and rewrite it.
	base := func() *hpa.Plan {
		return hpa.NewLogicalTFKMPlan(corpus.Source(nil), hpa.TFKMConfig{
			Mode:   hpa.Discrete,
			TFIDF:  hpa.TFIDFOptions{DictKind: hpa.TreeDict, Normalize: true},
			KMeans: hpa.KMeansOptions{K: 8, Seed: 42},
		})
	}
	optimized := hpa.Optimize(base(), stats, model)
	fmt.Println("optimized plan (decisions as # lines):")
	fmt.Println(optimized.Explain())
	fmt.Println()

	// 4. Race the optimized plan against the default configuration
	// (merged mode, auto shards, tree dictionary).
	run := func(label string, plan *hpa.Plan) *hpa.TFKMReport {
		ctx := hpa.NewWorkflowContext(pool)
		ctx.ScratchDir = scratch
		start := time.Now()
		rep, err := hpa.RunTFKMPlan(plan, ctx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %8v  (%s)\n", label, time.Since(start).Round(time.Millisecond), rep.Breakdown)
		return rep
	}
	defPlan := hpa.NewTFKMPlan(corpus.Source(nil), hpa.TFKMConfig{
		Mode:   hpa.Merged,
		TFIDF:  hpa.TFIDFOptions{DictKind: hpa.TreeDict, Normalize: true},
		KMeans: hpa.KMeansOptions{K: 8, Seed: 42},
	})
	ref := run("default", defPlan)
	rep := run("optimized", hpa.Optimize(base(), stats, model))

	// 5. Same answer, different speed: the optimizer only re-chooses
	// result-invariant implementation details.
	if !reflect.DeepEqual(ref.Clustering.Result.Assign, rep.Clustering.Result.Assign) {
		log.Fatal("optimized plan changed the clustering")
	}
	fmt.Println("\ncluster assignments are identical — the optimizer only changed the physical plan")
}
