// Iterative: partitioned K-Means through the plan engine. PartitionRule
// extends the sharded dataflow into the iterative phase: the K-Means
// operator expands into kmeans.assign — an iterative loop node the
// executor drives as per-shard assignment tasks with one deterministic
// reduction barrier per iteration — and kmeans.reduce, which joins the
// clustering with the TF/IDF result. The transform stage's vector shards
// feed the assignment directly (norms precomputed shard-by-shard), shards
// return only per-document assignments and distances, and each
// iteration's barrier recomputes, from its members in document order,
// every centroid whose member set changed — so the clustering is one per
// input, bit for bit, at any shard count. This example verifies that by comparing 4 loop shards,
// and 6 loop shards over 4 map shards, against 1: assignments, iteration
// count, every centroid component and the inertia history by their bits.
package main

import (
	"fmt"
	"log"
	"math"
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
		fmt.Printf("%-12s %2d iterations, %s mean assign+update per iteration, counts %v\n",
			label, res.Iterations, perIter, res.Counts)
	}

	ref := run(1) // the reference: one loop shard, one assignment task per iteration
	report("1 shard:", ref)
	four := run(4)
	report("4 shards:", four)
	sameBits("4 shards", ref.Clustering.Result, four.Clustering.Result)

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
	sameBits("loop=6/map=4", ref.Clustering.Result, rep.Clustering.Result)

	fmt.Println("\nclusterings are bit-identical across every configuration")
}

// sameBits exits unless got is want's clustering bit for bit: the same
// assignments and iteration count, and every centroid component, the
// final inertia and the inertia history with identical IEEE 754 bits.
func sameBits(label string, want, got *hpa.KMeansResult) {
	if !reflect.DeepEqual(want.Assign, got.Assign) {
		log.Fatalf("%s: assignments diverged", label)
	}
	if want.Iterations != got.Iterations {
		log.Fatalf("%s: %d iterations, want %d", label, got.Iterations, want.Iterations)
	}
	floats := [][]float64{{want.Inertia}, want.History}
	gotFloats := [][]float64{{got.Inertia}, got.History}
	floats = append(floats, want.Centroids...)
	gotFloats = append(gotFloats, got.Centroids...)
	for r, row := range floats {
		if len(gotFloats[r]) != len(row) {
			log.Fatalf("%s: shapes differ", label)
		}
		for i, x := range row {
			if math.Float64bits(gotFloats[r][i]) != math.Float64bits(x) {
				log.Fatalf("%s: inertia or centroid bits diverged (row %d, entry %d: %v vs %v)", label, r, i, gotFloats[r][i], x)
			}
		}
	}
}
