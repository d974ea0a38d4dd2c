// Quickstart: vectorize a small document collection with TF/IDF and
// cluster it with K-Means using the fused in-memory workflow — the
// five-minute tour of the public API.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"hpa"
)

func main() {
	// -trace records one span per scheduled task and writes Chrome
	// trace-event JSON you can load in Perfetto (ui.perfetto.dev).
	traceOut := flag.String("trace", "", "write a Chrome trace of the run to this file")
	flag.Parse()

	// A pool provides intra-node parallelism to every operator. Size it to
	// your cores (hpa.DefaultPool()) or to an experiment's thread axis.
	pool := hpa.NewPool(4)
	defer pool.Close()

	// Documents can come from the filesystem (hpa.FileSource), from memory,
	// or from the paper-calibrated synthetic generator used here: 1% of the
	// paper's "Mix" dataset.
	corpus := hpa.GenerateCorpus(hpa.MixSpec().Scaled(0.01), pool)
	fmt.Printf("corpus: %d documents, %d bytes\n", corpus.Len(), corpus.Bytes())

	// The workflow context carries the pool, scratch space for
	// intermediates, and a per-phase time breakdown.
	ctx := hpa.NewWorkflowContext(pool)
	scratch, err := os.MkdirTemp("", "hpa-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(scratch)
	ctx.ScratchDir = scratch
	var tracer *hpa.Tracer
	if *traceOut != "" {
		tracer = hpa.NewTracer()
		ctx.Tracer = tracer
	}

	// Run TF/IDF → K-Means fused: the score matrix stays in memory.
	report, err := hpa.RunTFIDFKMeans(corpus.Source(nil), ctx, hpa.TFKMConfig{
		Mode: hpa.Merged,
		TFIDF: hpa.TFIDFOptions{
			Normalize: true, // unit vectors, as the paper clusters them
		},
		KMeans: hpa.KMeansOptions{K: 8, Seed: 42},
	})
	if err != nil {
		log.Fatal(err)
	}

	res := report.Clustering.Result
	fmt.Printf("clustered into %d clusters in %d iterations (inertia %.4f)\n",
		len(res.Counts), res.Iterations, res.Inertia)
	for j, size := range res.Counts {
		fmt.Printf("  cluster %d: %d documents\n", j, size)
	}
	fmt.Printf("phase breakdown: %s\n", report.Breakdown)

	if tracer != nil {
		tr := tracer.Snapshot()
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := hpa.WriteChromeTrace(f, tr); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace: %d spans -> %s\n", len(tr.Spans), *traceOut)
	}
}
