// Branching: a workflow that is a DAG, not a chain — one corpus scan
// feeding both word-count and TF/IDF, with the TF/IDF result fanning out to
// K-Means clustering and an ARFF archive at the same time.
//
// The example builds the plan with two separate scan nodes (the natural way
// to write two discrete jobs), then lets the rewrite rules optimize it:
// SharedScanRule collapses the scans so the corpus is read once, and
// FuseRule cancels the materialize/load pair on the K-Means path while
// keeping the archive sink. Independent branches run concurrently on the
// pool.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"hpa"
)

func main() {
	pool := hpa.NewPool(4)
	defer pool.Close()

	corpus := hpa.GenerateCorpus(hpa.MixSpec().Scaled(0.05), pool)
	fmt.Printf("corpus: %d documents, %d bytes\n\n", corpus.Len(), corpus.Bytes())
	src := corpus.Source(nil)

	plan := hpa.NewPlan().
		Add("scan-wc", &hpa.SourceOp{Src: src}).
		Add("scan-tfidf", &hpa.SourceOp{Src: src}).
		Add("wordcount", &hpa.WordCountOp{DictKind: hpa.TreeDict, Stopwords: hpa.Stopwords()}).
		Add("top-words", &hpa.WriteWordCounts{Limit: 20}).
		Add("tfidf", &hpa.TFIDFOp{Opts: hpa.TFIDFOptions{DictKind: hpa.TreeDict, Normalize: true}}).
		Add("materialize", &hpa.MaterializeARFF{}).
		Add("load", &hpa.LoadARFF{}).
		Add("kmeans", &hpa.KMeansOp{Opts: hpa.KMeansOptions{K: 6, Seed: 1}}).
		Add("clusters", &hpa.WriteAssignments{}).
		Add("archive", &hpa.MaterializeARFF{Filename: "archive.arff"}).
		Connect("scan-wc", "wordcount").
		Connect("wordcount", "top-words").
		Connect("scan-tfidf", "tfidf").
		Connect("tfidf", "materialize").
		Connect("materialize", "load").
		Connect("load", "kmeans").
		Connect("kmeans", "clusters").
		Connect("tfidf", "archive")

	if err := plan.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("as written:\n%s\n\n", plan.Explain())

	plan = plan.Apply(hpa.SharedScanRule(), hpa.FuseRule())
	fmt.Printf("after shared-scan + fusion:\n%s\n\n", plan.Explain())

	scratch, err := os.MkdirTemp("", "hpa-branching-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(scratch)
	ctx := hpa.NewWorkflowContext(pool)
	ctx.ScratchDir = scratch

	outs, err := plan.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}

	wc := outs["top-words"].(*hpa.WordCounts)
	fmt.Printf("%d distinct words, %d tokens; top 5: %v\n",
		len(wc.Words), wc.TotalTokens, wc.Top(5))
	cl := outs["clusters"].(*hpa.Clustering)
	fmt.Printf("cluster sizes: %v\n", cl.Result.Counts)
	if labels, ok := cl.TopTermLabels(3); ok {
		for j, l := range labels {
			fmt.Printf("  cluster %d: %v\n", j, l)
		}
	}
	if fi, err := os.Stat(filepath.Join(scratch, "archive.arff")); err == nil {
		fmt.Printf("archive: %d bytes of ARFF kept on disk\n", fi.Size())
	}
	fmt.Printf("\nphases: %s\n", ctx.Breakdown)
}
