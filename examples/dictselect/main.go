// Dictselect: the paper's Figure 4 in miniature — run the TF/IDF operator
// with each dictionary implementation and compare the phase costs and
// memory footprints. The write-heavy word-count phase and the lookup-only
// transform phase prefer different structures, which is the paper's point:
// "the choice of internal data structure must be taken judiciously,
// depending on the overall time taken by each step of the workflow".
package main

import (
	"fmt"
	"log"

	"hpa"
)

func main() {
	pool := hpa.NewPool(4)
	defer pool.Close()

	corpus := hpa.GenerateCorpus(hpa.MixSpec().Scaled(0.02), pool)
	fmt.Printf("corpus: %d documents, %d bytes\n\n", corpus.Len(), corpus.Bytes())

	fmt.Printf("%-10s  %-12s  %-12s  %-12s  %s\n", "dict", "input+wc", "transform", "footprint", "notes")
	for _, cfg := range []struct {
		kind    hpa.DictKind
		presize int
		notes   string
	}{
		{hpa.HashDict, 4096, "paper's u-map, 4K presize per document"},
		{hpa.HashDict, 0, "u-map without presize (library default)"},
		{hpa.TreeDict, 0, "arena red-black tree"},
	} {
		res, bd, err := run(corpus, pool, cfg.kind, cfg.presize)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s  %-12v  %-12v  %-12s  %s\n",
			label(cfg.kind, cfg.presize),
			bd.Get("input+wc").Round(1e6),
			bd.Get("transform").Round(1e6),
			fmt.Sprintf("%.1f MB", float64(res.DictFootprint)/(1<<20)),
			cfg.notes)
	}
	fmt.Println("\nPre-sized to 4K per document, as in the paper's Figure 4, the hash table")
	fmt.Println("pays for its sparse tables in the write-heavy phase and in memory; grown")
	fmt.Println("to fit, it is the library default. The right choice depends on which phase")
	fmt.Println("dominates your workflow and how many threads share the memory bus.")
}

func run(c *hpa.Corpus, pool *hpa.Pool, kind hpa.DictKind, presize int) (*hpa.TFIDFResult, *hpa.Breakdown, error) {
	bd := hpa.NewBreakdown()
	res, err := hpa.TFIDFInto(c.Source(nil), pool, hpa.TFIDFOptions{
		DictKind:   kind,
		DocPresize: presize,
		Normalize:  true,
	}, bd)
	return res, bd, err
}

func label(kind hpa.DictKind, presize int) string {
	if presize > 0 {
		return fmt.Sprintf("%s/4K", kind)
	}
	return kind.String()
}
