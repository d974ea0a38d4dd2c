// Command hpa-tfidf runs the TF/IDF operator over a corpus directory and
// writes the per-document score vectors as sparse ARFF — the discrete form
// of the paper's text operator.
//
// Usage:
//
//	hpa-tfidf -in CORPUSDIR -out FILE.arff [-threads N] [-dict map|u-map|map-arena]
//	          [-presize 0] [-global-presize 4096] [-normalize]
//	          [-stopwords] [-min-len 0] [-disksim off|hdd]
//
// The phase breakdown (input+wc, transform, tfidf-output) is printed on
// exit, matching the Figure 3/4 legend.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"hpa/internal/corpus"
	"hpa/internal/dict"
	"hpa/internal/metrics"
	"hpa/internal/par"
	"hpa/internal/pario"
	"hpa/internal/text"
	"hpa/internal/tfidf"
)

func main() {
	var (
		in           = flag.String("in", "", "corpus directory (required)")
		out          = flag.String("out", "", "output ARFF path (required)")
		threads      = flag.Int("threads", runtime.NumCPU(), "worker threads")
		dictKind     = flag.String("dict", dict.Kind(0).String(), "dictionary: map, u-map, map-arena")
		presize      = flag.Int("presize", 0, "per-document dictionary presize (paper's Figure 4 uses 4096)")
		globalPre    = flag.Int("global-presize", 4096, "global dictionary presize")
		normalize    = flag.Bool("normalize", true, "unit-normalize output vectors")
		useStopwords = flag.Bool("stopwords", false, "filter English stopwords")
		minLen       = flag.Int("min-len", 0, "minimum token length")
		diskSim      = flag.String("disksim", "off", "storage model: off (real device) or hdd (2016-class disk)")
	)
	flag.Parse()
	if *in == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "hpa-tfidf: -in and -out are required")
		os.Exit(2)
	}
	kind, err := dict.ParseKind(*dictKind)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hpa-tfidf: %v\n", err)
		os.Exit(2)
	}
	var disk *pario.DiskSim
	if *diskSim == "hdd" {
		disk = pario.HDD2016()
	}

	src, err := corpus.OpenDir(*in, disk)
	if err != nil {
		fatal(err)
	}
	pool := par.NewPool(*threads)
	defer pool.Close()

	opts := tfidf.Options{
		DictKind:      kind,
		DocPresize:    *presize,
		GlobalPresize: *globalPre,
		Normalize:     *normalize,
		MinWordLen:    *minLen,
	}
	if *useStopwords {
		opts.Stopwords = text.English()
	}

	bd := metrics.NewBreakdown()
	res, err := tfidf.Run(src, pool, opts, bd)
	if err != nil {
		fatal(err)
	}
	n, err := res.WriteARFF(*out, disk, bd, nil)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "%d documents, %d terms, %s ARFF\n", res.NumDocs, res.Dim(), metrics.FormatBytes(n))
	fmt.Fprintf(os.Stderr, "dictionary footprint: %s (%s)\n", metrics.FormatBytes(res.DictFootprint), kind)
	fmt.Fprintf(os.Stderr, "phases: %s\n", bd)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "hpa-tfidf: %v\n", err)
	os.Exit(1)
}
