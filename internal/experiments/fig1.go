package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"hpa/internal/corpus"
	"hpa/internal/dict"
	"hpa/internal/kmeans"
	"hpa/internal/metrics"
	"hpa/internal/par"
	"hpa/internal/simsched"
	"hpa/internal/sparse"
	"hpa/internal/tfidf"
	"hpa/internal/workflow"
)

// SpeedupResult reproduces a scalability figure (Figure 1 or Figure 2):
// self-relative speedup versus thread count, one series per dataset.
type SpeedupResult struct {
	// Figure labels the artifact ("Figure 1").
	Figure string
	// Title describes the experiment.
	Title string
	// Series holds one time-vs-threads series per dataset.
	Series []*metrics.SpeedupSeries
	// Threads is the sweep axis.
	Threads []int
	// PaperMax records the paper's approximate peak speedup per series
	// name, for the shape comparison.
	PaperMax map[string]float64
	// Mode reports how the sweep executed.
	Mode Mode
}

// prepared carries a dataset's TF/IDF vectors: the input of Figure 1's
// Real-mode sweep and of the WEKA comparison.
type prepared struct {
	name    string
	vectors []sparse.Vector
	dim     int
}

// prepareVectors computes normalized TF/IDF vectors for a corpus spec using
// every host core; this preprocessing is not part of the measured
// experiment.
func prepareVectors(cfg Config, spec corpus.Spec) (*prepared, error) {
	c := generate(cfg, spec)
	pool := par.NewPool(runtime.NumCPU())
	defer pool.Close()
	res, err := tfidf.Run(c.Source(nil), pool, tfidf.Options{
		DictKind:  dict.Tree,
		Normalize: true,
	}, nil)
	if err != nil {
		return nil, err
	}
	return &prepared{name: spec.Name, vectors: res.Vectors, dim: res.Dim()}, nil
}

// RunFig1 reproduces Figure 1: self-relative scalability of the K-Means
// operator on both datasets, clustering documents into K clusters based on
// their normalized TF/IDF scores. In Sim mode the sweep replays the K-Means
// phases of a recorded discrete workflow run (Config.recordTFKM).
func RunFig1(cfg Config) (*SpeedupResult, error) {
	res := &SpeedupResult{
		Figure:  "Figure 1",
		Title:   "Self-relative performance scalability of the K-Means operator",
		Threads: cfg.Threads,
		Mode:    cfg.effectiveMode(),
		PaperMax: map[string]float64{
			corpus.NSFAbstracts().Name: 7.7, // "sped up nearly 8 times"
			corpus.Mix().Name:          2.5, // "sufficient only for a 2.5x speedup"
		},
	}
	opts := kmeans.Options{K: cfg.K, Seed: cfg.Seed}
	for _, spec := range []corpus.Spec{cfg.nsfSpec(), cfg.mixSpec()} {
		var prep *prepared
		series, err := cfg.sweep(baseName(spec.Name),
			func() ([]simsched.Phase, error) {
				c := generate(cfg, spec)
				phases, _, err := cfg.recordTFKM(c.Source(nil), cfg.tfkm(workflow.Discrete, dict.Tree), kmeans.PhaseKMeans)
				return phases, err
			},
			func(pool *par.Pool) (time.Duration, error) {
				if prep == nil {
					var err error
					if prep, err = prepareVectors(cfg, spec); err != nil {
						return 0, err
					}
				}
				bd := metrics.NewBreakdown()
				if _, err := kmeans.Run(prep.vectors, prep.dim, pool, opts, bd); err != nil {
					return 0, err
				}
				return bd.Get(kmeans.PhaseKMeans), nil
			})
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// generate builds a corpus on every host core; generation is not part of
// any measurement.
func generate(cfg Config, spec corpus.Spec) *corpus.Corpus {
	pool := par.NewPool(runtime.NumCPU())
	defer pool.Close()
	cfg.logf("generating %s (%d documents)...", spec.Name, spec.Documents)
	return corpus.Generate(spec, pool)
}

// baseName strips the "@scale" suffix Scaled appends, so series names match
// the paper's legend.
func baseName(name string) string {
	if i := strings.IndexByte(name, '@'); i >= 0 {
		return name[:i]
	}
	return name
}

// Render prints the figure as a table plus the paper-shape comparison.
func (r *SpeedupResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %s (mode=%s)\n\n", r.Figure, r.Title, r.Mode)
	sb.WriteString(speedupTable(r.Series, r.Threads))
	sb.WriteString("\nShape vs paper:\n")
	for _, s := range r.Series {
		max := s.MaxSpeedup()
		paper := r.PaperMax[s.Name()]
		fmt.Fprintf(&sb, "  %-14s peak self-relative speedup %s (paper: ~%.1fx)\n",
			s.Name(), metrics.FormatSpeedup(max), paper)
	}
	if len(r.Series) == 2 {
		// The paper's headline shape: the larger dataset scales further.
		a, b := r.Series[0], r.Series[1]
		fmt.Fprintf(&sb, "  larger dataset scales further: %v (paper: true)\n",
			a.MaxSpeedup() > b.MaxSpeedup())
	}
	return sb.String()
}
