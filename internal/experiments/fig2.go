package experiments

import (
	"os"
	"path/filepath"
	"time"

	"hpa/internal/corpus"
	"hpa/internal/dict"
	"hpa/internal/par"
	"hpa/internal/pario"
	"hpa/internal/simsched"
	"hpa/internal/tfidf"
	"hpa/internal/workflow"
)

// RunFig2 reproduces Figure 2: self-relative scalability of the TF/IDF
// operator on both datasets. The operator comprises parallel input +
// word counting, the parallel transform, and the sequential ARFF output
// whose serialization the paper highlights ("The second phase is not
// parallelized as the ARFF format does not facilitate parallel output").
// In Sim mode the sweep replays those three phases of a recorded discrete
// workflow run (Config.recordTFKM).
func RunFig2(cfg Config) (*SpeedupResult, error) {
	res := &SpeedupResult{
		Figure:  "Figure 2",
		Title:   "Self-relative parallel scalability of the TF/IDF operator",
		Threads: cfg.Threads,
		Mode:    cfg.effectiveMode(),
		PaperMax: map[string]float64{
			corpus.Mix().Name:          5.9, // "nearly 6-fold"
			corpus.NSFAbstracts().Name: 7.0, // "7-fold"
		},
	}
	scratch, err := os.MkdirTemp("", "hpa-fig2-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	for _, spec := range []corpus.Spec{cfg.nsfSpec(), cfg.mixSpec()} {
		c := generate(cfg, spec)
		arffPath := filepath.Join(scratch, baseName(spec.Name)+".arff")
		series, err := cfg.sweep(baseName(spec.Name),
			func() ([]simsched.Phase, error) {
				phases, _, err := cfg.recordTFKM(c.Source(nil), cfg.tfkm(workflow.Discrete, dict.Tree),
					tfidf.PhaseInputWC, tfidf.PhaseTransform, tfidf.PhaseOutput)
				return phases, err
			},
			func(pool *par.Pool) (time.Duration, error) {
				disk := &pario.DiskSim{BytesPerSec: cfg.Disk.BytesPerSec, OpenLatency: cfg.Disk.OpenLatency}
				start := time.Now()
				r, err := tfidf.Run(c.Source(disk), pool, tfidf.Options{DictKind: dict.Tree, Normalize: true}, nil)
				if err != nil {
					return 0, err
				}
				if _, err := r.WriteARFF(arffPath, disk, nil); err != nil {
					return 0, err
				}
				return time.Since(start), nil
			})
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}
