// Package experiments regenerates every table and figure of the paper's
// evaluation:
//
//	Table 1  — dataset description (documents, bytes, distinct words)
//	Figure 1 — K-Means self-relative speedup vs threads, both datasets
//	Figure 2 — TF/IDF self-relative speedup vs threads, both datasets
//	Figure 3 — TF/IDF→K-Means workflow, discrete vs merged, phase breakdown
//	Figure 4 — same workflow, std::map vs std::unordered_map dictionaries
//	Section 3.1 text — optimized K-Means vs WEKA SimpleKMeans
//
// Each experiment has a Run function returning a structured result that
// carries both the measurement and the paper's reference values, plus a
// Render method producing the plain-text equivalent of the figure.
//
// Thread sweeps run in one of two modes (see Config.Mode): Real executes
// the operators on actual pools of each size and measures wall-clock —
// meaningful only on a machine with at least as many cores as the sweep's
// largest point; Sim runs the TF/IDF→K-Means plan once, traced, one task
// at a time, and replays the spans' task costs on a virtual node
// (simsched.FromTrace, simsched.Simulate) — the default, and the only
// option on small hosts. Auto picks Real when the host has enough cores.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"hpa/internal/corpus"
	"hpa/internal/dict"
	"hpa/internal/kmeans"
	"hpa/internal/pario"
	"hpa/internal/simsched"
	"hpa/internal/tfidf"
	"hpa/internal/workflow"
)

// Mode selects how thread sweeps are executed.
type Mode int

const (
	// Auto selects Real when runtime.NumCPU() covers the sweep, else Sim.
	Auto Mode = iota
	// Sim replays measured task costs on virtual cores.
	Sim
	// Real runs actual thread pools and measures wall-clock.
	Real
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Auto:
		return "auto"
	case Sim:
		return "sim"
	case Real:
		return "real"
	default:
		return "unknown"
	}
}

// Config parameterizes all experiments.
type Config struct {
	// MixScale and NSFScale shrink the Table 1 corpora (1.0 = full paper
	// scale). Scaled corpora follow Heaps' law for their distinct-word
	// targets.
	MixScale, NSFScale float64
	// Threads is the sweep axis (the paper plots 1..20).
	Threads []int
	// K is the cluster count (the paper uses 8).
	K int
	// Seed drives corpus generation and clustering deterministically.
	Seed uint64
	// Mode selects Real or Sim thread sweeps.
	Mode Mode
	// Repeats re-runs each measured configuration this many times and
	// keeps the fastest run (in Sim mode, each task's fastest recording):
	// the least interference, stabilizing single-run phase comparisons on
	// noisy hosts. 0 means 1.
	Repeats int
	// Disk is the storage device model used for inputs and intermediates.
	Disk simsched.Disk
	// Verbose, when non-nil, receives progress lines.
	Verbose io.Writer
}

// DefaultConfig returns the configuration used by `go test -bench` and the
// report tool without flags: corpora scaled to run in seconds, the paper's
// thread axis, its cluster count, and a 2016-class local disk.
func DefaultConfig() Config {
	return Config{
		MixScale: 0.05,
		NSFScale: 0.02,
		Threads:  []int{1, 2, 4, 8, 12, 16, 20},
		K:        8,
		Seed:     1,
		Mode:     Auto,
		Repeats:  3,
		Disk:     simsched.Disk{BytesPerSec: 120e6, OpenLatency: 400 * time.Microsecond},
	}
}

// FullConfig returns the Table 1 full-scale configuration (minutes of
// runtime, gigabytes of memory for the Figure 4 hash configuration).
func FullConfig() Config {
	c := DefaultConfig()
	c.MixScale, c.NSFScale = 1, 1
	return c
}

func (c Config) logf(format string, args ...any) {
	if c.Verbose != nil {
		fmt.Fprintf(c.Verbose, format+"\n", args...)
	}
}

// effectiveMode resolves Auto against the host.
func (c Config) effectiveMode() Mode {
	if c.Mode != Auto {
		return c.Mode
	}
	max := 0
	for _, t := range c.Threads {
		if t > max {
			max = t
		}
	}
	if runtime.NumCPU() >= max {
		return Real
	}
	return Sim
}

// mixSpec and nsfSpec resolve the scaled dataset specifications.
func (c Config) mixSpec() corpus.Spec { return corpus.Mix().Scaled(c.MixScale) }
func (c Config) nsfSpec() corpus.Spec { return corpus.NSFAbstracts().Scaled(c.NSFScale) }

// maxThreads returns the largest sweep point.
func (c Config) maxThreads() int {
	m := 1
	for _, t := range c.Threads {
		if t > m {
			m = t
		}
	}
	return m
}

// repeats normalizes Config.Repeats.
func (c Config) repeats() int {
	if c.Repeats < 1 {
		return 1
	}
	return c.Repeats
}

// recordShards is the shard count of a recording: what the auto rule
// (2 × GOMAXPROCS) gives at the sweep's largest thread count, so every
// simulated thread count has the task granularity a real run would. Every
// shard count computes the same bits, so only the granularity changes.
func (c Config) recordShards() int { return 2 * c.maxThreads() }

// tfkm is the figures' workflow configuration: normalized TF/IDF on the
// given dictionary kind, K-Means at the configured k and seed.
func (c Config) tfkm(mode workflow.Mode, kind dict.Kind) workflow.TFKMConfig {
	return workflow.TFKMConfig{
		Mode:   mode,
		TFIDF:  tfidf.Options{DictKind: kind, Normalize: true},
		KMeans: kmeans.Options{K: c.K, Seed: c.Seed},
	}
}

// recordTFKM records the plan of wcfg over src Repeats times
// (workflow.RecordTFKM: traced, serial, one pool worker, with no disk
// throttling, so every span is pure task time and the I/O demand rides on
// the spans for the virtual device to charge) and converts each trace into
// simsched phases, keeping those named in keep (all when keep is empty).
// A serial run schedules the same tasks in the same order every time, so
// the recordings line up task for task; each task and serial section keeps
// its least disturbed (shortest) duration. It returns the first run's
// report. wcfg.Shards 0 records at recordShards.
func (c Config) recordTFKM(src pario.Source, wcfg workflow.TFKMConfig, keep ...string) ([]simsched.Phase, *workflow.TFKMReport, error) {
	if wcfg.Shards == 0 {
		wcfg.Shards = c.recordShards()
	}
	var best []simsched.Phase
	var first *workflow.TFKMReport
	for i := 0; i < c.repeats(); i++ {
		tr, rep, err := workflow.RecordTFKM(src, wcfg, nil, nil)
		if err != nil {
			return nil, nil, err
		}
		phases := simsched.FromTrace(tr)
		if len(keep) > 0 {
			phases = slices.DeleteFunc(phases, func(p simsched.Phase) bool { return !slices.Contains(keep, p.Name) })
		}
		if best == nil {
			best, first = phases, rep
			continue
		}
		if err := lowerPhases(best, phases); err != nil {
			return nil, nil, err
		}
	}
	return best, first, nil
}

// lowerPhases lowers every serial section and task duration of dst to the
// matching one of src, a recording of the same run.
func lowerPhases(dst, src []simsched.Phase) error {
	if len(dst) != len(src) {
		return fmt.Errorf("experiments: recordings of one run differ: %d vs %d phases", len(dst), len(src))
	}
	for i := range dst {
		d, s := &dst[i], &src[i]
		if d.Name != s.Name || len(d.Tasks) != len(s.Tasks) {
			return fmt.Errorf("experiments: recordings of one run differ at phase %d (%s, %d tasks vs %s, %d tasks)",
				i, d.Name, len(d.Tasks), s.Name, len(s.Tasks))
		}
		d.Serial = min(d.Serial, s.Serial)
		for j := range d.Tasks {
			d.Tasks[j].CPU = min(d.Tasks[j].CPU, s.Tasks[j].CPU)
		}
	}
	return nil
}
