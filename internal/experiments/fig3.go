package experiments

import (
	"fmt"
	"os"
	"strings"
	"time"

	"hpa/internal/dict"
	"hpa/internal/kmeans"
	"hpa/internal/metrics"
	"hpa/internal/par"
	"hpa/internal/pario"
	"hpa/internal/tfidf"
	"hpa/internal/workflow"
)

// workflowPhases is the stacked-bar legend of Figure 3, top to bottom.
var workflowPhases = []string{
	tfidf.PhaseInputWC,
	tfidf.PhaseOutput,
	workflow.PhaseKMeansInput,
	tfidf.PhaseTransform,
	kmeans.PhaseKMeans,
	workflow.PhaseOutput,
}

// WorkflowResult reproduces Figure 3: the TF/IDF→K-Means workflow executed
// discrete (operators communicate through an ARFF file on disk) versus
// merged (fused, in-memory), across thread counts, with per-phase times.
type WorkflowResult struct {
	// Figure labels the artifact.
	Figure string
	// Title describes the experiment.
	Title string
	// Dataset names the corpus used.
	Dataset string
	// Threads is the sweep axis.
	Threads []int
	// Discrete and Merged map thread count to phase breakdown.
	Discrete, Merged map[int]*metrics.Breakdown
	// Mode reports how the sweep executed.
	Mode Mode
	// PaperOverheadAt1 is the paper's I/O overhead at one thread (+36.9%).
	PaperOverheadAt1 float64
	// PaperSlowdownAt16 is the paper's discrete/merged ratio at 16 threads
	// (3.84x).
	PaperSlowdownAt16 float64
}

// RunFig3 executes the Figure 3 experiment on the NSF Abstracts corpus.
func RunFig3(cfg Config) (*WorkflowResult, error) {
	spec := cfg.nsfSpec()
	res := &WorkflowResult{
		Figure:            "Figure 3",
		Title:             "TF/IDF–K-Means workflow: discrete (ARFF on disk) vs merged (fused)",
		Dataset:           baseName(spec.Name),
		Threads:           cfg.Threads,
		Mode:              cfg.effectiveMode(),
		Discrete:          map[int]*metrics.Breakdown{},
		Merged:            map[int]*metrics.Breakdown{},
		PaperOverheadAt1:  0.369,
		PaperSlowdownAt16: 3.84,
	}
	c := generate(cfg, spec)
	cfgTFKM := cfg.tfkm(workflow.Discrete, dict.Tree)

	if res.Mode == Sim {
		// One recorded discrete run; the merged trace is the same phases
		// minus the materialization pair (the compute phases are identical
		// code on identical data).
		cfg.logf("fig3: recording discrete workflow trace on %s...", spec.Name)
		discretePhases, _, err := cfg.recordTFKM(c.Source(nil), cfgTFKM)
		if err != nil {
			return nil, err
		}
		mergedPhases := filterPhases(discretePhases, tfidf.PhaseOutput, workflow.PhaseKMeansInput)
		res.Discrete = cfg.simBreakdowns(discretePhases)
		res.Merged = cfg.simBreakdowns(mergedPhases)
		return res, nil
	}

	// Real mode: run each (mode, threads) combination against a throttled
	// device.
	for _, mode := range []workflow.Mode{workflow.Discrete, workflow.Merged} {
		wcfg := cfgTFKM
		wcfg.Mode = mode
		for _, n := range cfg.Threads {
			scratch, err := os.MkdirTemp("", "hpa-fig3-*")
			if err != nil {
				return nil, err
			}
			pool := par.NewPool(n)
			ctx := workflow.NewContext(pool)
			ctx.ScratchDir = scratch
			ctx.Disk = &pario.DiskSim{BytesPerSec: cfg.Disk.BytesPerSec, OpenLatency: cfg.Disk.OpenLatency}
			rep, err := workflow.RunTFKM(c.Source(ctx.Disk), ctx, wcfg)
			pool.Close()
			os.RemoveAll(scratch)
			if err != nil {
				return nil, err
			}
			cfg.logf("fig3: %s @%d threads: %v", mode, n, rep.Breakdown.Total())
			if mode == workflow.Discrete {
				res.Discrete[n] = rep.Breakdown
			} else {
				res.Merged[n] = rep.Breakdown
			}
		}
	}
	return res, nil
}

// OverheadAt1 returns the measured relative execution-time increase of the
// discrete workflow at one thread ((discrete-merged)/merged).
func (r *WorkflowResult) OverheadAt1() (float64, bool) {
	return r.ratioAt(1)
}

// SlowdownAt returns discrete/merged total time at the given thread count.
func (r *WorkflowResult) SlowdownAt(n int) (float64, bool) {
	d, okD := r.Discrete[n]
	m, okM := r.Merged[n]
	if !okD || !okM || m.Total() == 0 {
		return 0, false
	}
	return float64(d.Total()) / float64(m.Total()), true
}

func (r *WorkflowResult) ratioAt(n int) (float64, bool) {
	s, ok := r.SlowdownAt(n)
	if !ok {
		return 0, false
	}
	return s - 1, true
}

// Render prints the stacked-bar data of Figure 3 as a table.
func (r *WorkflowResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %s\n(dataset: %s, mode=%s)\n\n", r.Figure, r.Title, r.Dataset, r.Mode)
	sb.WriteString(renderWorkflowTable(r.Threads, map[string]map[int]*metrics.Breakdown{
		"discrete": r.Discrete, "merged": r.Merged,
	}, []string{"discrete", "merged"}))

	if ov, ok := r.OverheadAt1(); ok {
		fmt.Fprintf(&sb, "\nI/O overhead at 1 thread: +%.1f%% (paper: +%.1f%%)\n",
			ov*100, r.PaperOverheadAt1*100)
	}
	if sl, ok := r.SlowdownAt(16); ok {
		fmt.Fprintf(&sb, "discrete/merged at 16 threads: %.2fx slower (paper: %.2fx)\n",
			sl, r.PaperSlowdownAt16)
	}
	return sb.String()
}

// renderWorkflowTable prints phase-by-phase durations for each variant and
// thread count, mirroring the stacked bars.
func renderWorkflowTable(threads []int, variants map[string]map[int]*metrics.Breakdown, order []string) string {
	return workflowTableData(threads, variants, order).String()
}

// workflowTableData builds the per-phase duration table.
func workflowTableData(threads []int, variants map[string]map[int]*metrics.Breakdown, order []string) *metrics.Table {
	header := []string{"Threads", "Variant"}
	header = append(header, workflowPhases...)
	header = append(header, "total")
	t := metrics.NewTable(header...)
	for _, n := range threads {
		for _, variant := range order {
			bd, ok := variants[variant][n]
			if !ok {
				continue
			}
			row := []string{fmt.Sprintf("%d", n), variant}
			for _, ph := range workflowPhases {
				if d := bd.Get(ph); d > 0 {
					row = append(row, metrics.FormatDuration(d))
				} else {
					row = append(row, "-")
				}
			}
			row = append(row, metrics.FormatDuration(bd.Total()))
			t.AddRow(row...)
		}
	}
	return t
}

// totalAt is a test helper: total duration of a variant at n threads.
func totalAt(m map[int]*metrics.Breakdown, n int) time.Duration {
	if bd, ok := m[n]; ok {
		return bd.Total()
	}
	return 0
}
