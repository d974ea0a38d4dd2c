package workflow

import (
	"fmt"
	"os"
	"runtime"

	"hpa/internal/dict"
	"hpa/internal/kmeans"
	"hpa/internal/metrics"
	"hpa/internal/obs"
	"hpa/internal/par"
	"hpa/internal/pario"
	"hpa/internal/tfidf"
)

// Mode selects between the paper's two executions of the TF/IDF→K-Means
// workflow (Figure 3).
type Mode int

const (
	// Discrete runs TF/IDF and K-Means as separate operators communicating
	// through an ARFF file on disk.
	Discrete Mode = iota
	// Merged fuses the two operators into one image; the TF/IDF scores
	// stay in memory.
	Merged
)

// String returns the paper's label for the mode.
func (m Mode) String() string {
	switch m {
	case Discrete:
		return "discrete"
	case Merged:
		return "merged"
	default:
		return "unknown"
	}
}

// TFKMConfig configures the TF/IDF→K-Means workflow.
type TFKMConfig struct {
	// Mode selects discrete or merged execution.
	Mode Mode
	// Shards is the shard count of the partitioned plan: PartitionRule
	// shards the corpus scan, expands TF/IDF into per-shard map kernels
	// plus reductions and runs K-Means as an iterative shard loop. N > 0
	// pins N shards; 0 (or any value below 1) is auto — 2×GOMAXPROCS on
	// more than one proc, over-decomposed so work stealing rebalances
	// stragglers (see PartitionOp.Shards). The result does not depend on
	// it: scores, seeds, assignments, counts, every centroid and inertia
	// bit are identical at any shard count — one clustering per input.
	Shards int
	// TFIDF configures the text operator.
	TFIDF tfidf.Options
	// KMeans configures the clustering operator.
	KMeans kmeans.Options
}

// LogicalTFKMPlan constructs the workflow over src as a logical Plan: one
// node per operator, before any shard decision — the input of the plan
// optimizer, which picks the shard counts itself. The discrete plan
// contains the materialize/load pair; Merged is exactly the discrete plan
// with the fusion rule applied. cfg.Shards is ignored; Plan.Run expands a
// logical plan at the auto shard count.
func LogicalTFKMPlan(src pario.Source, cfg TFKMConfig) *Plan {
	p := NewPlan().
		Add("scan", &SourceOp{Src: src}).
		Add("tfidf", &TFIDFOp{Opts: cfg.TFIDF}).
		Add("materialize-arff", &MaterializeARFF{}).
		Add("load-arff", &LoadARFF{}).
		Add("kmeans", &KMeansOp{Opts: cfg.KMeans}).
		Add("output", &WriteAssignments{}).
		Connect("scan", "tfidf").
		Connect("tfidf", "materialize-arff").
		Connect("materialize-arff", "load-arff").
		Connect("load-arff", "kmeans").
		Connect("kmeans", "output")
	if cfg.Mode == Merged {
		p = p.Apply(FuseRule())
	}
	return p
}

// TFKMPlan constructs the workflow over src as a physical Plan: the
// logical plan with PartitionRule(cfg.Shards) applied, so the scan splits
// into partitions, TF/IDF expands into per-shard map kernels around its
// reductions and K-Means into its iterative shard loop. cfg.Shards <= 0
// is auto: PartitionOp.PartitionCount resolves it to 2×GOMAXPROCS on more
// than one proc, 1 otherwise.
func TFKMPlan(src pario.Source, cfg TFKMConfig) *Plan {
	return LogicalTFKMPlan(src, cfg).Apply(PartitionRule(max(cfg.Shards, 0)))
}

// TFKMReport is the outcome of a workflow run.
type TFKMReport struct {
	// Clustering is the final dataset.
	Clustering *Clustering
	// Breakdown holds per-phase times: input+wc, [tfidf-output,
	// kmeans-input,] transform, kmeans, output.
	Breakdown *metrics.Breakdown
	// DictFootprint is the TF/IDF dictionary memory (Figure 4's
	// measurement); zero in discrete mode after the operator exits only if
	// the result was dropped — it is captured before that.
	DictFootprint int64
	// DictStats sums the shard vocabulary dictionaries' counters (rehashes
	// for the hash kind, rotations for the tree kind): tfidf.Global.Stats.
	DictStats dict.Stats
}

// RunTFKM executes the workflow over src in the given context; the
// context's Backend chooses where shard tasks run.
func RunTFKM(src pario.Source, ctx *Context, cfg TFKMConfig) (*TFKMReport, error) {
	return RunTFKMPlan(TFKMPlan(src, cfg), ctx)
}

// RecordTFKM runs cfg's plan over src once, traced, one task at a time
// (Context.Serial) on a one-worker pool, in a scratch directory it removes
// afterwards: every span is then one task's own run time, with no other
// task overlapping it. It starts from a collected heap, so no recording
// pays for the garbage of the one before it. A nil backend runs every task
// in process; observe, when non-nil, is the run's Context.Observe. The
// figures replay such a recording (simsched.FromTrace) and the optimizer's
// calibration fits its plan-level prices to one.
func RecordTFKM(src pario.Source, cfg TFKMConfig, backend Backend, observe func(Operator, Value)) (*obs.Trace, *TFKMReport, error) {
	scratch, err := os.MkdirTemp("", "hpa-record-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(scratch)
	runtime.GC()
	pool := par.NewPool(1)
	defer pool.Close()
	ctx := NewContext(pool)
	ctx.ScratchDir = scratch
	ctx.Serial = true
	ctx.Backend = backend
	ctx.Observe = observe
	ctx.Tracer = obs.NewTracer()
	rep, err := RunTFKM(src, ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	return ctx.Tracer.Snapshot(), rep, nil
}

// RunTFKMPlan executes an already-built TF/IDF→K-Means plan — for example
// one transformed by rewrite rules or by the plan optimizer — capturing the
// same report a RunTFKM call produces. The plan must contain a sink
// producing a *Clustering (the "output" node of TFKMPlan, or any node
// surviving a rewrite of it).
func RunTFKMPlan(plan *Plan, ctx *Context) (*TFKMReport, error) {
	if ctx.Breakdown == nil {
		ctx.Breakdown = metrics.NewBreakdown()
	}

	// Capture the dictionary footprint when the TF/IDF operator finishes,
	// regardless of mode — in discrete mode the result is dropped once
	// materialized.
	var foot int64
	var stats dict.Stats
	prevObserve := ctx.Observe
	ctx.Observe = func(op Operator, out Value) {
		if r, ok := out.(*tfidf.Result); ok {
			foot = r.DictFootprint
			stats = r.GlobalStats
		}
		if prevObserve != nil {
			prevObserve(op, out)
		}
	}
	defer func() { ctx.Observe = prevObserve }()

	outs, err := plan.Run(ctx)
	if err != nil {
		return nil, err
	}
	cl, ok := outs["output"].(*Clustering)
	if !ok {
		// A rewritten plan may have renamed the sink; the first *Clustering
		// sink in plan node order (deterministic) is the workflow outcome.
		for _, name := range plan.Nodes() {
			if c, isCl := outs[name].(*Clustering); isCl {
				cl, ok = c, true
				break
			}
		}
	}
	if !ok {
		if v, present := outs["output"]; present {
			return nil, fmt.Errorf("workflow: output node produced %T, not a clustering", v)
		}
		return nil, fmt.Errorf("workflow: plan has no clustering sink")
	}
	return &TFKMReport{Clustering: cl, Breakdown: ctx.Breakdown, DictFootprint: foot, DictStats: stats}, nil
}
