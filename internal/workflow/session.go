package workflow

import (
	"context"

	"hpa/internal/metrics"
	"hpa/internal/obs"
	"hpa/internal/par"
	"hpa/internal/pario"
)

// Env is the resident, request-independent half of what Context used to
// entangle: the process-lifetime execution environment a long-lived server
// holds once and shares across every plan run — the worker pool, the
// storage model, scratch space and the execution backend. The per-run half
// (breakdown, observer, cancellation, serial dispatch) stays in Context;
// NewRun mints a fresh Context against the shared environment for each
// request, so concurrent runs never share mutable per-run state.
//
// A batch process can keep building Contexts directly; Env earns its keep
// when one process serves many runs (hpa-serve holds one Env for its whole
// lifetime and calls NewRun per admitted plan).
type Env struct {
	// Pool supplies intra-node parallelism; shared by every run.
	Pool *par.Pool
	// Disk models the storage device for inputs and intermediates; nil
	// means unthrottled.
	Disk *pario.DiskSim
	// ScratchDir hosts intermediate files (discrete workflows, cost-model
	// cache).
	ScratchDir string
	// Backend selects where shard tasks execute (nil = in-process).
	Backend Backend
	// Tracer, when non-nil, is attached to every run's Context so resident
	// servers trace all plans into one collector (nil = untraced).
	Tracer *obs.Tracer
}

// NewEnv returns an environment over the pool.
func NewEnv(pool *par.Pool) *Env { return &Env{Pool: pool} }

// NewRun mints a per-run Context over the shared environment: fresh
// breakdown, no observer, concurrent dispatch, cancelled by ctx (which may
// be nil). The returned Context is the one run's private state; the
// environment fields are shared.
func (e *Env) NewRun(ctx context.Context) *Context {
	return &Context{
		Pool:       e.Pool,
		Disk:       e.Disk,
		Breakdown:  metrics.NewBreakdown(),
		ScratchDir: e.ScratchDir,
		Ctx:        ctx,
		Backend:    e.Backend,
		Tracer:     e.Tracer,
	}
}
