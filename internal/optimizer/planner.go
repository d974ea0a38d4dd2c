package optimizer

import (
	"sync"

	"hpa/internal/pario"
	"hpa/internal/workflow"
)

// Planner is the resident, request-independent half of plan optimization:
// the calibrated cost model, the default optimizer options, and a cache of
// per-corpus input statistics — everything that is reusable across
// requests and used to be rebuilt per run. A long-lived server constructs
// one Planner at boot (calibrating or loading the cached model once) and
// builds an optimized plan per admitted request; a batch process can keep
// calling Collect/Rule directly.
//
// Statistics are cached under a caller-chosen key (typically the corpus
// path): sampling reads ~256 documents, which is noise for one batch run
// but a hot-path tax when thousands of requests target the same resident
// corpus.
//
// Planner is safe for concurrent use.
type Planner struct {
	model *CostModel
	opts  Options

	mu    sync.Mutex
	stats map[string]*Stats
}

// NewPlanner returns a planner over a calibrated model and the default
// options applied to every plan it builds.
func NewPlanner(model *CostModel, opts Options) *Planner {
	return &Planner{model: model, opts: opts, stats: make(map[string]*Stats)}
}

// Options returns the planner's default optimizer options.
func (p *Planner) Options() Options { return p.opts }

// StatsFor returns the input statistics cached under key, sampling src on
// the first request. Concurrent first requests for the same key may both
// sample; one result wins the cache — statistics are deterministic for a
// fixed source, so either is correct.
func (p *Planner) StatsFor(key string, src pario.Source) (*Stats, error) {
	p.mu.Lock()
	st, ok := p.stats[key]
	p.mu.Unlock()
	if ok {
		return st, nil
	}
	st, err := Collect(src, 0)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if prev, ok := p.stats[key]; ok {
		st = prev
	} else {
		p.stats[key] = st
	}
	p.mu.Unlock()
	return st, nil
}

// PlanTFKMWith builds the optimized TF/IDF→K-Means plan for src over the
// resident model and statistics, under opts — the planner's defaults
// (Options) with any per-request overrides (for example a request-pinned
// shard count or dictionary kind) layered on. The optimizer rewrites the
// discrete logical plan, so cfg.Mode and cfg.Shards do not apply — the cost
// model owns the fusion and sharding decisions; pin them through the
// options (Shards, Dict, Fusion) instead.
func (p *Planner) PlanTFKMWith(src pario.Source, cfg workflow.TFKMConfig, st *Stats, opts Options) *workflow.Plan {
	base := cfg
	base.Mode = workflow.Discrete
	return workflow.LogicalTFKMPlan(src, base).Apply(Rule(st, p.model, opts))
}
