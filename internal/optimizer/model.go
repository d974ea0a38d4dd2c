// Package optimizer is the workflow-level cost-based plan optimizer: it
// measures the hardware once (Calibrate), summarizes the input cheaply
// (Collect), and derives the physical configuration of a plan — dictionary
// kind per operator, fusion versus materialized edges, and the shard count
// of partitioned execution — that the paper argues must be chosen per
// workflow phase rather than hard-coded (Sections 3.3/3.4, Figures 1-4).
//
// The subsystem has three parts:
//
//   - calibration: two probes price the dictionary insert/lookup costs of
//     every kind at several cardinalities and the tokenizer's throughput,
//     and one traced serial recording of the TF/IDF→K-Means plan itself
//     (plus one on an in-process pipe worker) prices the plan-level terms
//     from its spans — ARFF write/read bandwidth, the executor's per-task
//     overhead, the K-Means iteration rate and the per-task ship cost. The
//     model is serialized as JSON and cached, keyed by GOMAXPROCS and a
//     model version, so a machine is measured once, not once per run;
//   - statistics: Stats summarizes the input (document count, byte volume,
//     estimated distinct-term cardinality) from a cheap sampling pre-pass
//     through pario.Sample, or exactly from an in-memory corpus;
//   - the optimization pass: Rule is a workflow.Rewriter — it composes
//     with FuseRule, SharedScanRule and PartitionRule — that estimates
//     per-node costs and rewrites the plan to the winning configuration,
//     annotating every decision so Plan.Explain shows what was chosen and
//     why.
//
// Decisions never change results: dictionary kind, fusion and shard count
// are all result-invariant in this engine (asserted by the determinism
// suites), so the optimizer is free to pick whichever is fastest.
package optimizer

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"hpa/internal/dict"
)

// ModelVersion identifies the cost-model schema and the calibration
// procedure. Cached models with a different version are recalibrated.
// v2 added KMeansAssignNS (the K-Means assignment kernel cost); v3 added
// RPCShipNS (the per-task ship cost of the RPC execution backend); v4–v6
// added rates and skip rates for bounded assignment kernels that v8
// dropped with the kernels they priced — K-Means is priced at
// KMeansAssignNS, which is what runs; v7 re-derived the TF/IDF terms for
// the term-ID kernels (shard-vocabulary lookups in phase 1, one remap
// lookup per vocabulary word in phase 2) — the probes are unchanged, the
// version moves so that a recorded prediction names the formula that made
// it; v9 measures RPCShipNS on the flat frame protocol that replaced
// net/rpc + gob, through the backend's own client; v10 drops the
// unpartitioned plan's estimate, so the shard count is chosen among
// sharded estimates only; v11 times a whole K-Means iteration,
// assignment plus the centroid update that gathers each centroid from its
// members, in KMeansAssignNS; v12 times the same passes with the update
// skipping every cluster whose member set did not change; v13 prices
// ShardTaskNS on a plan whose reduction takes the gathered shards in one
// task (2 × shards + 1 tasks, where the streaming reduction counted
// 3 × shards); v14 fits ARFFWriteBPS, ARFFReadBPS, ShardTaskNS,
// KMeansAssignNS and RPCShipNS to the spans of a traced serial run of the
// workflow plan, local and on a pipe worker, where each had a synthetic
// rehearsal of its own; v15 drops phase 2's dictionary term, the global
// lookup table the transform no longer builds or reads; v16 re-fits
// RPCShipNS to pipe-worker spans whose count replies carry no documents.
// Earlier caches self-invalidate and re-measure.
const ModelVersion = 16

// DictPoint is one calibrated operating point of a dictionary kind:
// amortized per-operation costs measured while growing a dictionary to
// Cardinality keys and looking all of them up.
type DictPoint struct {
	// Cardinality is the number of distinct keys at this point.
	Cardinality int `json:"cardinality"`
	// InsertNS is the amortized cost of one Ref/RefBytes insert-or-find
	// during growth to Cardinality, in nanoseconds.
	InsertNS float64 `json:"insert_ns"`
	// LookupNS is the cost of one Get hit at Cardinality, in nanoseconds.
	LookupNS float64 `json:"lookup_ns"`
}

// DictCost is the calibrated cost curve of one dictionary kind.
type DictCost struct {
	// Points holds operating points in ascending cardinality order.
	Points []DictPoint `json:"points"`
}

// interp evaluates the curve at cardinality n by log-linear interpolation
// between the bracketing points (clamped outside the calibrated range),
// selecting the insert or lookup column.
func (c DictCost) interp(n int, lookup bool) float64 {
	pts := c.Points
	if len(pts) == 0 {
		return 0
	}
	col := func(p DictPoint) float64 {
		if lookup {
			return p.LookupNS
		}
		return p.InsertNS
	}
	if n <= pts[0].Cardinality {
		return col(pts[0])
	}
	last := pts[len(pts)-1]
	if n >= last.Cardinality {
		return col(last)
	}
	for i := 1; i < len(pts); i++ {
		if n > pts[i].Cardinality {
			continue
		}
		lo, hi := pts[i-1], pts[i]
		// Interpolate on log(cardinality): tree costs grow with the log of
		// the key count, hash costs are near-flat, and both are linear in
		// this coordinate to good approximation.
		t := (math.Log(float64(n)) - math.Log(float64(lo.Cardinality))) /
			(math.Log(float64(hi.Cardinality)) - math.Log(float64(lo.Cardinality)))
		return col(lo) + t*(col(hi)-col(lo))
	}
	return col(last)
}

// CostModel is the serializable outcome of calibration: everything the
// optimization pass needs to price a plan on this machine.
type CostModel struct {
	// Version is the ModelVersion the model was calibrated under.
	Version int `json:"version"`
	// Procs is the GOMAXPROCS the model was calibrated under; models are
	// cached per processor count because task overhead and merge costs
	// depend on it.
	Procs int `json:"procs"`
	// Dicts maps dict.Kind labels (dict.Kind.String()) to cost curves.
	Dicts map[string]DictCost `json:"dicts"`
	// TokenizeNSPerByte is the tokenizer's cost per input byte.
	TokenizeNSPerByte float64 `json:"tokenize_ns_per_byte"`
	// ARFFWriteBPS and ARFFReadBPS are the sequential bandwidths of the
	// ARFF materialization boundary, in bytes per second: IOBytes / Dur of
	// the recorded plan's materialize-arff and load-arff spans.
	ARFFWriteBPS float64 `json:"arff_write_bps"`
	// ARFFReadBPS: see ARFFWriteBPS.
	ARFFReadBPS float64 `json:"arff_read_bps"`
	// ShardTaskNS is the executor-plus-pool overhead of one task (spawn,
	// dispatch, completion bookkeeping), in nanoseconds: the gap between
	// consecutive tasks of the recorded serial run, (last End − first
	// Start − Σ Dur) / (spans − 1).
	ShardTaskNS float64 `json:"shard_task_ns"`
	// KMeansAssignNS is the cost of one K-Means iteration — the
	// assignment kernel plus the centroid update — per (non-zero
	// component × cluster), the unit of the dominant distance-computation
	// inner loop, in nanoseconds: the recorded loop's loop-shard and
	// loop-end time over its iteration waves (those after the k − 1 seed
	// rounds), divided by iterations × non-zeros × k. The K-Means stage
	// estimate multiplies it by iterations × documents × mean non-zeros ×
	// k.
	KMeansAssignNS float64 `json:"kmeans_assign_ns"`
	// RPCShipNS is the per-task overhead of shipping one shard task to an
	// RPC worker and absorbing its reply — frame encode, round trip, reply
	// decode, the worker's kernel time excluded — in nanoseconds: the mean
	// Dur − WorkerRun of the worker spans of the plan recorded on a worker
	// served over an in-process pipe. A real network adds latency and
	// bandwidth on top; the shard-count decisions add it to ShardTaskNS
	// for every task when pricing a remote backend.
	RPCShipNS float64 `json:"rpc_ship_ns"`
}

// DictInsertNS returns the amortized per-insert cost of kind at the given
// dictionary cardinality, interpolated from the calibrated curve.
func (m *CostModel) DictInsertNS(kind dict.Kind, cardinality int) float64 {
	return m.Dicts[kind.String()].interp(cardinality, false)
}

// DictLookupNS returns the per-lookup cost of kind at the given
// cardinality.
func (m *CostModel) DictLookupNS(kind dict.Kind, cardinality int) float64 {
	return m.Dicts[kind.String()].interp(cardinality, true)
}

// CacheFile returns the path a model for the given processor count is
// cached at under dir: the file is keyed by GOMAXPROCS and ModelVersion,
// so machines (and models of different schema generations) never collide.
// Deleting the file forces the next LoadOrCalibrate to re-measure.
func CacheFile(dir string, procs int) string {
	return filepath.Join(dir, fmt.Sprintf("hpa-costmodel-v%d-p%d.json", ModelVersion, procs))
}

// Save serializes the model as JSON under dir (see CacheFile).
func (m *CostModel) Save(dir string) (string, error) {
	path := CacheFile(dir, m.Procs)
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return "", fmt.Errorf("optimizer: marshal cost model: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("optimizer: save cost model: %w", err)
	}
	return path, nil
}

// Load reads a cached model for the current GOMAXPROCS from dir. It fails
// (os.ErrNotExist) when no cache exists, and rejects models whose Version
// or Procs do not match — the caller should recalibrate then.
func Load(dir string) (*CostModel, error) {
	procs := runtime.GOMAXPROCS(0)
	data, err := os.ReadFile(CacheFile(dir, procs))
	if err != nil {
		return nil, err
	}
	var m CostModel
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("optimizer: parse cost model: %w", err)
	}
	if m.Version != ModelVersion || m.Procs != procs {
		return nil, fmt.Errorf("optimizer: cached cost model is v%d/p%d, want v%d/p%d",
			m.Version, m.Procs, ModelVersion, procs)
	}
	return &m, nil
}

// LoadOrCalibrate returns the cached model under dir, calibrating (and
// caching) a fresh one when the cache is absent, stale or unreadable. With
// opts.Force set, calibration always runs and overwrites the cache.
func LoadOrCalibrate(dir string, opts CalibrationOptions) (*CostModel, error) {
	if !opts.Force {
		if m, err := Load(dir); err == nil {
			return m, nil
		}
	}
	m, err := Calibrate(opts)
	if err != nil {
		return nil, err
	}
	if dir != "" {
		if _, err := m.Save(dir); err != nil {
			return nil, err
		}
	}
	return m, nil
}
