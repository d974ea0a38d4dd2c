// Package hpa is a high-performance analytics library for single-node
// (intra-node) parallel data analytics, reproducing the system described in
// Vandierendonck et al., "Operator and Workflow Optimization for
// High-Performance Analytics" (MEDAL/EDBT 2016).
//
// The library provides:
//
//   - analytics operators: TF/IDF text vectorization, word counting and
//     K-Means clustering, parallelized over a Cilk-style work-stealing pool;
//   - a typed DAG plan engine (validate -> rewrite -> execute): workflows
//     are graphs of named operator nodes with declared port types, checked
//     by Validate before anything runs, transformed by rewrite rules —
//     fusion cancels materialize/load edges so operators pass data in
//     memory instead of through ARFF files, shared-scan dedup merges
//     identical corpus scans, partitioning expands operators into
//     per-shard kernels and K-Means into an iterative shard loop (the
//     same shard task set re-dispatched every iteration behind a
//     deterministic reduction barrier) — and executed with independent
//     branches and shards running concurrently on the pool;
//   - a cost-based plan optimizer: LoadOrCalibrateCostModel measures the
//     machine once (dictionary insert/lookup costs and tokenizer
//     throughput from probes; ARFF bandwidth, per-task overhead, the
//     K-Means iteration rate and the ship cost from a traced run of the
//     workflow plan; cached as JSON keyed by GOMAXPROCS), CollectCorpusStats
//     samples the input (including a pilot clustering that estimates the
//     K-Means iteration count), and Optimize rewrites a plan to the winning
//     physical configuration — dictionary kind per operator, fusion vs.
//     materialization, map shard count, and the K-Means loop shard count
//     (priced by iterations × assignment work, independently of the map
//     shards) — annotating every decision so Plan.Explain shows what was
//     chosen and why;
//   - pluggable execution backends behind a serializable worker contract:
//     shard tasks run in-process by default (LocalBackend) or ship to
//     worker processes as length-prefixed flat frames (RPCBackend + the
//     hpa-workflow -worker mode) — TF/IDF count and transform shards and the K-Means
//     assignment loop's per-iteration shard tasks and the K-Means++
//     seeding scan rounds can leave the process, while splits,
//     reductions, seed draws and output stay on the coordinator, whose
//     shard-index-ordered merges keep results bit-identical across
//     backends;
//   - selectable dictionary data structures (red-black tree vs hash
//     table) whose trade-offs differ per workflow phase;
//   - parallel file input with an optional storage-device simulator;
//   - synthetic corpus generation calibrated to the paper's datasets;
//   - a virtual-time scheduler simulator for thread-scaling experiments
//     on machines with fewer cores than the sweep.
//
// # Quick start
//
// The paper's TF/IDF→K-Means workflow in one call:
//
//	pool := hpa.NewPool(8)
//	defer pool.Close()
//	corpus := hpa.GenerateCorpus(hpa.MixSpec().Scaled(0.05), pool)
//	ctx := hpa.NewWorkflowContext(pool)
//	ctx.ScratchDir = os.TempDir()
//	report, err := hpa.RunTFIDFKMeans(corpus.Source(nil), ctx, hpa.TFKMConfig{
//	    Mode:   hpa.Merged,
//	    TFIDF:  hpa.TFIDFOptions{DictKind: hpa.TreeDict, Normalize: true},
//	    KMeans: hpa.KMeansOptions{K: 8},
//	})
//
// # Branching plans
//
// Plans express workflows as DAGs: one corpus scan feeding several
// operators, results fanning out to multiple sinks. Build the graph,
// validate, optionally rewrite, run:
//
//	plan := hpa.NewPlan().
//	    Add("scan", &hpa.SourceOp{Src: corpus.Source(nil)}).
//	    Add("wordcount", &hpa.WordCountOp{DictKind: hpa.TreeDict}).
//	    Add("tfidf", &hpa.TFIDFOp{Opts: hpa.TFIDFOptions{DictKind: hpa.TreeDict, Normalize: true}}).
//	    Add("kmeans", &hpa.KMeansOp{Opts: hpa.KMeansOptions{K: 8}}).
//	    Add("archive", &hpa.MaterializeARFF{}).
//	    Connect("scan", "wordcount").
//	    Connect("scan", "tfidf").
//	    Connect("tfidf", "kmeans").
//	    Connect("tfidf", "archive")
//	if err := plan.Validate(); err != nil { ... } // typed edges, no cycles
//	outs, err := plan.Run(ctx)                    // branches run concurrently
//
// The word-count and K-Means branches execute concurrently on the pool, and
// outs holds one dataset per sink node. Apply rewrite rules with
// plan.Apply(hpa.FuseRule(), hpa.SharedScanRule()). The operators above
// are logical: every plan runs partitioned, and Run expands any operator
// not yet partitioned at the auto shard count. There is one physical
// shape, and the shard count is its only knob — TFKMConfig.Shards, 0 =
// auto, N pins N.
//
// # Cost-based optimization
//
// Instead of hard-coding the dictionary kind, the fusion decision and the
// shard count in TFKMConfig, let the optimizer derive them from a
// calibrated cost model and input statistics, starting from the logical
// plan:
//
//	model, _ := hpa.LoadOrCalibrateCostModel(cacheDir, hpa.CalibrationOptions{})
//	stats, _ := hpa.CollectCorpusStats(corpus, 0)
//	plan := hpa.Optimize(hpa.NewLogicalTFKMPlan(src, cfg), stats, model)
//	fmt.Println(plan.Explain()) // decisions and estimates as "#" lines
//
// The model is cached under cacheDir as JSON, keyed by GOMAXPROCS and a
// model version (delete the hpa-costmodel-*.json file, or set
// CalibrationOptions.Force, to re-measure). Optimize overrides the
// dictionary kind and fusion decision the plan was built with, and picks
// the shard counts of a logical plan (a plan already partitioned keeps
// its count). Optimized plans produce bit-identical results to unoptimized ones
// — every decision is result-invariant. Individual decisions can be pinned
// against the model (cmd/hpa-workflow -optimize with an explicit -shards,
// -dict or -mode); Explain marks them "pinned by explicit override".
//
// # Serving
//
// Beyond batch runs, the library serves resident analytics: one long-lived
// process holds the execution environment, publishes workflow outputs as
// named, versioned in-memory indexes, and answers top-k similarity queries
// against them without re-reading the corpus. The pieces:
//
//   - WorkflowEnv splits the resident half of a workflow context (pool,
//     storage model, scratch space, backend) from per-run state; NewRun
//     mints a private context per request so concurrent runs never share
//     mutable state.
//   - NewQueryVocab freezes a TF/IDF result's term table and IDF weights
//     into an immutable query-side vocabulary whose vectorizer turns query
//     text into a vector bit-identical to what the corpus run would have
//     produced for the same text.
//   - The server's registry stores named, versioned index artifacts with
//     atomic publish and lock-free reads: queries in flight keep the
//     version they loaded while a new one swaps in.
//   - NewServer wires these behind HTTP (see cmd/hpa-serve): plan
//     submission with bounded, per-tenant fair admission (shed with 429 +
//     Retry-After past budget) and a hot top-k query path whose answers
//     are bit-identical to the batch simsearch path.
//
// # Observability
//
// A run can be traced at task granularity: attach NewTracer() to
// WorkflowContext.Tracer (or WorkflowEnv.Tracer, so every run of a
// resident service is traced) and each scheduled task records a span —
// node, operator, task kind, shard, loop iteration, backend, worker lane,
// queue wait and run time, wire bytes and resends — alongside wire events
// (miss resends, affinity-session hits) and K-Means loop events
// (per-iteration moved counts and inertia). A nil tracer costs one
// pointer compare per recording site, well under 1% on the iterative
// benchmark, so the field can stay wired in production code.
//
// Tracer.Snapshot freezes a run's spans; WriteChromeTrace exports them as
// Chrome trace-event JSON loadable in Perfetto (ui.perfetto.dev), with the
// coordinator and every RPC worker on separate lanes. The CLIs add a
// per-node text summary and a plan autopsy — a plan's Explain text, one
// measurement line per traced node ("# autopsy tfidf.map: 96ms wall, 8
// tasks"), and the optimizer's predicted time per phase against the
// measured one ("#   input+wc:  120ms / 96ms (0.80×)"):
// hpa-workflow -trace out.json writes the JSON and prints both, and
// hpa-serve exports service counters and latency histograms at GET
// /metrics in Prometheus text form.
//
// The subpackages under internal/ implement the pieces; this package is the
// supported surface.
package hpa

import (
	"io"

	"hpa/internal/corpus"
	"hpa/internal/dict"
	"hpa/internal/kmeans"
	"hpa/internal/metrics"
	"hpa/internal/obs"
	"hpa/internal/optimizer"
	"hpa/internal/par"
	"hpa/internal/pario"
	"hpa/internal/serve"
	"hpa/internal/simsearch"
	"hpa/internal/sparse"
	"hpa/internal/text"
	"hpa/internal/tfidf"
	"hpa/internal/workflow"
)

// Pool is a fixed-size work-stealing worker pool providing intra-node
// parallelism to all operators. See NewPool.
type Pool = par.Pool

// NewPool creates a pool with n workers. Close it when done.
func NewPool(n int) *Pool { return par.NewPool(n) }

// DefaultPool returns a process-wide pool sized to the host's CPUs.
func DefaultPool() *Pool { return par.Default() }

// Vector is a sparse numeric vector (sorted indices, non-zero values).
type Vector = sparse.Vector

// Corpus is an in-memory document collection.
type Corpus = corpus.Corpus

// CorpusSpec describes a synthetic corpus to generate.
type CorpusSpec = corpus.Spec

// MixSpec returns the paper's "Mix" dataset specification (23,432
// documents, 62.8 MB, 184,743 distinct words).
func MixSpec() CorpusSpec { return corpus.Mix() }

// NSFAbstractsSpec returns the paper's "NSF Abstracts" dataset
// specification (101,483 documents, 310.9 MB, 267,914 distinct words).
func NSFAbstractsSpec() CorpusSpec { return corpus.NSFAbstracts() }

// GenerateCorpus synthesizes a corpus matching the spec; pass a pool for
// parallel generation or nil for sequential.
func GenerateCorpus(spec CorpusSpec, pool *Pool) *Corpus {
	return corpus.Generate(spec, pool)
}

// LoadCorpusDir loads a corpus previously written with Corpus.WriteDir.
func LoadCorpusDir(dir string, parallelism int) (*Corpus, error) {
	return corpus.LoadDir(dir, parallelism)
}

// OpenCorpusDir opens a corpus directory (written by Corpus.WriteDir, or
// any tree of .txt files) as a FileSource scanning the files in
// deterministic sorted order, without loading them into memory. Unlike
// the in-memory Corpus source, a FileSource shard has an on-disk identity,
// so its tasks can ship to RPC workers.
func OpenCorpusDir(dir string, disk *DiskSim) (*FileSource, error) {
	return corpus.OpenDir(dir, disk)
}

// Source yields named documents to the TF/IDF operator.
type Source = pario.Source

// FileSource reads documents from filesystem paths.
type FileSource = pario.FileSource

// MemSource serves documents from memory.
type MemSource = pario.MemSource

// DiskSim models a storage device (throughput cap + per-open latency).
type DiskSim = pario.DiskSim

// HDD2016 returns a disk model matching the paper's testbed class.
func HDD2016() *DiskSim { return pario.HDD2016() }

// DictKind selects a dictionary implementation for TF/IDF.
type DictKind = dict.Kind

// Dictionary kinds. HashDict, the chained hash table analogous to the
// paper's std::unordered_map, is the zero value and so the library default
// (it is what the calibrated cost model picks for the paper workflow).
// TreeDict is a red-black tree over an arena (ordered, compact).
const (
	HashDict = dict.Hash
	TreeDict = dict.Tree
)

// TFIDFOptions configures the TF/IDF operator.
type TFIDFOptions = tfidf.Options

// TFIDFResult is the TF/IDF operator output.
type TFIDFResult = tfidf.Result

// TFIDF runs the TF/IDF operator over a document source.
func TFIDF(src Source, pool *Pool, opts TFIDFOptions) (*TFIDFResult, error) {
	return tfidf.Run(src, pool, opts, nil)
}

// TFIDFInto is TFIDF with phase times accumulated into bd (the "input+wc"
// and "transform" phases of the paper's figures).
func TFIDFInto(src Source, pool *Pool, opts TFIDFOptions, bd *Breakdown) (*TFIDFResult, error) {
	return tfidf.Run(src, pool, opts, bd)
}

// NewBreakdown returns an empty per-phase time accumulator.
func NewBreakdown() *Breakdown { return metrics.NewBreakdown() }

// KMeansOptions configures the K-Means operator.
type KMeansOptions = kmeans.Options

// KMeansResult is the K-Means operator output.
type KMeansResult = kmeans.Result

// KMeans clusters sparse vectors of the given dimensionality into
// opts.K clusters.
func KMeans(docs []Vector, dim int, pool *Pool, opts KMeansOptions) (*KMeansResult, error) {
	return kmeans.Run(docs, dim, pool, opts, nil)
}

// SimpleKMeans is the WEKA-analogue dense, single-threaded baseline.
type SimpleKMeans = kmeans.SimpleKMeans

// Breakdown accumulates per-phase wall-clock times.
type Breakdown = metrics.Breakdown

// Workflow engine surface.
type (
	// WorkflowContext carries pool, device model, metrics and scratch
	// space through a plan run.
	WorkflowContext = workflow.Context
	// Plan is a typed DAG of named operator nodes: validate with
	// Plan.Validate, transform with Plan.Apply, execute with Plan.Run.
	Plan = workflow.Plan
	// Rewriter is a declarative plan-to-plan transformation rule.
	Rewriter = workflow.Rewriter
	// Backend decides where the executor's shard tasks run: in-process
	// (LocalBackend, the default) or shipped to worker processes
	// (RPCBackend). Results are bit-identical across backends.
	Backend = workflow.Backend
	// LocalBackend runs every task in-process on the pool — the zero-copy
	// default.
	LocalBackend = workflow.LocalBackend
	// RPCBackend ships serializable shard tasks to worker processes as
	// length-prefixed flat frames; non-serializable tasks (reductions,
	// seeding, splits) stay on the coordinator.
	RPCBackend = workflow.RPCBackend
	// TFKMConfig configures the TF/IDF→K-Means workflow.
	TFKMConfig = workflow.TFKMConfig
	// TFKMReport is the workflow outcome with its phase breakdown.
	TFKMReport = workflow.TFKMReport
	// WorkflowMode selects discrete or merged execution.
	WorkflowMode = workflow.Mode
	// Clustering pairs K-Means output with document names.
	Clustering = workflow.Clustering
)

// Workflow modes (Figure 3's two variants).
const (
	Discrete = workflow.Discrete
	Merged   = workflow.Merged
)

// Built-in operators, for assembling custom plans with NewPlan.
type (
	// SourceOp injects a document source into a plan as a scan node.
	SourceOp = workflow.SourceOp
	// TFIDFOp vectorizes a document source.
	TFIDFOp = workflow.TFIDFOp
	// KMeansOp clusters a matrix or TF/IDF result.
	KMeansOp = workflow.KMeansOp
	// MaterializeARFF writes the intermediate matrix to disk.
	MaterializeARFF = workflow.MaterializeARFF
	// LoadARFF reads a materialized matrix back.
	LoadARFF = workflow.LoadARFF
	// WriteAssignments writes the final cluster assignments.
	WriteAssignments = workflow.WriteAssignments
	// WordCountOp computes corpus-wide word frequencies.
	WordCountOp = workflow.WordCountOp
	// WordCounts is WordCountOp's output.
	WordCounts = workflow.WordCounts
	// WriteWordCounts writes word frequencies as TSV.
	WriteWordCounts = workflow.WriteWordCounts
	// KMAssignOp is the iterative K-Means assignment loop (per-shard
	// assignment tasks, then a per-iteration centroid update that gathers
	// each centroid from its members).
	KMAssignOp = workflow.KMAssignOp
)

// NewPlan returns an empty plan; chain Add and Connect to build the DAG.
func NewPlan() *Plan { return workflow.NewPlan() }

// FuseRule returns the fusion rewriter: materialize -> load edges anywhere
// in the plan are canceled so the intermediate dataset stays in memory —
// the paper's workflow-fusion optimization as a graph rewrite rule.
func FuseRule() Rewriter { return workflow.FuseRule() }

// SharedScanRule returns the scan-deduplication rewriter: several scans of
// the same Source collapse into one node so the corpus is read once.
func SharedScanRule() Rewriter { return workflow.SharedScanRule() }

// Stopwords returns the built-in English stopword set for TFIDFOptions.
func Stopwords() *text.StopwordSet { return text.English() }

// NewWorkflowContext returns a context with an empty breakdown.
func NewWorkflowContext(pool *Pool) *WorkflowContext { return workflow.NewContext(pool) }

// NewRPCBackend dials worker processes (see ServeWorkerOn /
// cmd/hpa-workflow -worker) at the given TCP addresses and returns the
// execution backend shipping shard tasks to them. Plans run with the
// backend (WorkflowContext.Backend) produce bit-identical results to local
// execution.
func NewRPCBackend(addrs []string) (*RPCBackend, error) { return workflow.NewRPCBackend(addrs) }

// ServeWorkerOn runs a task worker on the given TCP address, serving the
// built-in kernel registry until the process exits — the library form of
// `hpa-workflow -worker addr`. ready, when non-nil, receives the bound
// address (useful with ":0").
func ServeWorkerOn(addr string, ready chan<- string) error {
	return workflow.ListenAndServeWorker(addr, ready)
}

// AnnotateBackend attaches execution-placement annotations to the plan
// for Plan.Explain: which nodes' shard tasks may ship to b's workers and
// what stays on the coordinator.
func AnnotateBackend(p *Plan, b Backend) *Plan { return workflow.AnnotateBackend(p, b) }

// RunTFIDFKMeans executes the paper's TF/IDF→K-Means workflow.
func RunTFIDFKMeans(src Source, ctx *WorkflowContext, cfg TFKMConfig) (*TFKMReport, error) {
	return workflow.RunTFKM(src, ctx, cfg)
}

// NewTFKMPlan constructs the TF/IDF→K-Means workflow over src as a
// physical Plan partitioned at cfg.Shards (0 = auto, N pins N shards);
// Merged mode fuses the discrete plan's ARFF hand-off first.
func NewTFKMPlan(src Source, cfg TFKMConfig) *Plan { return workflow.TFKMPlan(src, cfg) }

// NewLogicalTFKMPlan constructs the workflow as a logical Plan, one node
// per operator and no shard decision yet — the input Optimize expects.
func NewLogicalTFKMPlan(src Source, cfg TFKMConfig) *Plan {
	return workflow.LogicalTFKMPlan(src, cfg)
}

// Cost-based plan optimization surface.
type (
	// CostModel is the serialized outcome of calibration: per-kind
	// dictionary cost curves and tokenizer throughput from probes, and
	// ARFF bandwidth, task overhead, K-Means rate and ship cost fitted to
	// a traced run of the workflow plan.
	CostModel = optimizer.CostModel
	// CalibrationOptions bounds the dictionary and tokenizer probes; the
	// plan recordings run at a fixed scale.
	CalibrationOptions = optimizer.CalibrationOptions
	// WorkflowStats summarizes a workflow input for the optimizer (doc
	// count, bytes, estimated distinct-term cardinality).
	WorkflowStats = optimizer.Stats
)

// LoadOrCalibrateCostModel returns the model cached under dir (keyed by
// GOMAXPROCS and the model version), calibrating and caching a fresh one
// when the cache is absent or stale. Delete the cache file or set
// opts.Force to force re-measurement.
func LoadOrCalibrateCostModel(dir string, opts CalibrationOptions) (*CostModel, error) {
	return optimizer.LoadOrCalibrate(dir, opts)
}

// QuickCalibration returns coarse calibration options (~200 ms, most of it
// the plan recordings) for tests and interactive use.
func QuickCalibration() CalibrationOptions { return optimizer.Quick() }

// CollectCorpusStats summarizes an in-memory corpus: exact document and
// byte counts, sampled token statistics.
func CollectCorpusStats(c *Corpus, sampleDocs int) (*WorkflowStats, error) {
	return optimizer.FromCorpus(c, sampleDocs)
}

// Optimize rewrites plan to the physical configuration the cost model
// predicts is fastest for the given input — dictionary kind per operator,
// fusion vs. materialization, shard count — annotating every decision for
// Plan.Explain. Results are bit-identical to the unoptimized plan. The
// input plan is not mutated.
func Optimize(plan *Plan, st *WorkflowStats, m *CostModel) *Plan {
	return optimizer.Optimize(plan, st, m)
}

// CalibrationCorpusSpec returns the fixed small corpus specification the
// optimizer's benchmarks and acceptance comparisons run on.
func CalibrationCorpusSpec() CorpusSpec { return corpus.Calibration() }

// RunTFKMPlan executes an already-built (for example optimized) TF/IDF→
// K-Means plan, producing the same report as RunTFIDFKMeans.
func RunTFKMPlan(plan *Plan, ctx *WorkflowContext) (*TFKMReport, error) {
	return workflow.RunTFKMPlan(plan, ctx)
}

// Similarity search (cosine top-k retrieval over TF/IDF vectors).
type (
	// SearchIndex is an inverted index over a vector collection.
	SearchIndex = simsearch.Index
	// Searcher runs allocation-free top-k queries against a SearchIndex.
	Searcher = simsearch.Searcher
	// Match is one search result (document index + cosine score).
	Match = simsearch.Match
)

// BuildSearchIndex constructs an inverted index over document vectors of
// the given dimensionality; pass a pool for parallel construction. Weights
// must be finite and non-negative — the bounds that let top-k queries
// skip postings hold only for those — and an error names the first
// document and term that break this. TF/IDF never does: a weight is
// tf × (log N − log DF), and zeros are dropped.
func BuildSearchIndex(vectors []Vector, dim int, pool *Pool) (*SearchIndex, error) {
	return simsearch.Build(vectors, dim, pool)
}

// NewSearcher creates a query context over the index (one per goroutine).
func NewSearcher(ix *SearchIndex) *Searcher { return simsearch.NewSearcher(ix) }

// BruteForceTopK is the O(n·nnz) reference scan, for verification and
// small collections.
func BruteForceTopK(vectors []Vector, query *Vector, k int) []Match {
	return simsearch.BruteForceTopK(vectors, query, k)
}

// Serving surface (see the Serving section of the package doc and
// cmd/hpa-serve).
type (
	// QueryVocab is an immutable query-side vocabulary frozen from a
	// TF/IDF result: term IDs, document frequencies and the tokenizer
	// configuration, everything needed to vectorize query text exactly as
	// the corpus run did.
	QueryVocab = tfidf.QueryVocab
	// WorkflowEnv is the resident half of a workflow context: pool, disk
	// model, scratch space and backend, shared across runs. NewRun mints
	// the per-run WorkflowContext.
	WorkflowEnv = workflow.Env
	// ServeConfig configures an analytics Server.
	ServeConfig = serve.Config
	// Server is the resident multi-tenant analytics service; mount
	// Server.Handler on any http.Server.
	Server = serve.Server
	// ServePlanRequest / ServePlanResponse are the wire forms of plan
	// submission; ServeQueryRequest / ServeQueryResponse of the top-k
	// query path.
	ServePlanRequest   = serve.PlanRequest
	ServePlanResponse  = serve.PlanResponse
	ServeQueryRequest  = serve.QueryRequest
	ServeQueryResponse = serve.QueryResponse
	// ServeIndexInfo describes one registry entry on the wire.
	ServeIndexInfo = serve.IndexInfo
)

// NewQueryVocab freezes a TF/IDF result into an immutable query-side
// vocabulary. opts must be the options the result was produced with (the
// tokenizer configuration is replicated; the dictionary kind is irrelevant
// at query time).
func NewQueryVocab(r *TFIDFResult, opts TFIDFOptions) (*QueryVocab, error) {
	return tfidf.NewQueryVocab(r, opts)
}

// NewWorkflowEnv returns a resident execution environment over the pool;
// set Disk, ScratchDir and Backend as needed, then mint per-run contexts
// with Env.NewRun.
func NewWorkflowEnv(pool *Pool) *WorkflowEnv { return workflow.NewEnv(pool) }

// NewServer wires a resident analytics service from the config; serve its
// Handler with net/http. See cmd/hpa-serve for the curl walkthrough.
func NewServer(cfg ServeConfig) (*Server, error) { return serve.New(cfg) }

// Observability surface (see the Observability section of the package doc).
type (
	// Tracer collects one span per scheduled task plus wire and loop
	// events. Attach to WorkflowContext.Tracer (one run) or
	// WorkflowEnv.Tracer (every run of a resident service); a nil tracer
	// is free.
	Tracer = obs.Tracer
	// TraceSnapshot is an immutable snapshot of a tracer's spans and
	// events, taken with Tracer.Snapshot.
	TraceSnapshot = obs.Trace
)

// NewTracer returns an empty tracer whose epoch is now.
func NewTracer() *Tracer { return obs.NewTracer() }

// WriteChromeTrace writes a trace snapshot as Chrome trace-event JSON,
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing: the
// coordinator and every RPC worker get their own process lanes.
func WriteChromeTrace(w io.Writer, tr *TraceSnapshot) error {
	return obs.WriteChromeTrace(w, tr)
}
