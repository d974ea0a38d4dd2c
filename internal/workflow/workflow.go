// Package workflow implements the paper's workflow optimizations on top of
// a typed DAG plan engine with partitioned streaming execution. Operators
// either communicate through files on disk (the "discrete" execution of
// Figure 3, with the intermediate TF/IDF scores materialized as ARFF) or
// are fused into a single image passing data in memory (the "merged"
// execution) — and datasets can flow through the plan as document
// partitions (shards) instead of monoliths, so per-document work stays
// embarrassingly parallel and the only serial points are reductions and
// output, the structure the paper's analysis assumes.
//
// A workflow is a Plan: a DAG of named nodes, each wrapping an Operator
// with declared input/output port types and the one run method its node
// class calls. Three layers sit on top of the graph:
//
//   - validation: Plan.Validate type-checks every edge and rejects cycles,
//     dangling ports, nodes lacking their class's run method, shard
//     kernels behind an unpartitioned producer and logical operators
//     PartitionRule cannot expand, before anything runs; partitioned
//     producers present their per-shard payload type to shard consumers
//     and *Partitions to everything else, so shards cannot leak into an
//     operator expecting the whole dataset;
//   - rewriting: Rewriter rules transform a validated plan — FuseRule
//     cancels materialize/load edges anywhere in the graph,
//     SharedScanRule deduplicates identical source scans, and
//     PartitionRule expands fusable operators (TFIDFOp, WordCountOp) into
//     per-shard map kernels around explicit reduce nodes, inserting a
//     PartitionOp that carves the corpus scan into contiguous
//     count-balanced shards, and expands KMeansOp into the iterative loop
//     stages kmeans.assign and kmeans.reduce;
//   - execution: Plan.Run schedules partition tasks — (node, shard)
//     pairs, not whole nodes — on the context's pool with a helping join.
//     A shard moves to the next map stage the moment its own data is
//     ready, so one shard can be several stages ahead of another;
//     a reduction receives all shards gathered in shard-index order
//     (DFReduceOp's parallel tree-merge of document frequencies, GatherOp's
//     assembly of the vector shards into the final result); iterative operators (IterativeOp — KMAssignOp hosts K-Means on this
//     contract) re-dispatch the same shard task set every iteration with
//     one barrier task per iteration; K-Means shards return only
//     per-document results, and the barrier recomputes each centroid from
//     its members in document order, so no float depends on how many
//     shards there were or how they were scheduled. The executor times
//     every task once; each node's wall-clock extent counts toward the
//     phase its operator declares (Phased), added to the Breakdown in
//     deterministic topological order.
//
// Every plan runs partitioned, so the TF/IDF→K-Means dataflow is
// shard-granular end-to-end, including the iterative phase:
//
//	scan -> partition -[xN]-> tf-map =[xN]=> df-reduce
//	                          tf-map -[xN]-> transform =[xN]=> gather
//	                          transform =[xN]=> km-assign ~[xS]~> km-reduce -> output
//
// The transform's vector shards (precomputed norms, shard-aligned) feed
// the assignment loop directly; the gather's assembled result joins at the
// reduce for document names and retained scores. The loop's shard count S
// is independent of the map shard count N — the plan optimizer prices and
// retunes it separately (its cost is iteration-count dependent).
//
// Partitioning never changes results: shard boundaries are a pure function
// of corpus size and shard count, document frequencies merge
// commutatively, term IDs are assigned in lexicographic order, shards
// are always identified by partition index rather than completion order,
// and the K-Means update folds every centroid and the inertia in document
// order — scores and the whole clustering, every centroid and inertia bit
// included, are bit-identical at any shard count (asserted by the
// determinism tests and a golden digest, for every dictionary kind and
// both empty-cluster policies).
//
// # Execution backends
//
// Where the executor's (node, shard) tasks physically run is pluggable
// (Backend, Context.Backend): LocalBackend — the default — executes every
// task in-process on the pool, and RPCBackend ships tasks that have a
// serializable descriptor to worker processes as length-prefixed flat
// frames (rpc.go; a worker is this engine's kernel registry served by
// ServeWorker; see cmd/hpa-workflow -worker). The scheduler never moves: dependency
// tracking, shard ordering and every reduction stay on the coordinator,
// and remote kernels run the same shard functions the local path runs
// (tfidf.CountShard, tfidf.TransformTerms, kmeans.AssignRange), so
// results are bit-identical across backends at any shard count.
//
// Remotable tasks are the TF/IDF count and transform shards — their
// corpus shards travel as pario.SourceSpec path descriptors and their
// per-document counts stay on the worker that made them, which replies
// with the shard's vocabulary, DF and names — and the K-Means
// assignment loop's per-iteration shard tasks, whose documents ship once
// into a worker-side session (pinned to one worker by backend affinity)
// and whose per-iteration traffic is the centroids out — as one sparse
// block per worker, not per shard — and moved counts, assignments and
// distances back. K-Means++ seeding scan rounds are the loop's first
// waves and ship through the same pinned sessions (documents ship once
// for seeding and iterations combined); the per-round seed draw stays on
// the coordinator. Splits, the DF tree-merge, the gather, the per-wave
// barrier and output always run on the
// coordinator; tasks whose inputs cannot be described (in-memory
// sources, disk-simulated sources, stopword-bearing options) quietly
// fall back to the local path, and a shard counted there is transformed
// there.
//
// # The wire
//
// Task payloads avoid redundant and slow serialization (kernels.go). The
// global term table never ships: the coordinator resolves each transform
// shard's vocabulary against it, and the task carries what the scoring
// loop reads — the local → global remap and the IDF of every local term.
// One body travels apart from the tasks that need it, as a keyed body
// (backend.go): a K-Means iteration's centroids, keyed by (loop,
// iteration) and new to every worker each iteration. The first task the
// backend sends a worker in the wave carries the block — the sparse rows
// the last update changed — ahead of itself, its siblings only name the
// key, and every shard session of the loop on that worker assigns against
// the one decoded copy, which lives only in the blocked kernel's lanes. A
// shard's term counts never leave the worker that counted them: count
// tasks park their output in the worker store under a per-run scope
// (count→transform affinity), and the paired transform task names its
// key. A worker that lacks anything a task names by key — counts, a loop
// session, a centroid block — misses, and the task is re-sent once with
// it all inlined, or, for counts, with the count's descriptor: the worker
// recounts the shard, a pure function of its files and options, and
// transforms it (lineage, not payload). The keys are dropped from the
// workers when the run ends with them. Everything on the wire — frames, kernel arguments,
// tfidf.VectorShard, centroid blocks, assignment replies — is a flat
// buffer (internal/flatwire): fixed layouts, sorted indices as varint
// deltas, every float as its raw IEEE 754 bits (one value form: a value
// coder saved a few percent of the bytes for a pass over each of them),
// every decoder validating structurally and failing with
// flatwire.ErrMalformed (BenchmarkWirePayloads prices the codecs). Each
// byte is handled once per side: encoders size a body before writing it,
// into a recycled buffer; frames are read into recycled buffers that go
// back once the kernel or Absorb that read them returns; decoders copy
// what they keep.
//
// Fusion is a graph rewrite: a plan containing an explicit materialize/load
// operator pair around an edge is rewritten by FuseRule into one without
// them. Running the original plan and the fused plan therefore measures
// exactly the cost the paper attributes to intermediate I/O — the operators
// on either side are the same code.
package workflow

import (
	"context"
	"errors"
	"reflect"

	"hpa/internal/metrics"
	"hpa/internal/obs"
	"hpa/internal/par"
	"hpa/internal/pario"
)

// Value is a dataset flowing along a plan edge. Concrete types used by the
// built-in operators: pario.Source (documents), *tfidf.Result, *Matrix
// (term-document score matrix), *ARFFRef (a materialized matrix on disk),
// *WordCounts and *Clustering.
type Value any

// Context carries the execution environment through a plan run.
type Context struct {
	// Pool supplies intra-node parallelism to every operator and schedules
	// independent plan branches.
	Pool *par.Pool
	// Disk models the storage device for inputs and intermediates; nil
	// means unthrottled.
	Disk *pario.DiskSim
	// Breakdown accumulates per-phase wall-clock time (Figure 3/4's
	// stacked bars). Never nil after NewContext. Plan.Run fills it from
	// its own task timings when the run ends; operators declare a phase
	// (Phased) and do not write it — the contexts they run against carry
	// none.
	Breakdown *metrics.Breakdown
	// Serial runs one task at a time, in dependency order: a traced serial
	// run on a one-worker pool measures every task's own run time, with no
	// other task overlapping it — what simsched.FromTrace replays on a
	// simulated node. Tasks still execute the same code on the same
	// backend.
	Serial bool
	// ScratchDir hosts intermediate files of discrete workflows.
	ScratchDir string
	// Observe, when non-nil, is called after each operator with its output
	// dataset — used for progress reporting and for capturing intermediate
	// measurements (e.g. dictionary footprints) without altering the plan.
	// Plan.Run serializes the calls on the scheduling goroutine.
	Observe func(op Operator, out Value)
	// Ctx, when non-nil, cancels the run cooperatively: nodes not yet
	// started are abandoned once the context is done, and
	// cancellation-aware operators (TF/IDF input) abort mid-phase.
	// Cancellation does not propagate into tasks already shipped to remote
	// workers; the run stops once their in-flight replies drain.
	Ctx context.Context
	// Backend selects where shard tasks execute: nil (or LocalBackend)
	// runs everything in-process on Pool; an RPCBackend ships serializable
	// shard tasks to worker processes. Results are bit-identical across
	// backends — scheduling, reductions and all merge ordering stay on the
	// coordinator.
	Backend Backend
	// Tracer, when non-nil, collects one obs.Span per scheduled task plus
	// wire and loop events (see internal/obs). A nil tracer is free: every
	// recording site is a single nil compare.
	Tracer *obs.Tracer
	// Span is the in-flight span of the task this context was minted for;
	// backends and kernels annotate it (worker lane, wire bytes, resends).
	// Nil outside task execution and on untraced runs.
	Span *obs.Span
}

// spanIO adds disk traffic to the running task's span; a no-op on
// untraced runs.
func (ctx *Context) spanIO(bytes int64, opens int) {
	if ctx.Span != nil {
		ctx.Span.IOBytes += bytes
		ctx.Span.IOOpens += opens
	}
}

// NewContext returns a context with an empty breakdown.
func NewContext(pool *par.Pool) *Context {
	return &Context{Pool: pool, Breakdown: metrics.NewBreakdown()}
}

// Operator is what every plan node has: a name and declared ports, which
// let Plan.Validate type-check a plan before anything runs. How a node runs
// is a separate contract, one per node class: Runner or MultiOperator for a
// scalar node (a reduction is one: it takes the gathered *Partitions),
// Splitter, PartitionKernel or IterativeOp for the shard classes. A logical operator (TFIDFOp, WordCountOp, KMeansOp)
// has none of them: it runs as the fragment PartitionRule expands it into.
type Operator interface {
	// Name identifies the operator in errors and plans.
	Name() string
	// Inputs returns one type per input port (empty for a source). A port
	// type may be an interface type, in which case any producer whose
	// output implements it connects.
	Inputs() []reflect.Type
	// Output returns the dataset type the operator produces.
	Output() reflect.Type
}

// Runner is the run contract of a scalar node with at most one input port:
// the executor calls Run once, with the gathered input (nil for a source).
type Runner interface {
	Operator
	Run(ctx *Context, in Value) (Value, error)
}

// MultiOperator is the run contract of a scalar node with more than one
// input port: the executor gathers the value of every port and calls RunAll
// once; ins[i] is the dataset delivered to port i.
type MultiOperator interface {
	Operator
	RunAll(ctx *Context, ins []Value) (Value, error)
}

// materializer is implemented by operators that write their input to disk
// for a later loader; loader by operators that read it back. FuseRule
// cancels materialize -> load edges.
type materializer interface{ isMaterializer() }
type loader interface{ isLoader() }

// ErrType reports a dataset type mismatch between workflow stages, whether
// detected by Plan.Validate at build time or by an operator at run time.
var ErrType = errors.New("workflow: dataset type mismatch")
