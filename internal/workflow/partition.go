package workflow

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"hpa/internal/pario"
	"hpa/internal/tfidf"
)

// This file defines the partitioned dataset contract and the sharded
// operators of the streaming executor. A dataset may flow through a plan as
// document partitions (shards) instead of as one monolith: a Splitter node
// fixes the shard count, PartitionKernel nodes map over shards
// independently, and reductions either gather every shard at once (a plain
// operator taking *Partitions) or absorb shards in completion order
// (StreamReducer). The executor (exec.go) schedules one task per (node,
// partition), so a shard can be several stages ahead of its siblings; the
// only barriers are the reductions the dataflow genuinely requires — in
// TF/IDF, the global document-frequency merge.
//
// Determinism contract: partition payloads are always identified by their
// partition index, never by completion order. Ranges are carved by
// pario.PartitionRange (a pure function of length and shard count), merges
// are index-ordered or commutative, and gathered values present shards in
// index order — so results are bit-identical across shard counts and
// worker counts, which the partition determinism tests assert.

// Partitioned is the dataset contract for sharded values: a fixed number
// of per-partition payloads with a deterministic index order.
type Partitioned interface {
	// NumPartitions returns the shard count.
	NumPartitions() int
	// Partition returns the payload of shard i.
	Partition(i int) Value
}

// Partitions is the gathered (materialized) form of a partitioned dataset:
// every shard payload in partition-index order. The executor delivers it to
// operators that consume a partitioned input whole, regardless of the order
// in which shards completed.
type Partitions struct {
	// Parts holds one payload per shard, indexed by partition.
	Parts []Value
}

// NumPartitions implements Partitioned.
func (p *Partitions) NumPartitions() int { return len(p.Parts) }

// Partition implements Partitioned.
func (p *Partitions) Partition(i int) Value { return p.Parts[i] }

// Splitter is implemented by operators that shard their input: the node's
// output becomes partitioned with a static shard count, and the executor
// runs Split once per shard instead of calling Run.
type Splitter interface {
	Operator
	// PartitionCount returns the shard count; it must be stable across
	// calls and at least 1.
	PartitionCount() int
	// Split produces the payload of partition idx (of total) from the
	// node's gathered input values. It must be safe for concurrent calls
	// with distinct idx.
	Split(ctx *Context, ins []Value, idx, total int) (Value, error)
}

// PartitionKernel is implemented by map operators: when the producer of
// input port 0 is partitioned, the executor runs RunPartition once per
// shard — ins[0] is that shard's payload, ins[1:] are the gathered values
// of the remaining ports — and the node's output is partitioned too. Fed a
// scalar port 0, the node falls back to Run/RunAll like any other
// operator.
type PartitionKernel interface {
	Operator
	// RunPartition transforms one shard. It must be safe for concurrent
	// calls with distinct idx.
	RunPartition(ctx *Context, ins []Value, idx, total int) (Value, error)
}

// StreamReducer is implemented by reduction operators that consume the
// shards of their port-0 input in completion order, as they arrive, instead
// of waiting for the gathered dataset: BeginReduce once the scalar ports
// are available, AbsorbPartition per shard, FinishReduce after the last.
// Implementations must be order-insensitive (shards carry their partition
// index) so the node's output stays deterministic.
type StreamReducer interface {
	Operator
	// BeginReduce allocates the reduction state. ins holds the gathered
	// values of ports 1..n-1 (ins[0] is nil); total is the shard count.
	BeginReduce(ctx *Context, total int, ins []Value) (any, error)
	// AbsorbPartition integrates the payload of partition idx. Calls are
	// serialized by the executor.
	AbsorbPartition(ctx *Context, state any, part Value, idx int) error
	// FinishReduce produces the node output after every shard is absorbed.
	FinishReduce(ctx *Context, state any) (Value, error)
}

// Reflected types of the partitioned dataset contracts.
var (
	partitionsType  = reflect.TypeOf((*Partitions)(nil))
	shardCountsType = reflect.TypeOf((*tfidf.ShardCounts)(nil))
	globalType      = reflect.TypeOf((*tfidf.Global)(nil))
	vectorShardType = reflect.TypeOf((*tfidf.VectorShard)(nil))
	wcShardType     = reflect.TypeOf((*WCShard)(nil))
)

// nodeClass is the executor's scheduling classification of a node.
type nodeClass int

const (
	// classScalar runs as one task once all (gathered) inputs are ready.
	classScalar nodeClass = iota
	// classSplit runs one Split task per shard once its inputs are ready.
	classSplit
	// classMap runs one RunPartition task per shard, each as soon as its
	// shard of the port-0 input and all other ports are ready.
	classMap
	// classStream absorbs port-0 shards in completion order and finishes
	// with one task.
	classStream
	// classLoop runs an IterativeOp: a begin task, then per iteration one
	// task per loop shard plus a reduction-barrier task, repeated until the
	// loop reports done, then a finish task. Output is scalar.
	classLoop
)

// pinfo is the partition classification of one node.
type pinfo struct {
	class nodeClass
	// nparts is the shard count of the node's output (1 for scalar and
	// stream-reduce nodes). For a loop node it is the internal loop shard
	// count — the output itself is scalar.
	nparts int
}

// partitioned reports whether the node's output flows as shards.
func (pi pinfo) partitioned() bool { return pi.class == classSplit || pi.class == classMap }

// partitionInfo classifies every node. It requires an acyclic plan (nodes
// are resolved in topological order so a map node can inherit its
// producer's shard count).
func (p *Plan) partitionInfo(order []*Node) map[string]pinfo {
	info := make(map[string]pinfo, len(order))
	for _, n := range order {
		pi := pinfo{class: classScalar, nparts: 1}
		if it, ok := n.op.(IterativeOp); ok {
			pi.class = classLoop
			pi.nparts = it.LoopShards()
			if pi.nparts < 1 {
				pi.nparts = 1
			}
		} else if s, ok := n.op.(Splitter); ok {
			pi.class = classSplit
			pi.nparts = s.PartitionCount()
			if pi.nparts < 1 {
				pi.nparts = 1
			}
		} else if e, ok := p.producerOf(n.name, 0); ok {
			prod := info[e.From]
			if prod.partitioned() {
				if _, ok := n.op.(PartitionKernel); ok {
					pi.class = classMap
					pi.nparts = prod.nparts
				} else if _, ok := n.op.(StreamReducer); ok {
					pi.class = classStream
				}
			}
		}
		info[n.name] = pi
	}
	return info
}

// consumesPerPart reports whether edge e delivers individual shards to its
// consumer (rather than a gathered value), given the classification.
func consumesPerPart(info map[string]pinfo, p *Plan, e Edge) bool {
	if !info[e.From].partitioned() || e.Port != 0 {
		return false
	}
	c := info[e.To].class
	return c == classMap || c == classStream
}

// PartitionOp shards a document source: the scan's Source is split into
// contiguous SubSource ranges carved by pario.PartitionRange, turning every
// downstream PartitionKernel into a per-shard map.
type PartitionOp struct {
	// Shards is the partition count; 0 selects an automatic count derived
	// from runtime.GOMAXPROCS(0) — twice the processor count, so shards
	// over-decompose and work stealing can rebalance a straggler shard
	// (document sizes are heavy-tailed; with exactly one shard per worker
	// the slowest shard gates every reduction). Resolved once, so the
	// count is stable for the plan's lifetime.
	Shards int

	once     sync.Once
	resolved int
}

// Name implements Operator.
func (o *PartitionOp) Name() string { return "partition" }

// Inputs implements TypedOperator.
func (o *PartitionOp) Inputs() []reflect.Type { return []reflect.Type{sourceType} }

// Output implements TypedOperator: the per-partition payload is itself a
// document source.
func (o *PartitionOp) Output() reflect.Type { return sourceType }

// PartitionCount implements Splitter.
func (o *PartitionOp) PartitionCount() int {
	o.once.Do(func() {
		o.resolved = o.Shards
		if o.resolved <= 0 {
			if p := runtime.GOMAXPROCS(0); p > 1 {
				o.resolved = 2 * p
			} else {
				o.resolved = 1
			}
		}
	})
	return o.resolved
}

// Split implements Splitter: shard idx is the [idx*n/total, (idx+1)*n/total)
// range of the input source.
func (o *PartitionOp) Split(ctx *Context, ins []Value, idx, total int) (Value, error) {
	src, ok := ins[0].(pario.Source)
	if !ok {
		return nil, fmt.Errorf("%w: partition wants pario.Source, got %T", ErrType, ins[0])
	}
	return pario.Partition(src, total, idx), nil
}

// Run implements Operator. A PartitionOp node is always scheduled through
// Split; Run exists only to satisfy the interface and passes the source
// through unchanged (a 1-shard identity).
func (o *PartitionOp) Run(ctx *Context, in Value) (Value, error) { return in, nil }

// shardReaders divides the pool's workers among concurrently running
// shards: the per-shard read parallelism that keeps total concurrency at
// the pool size.
func shardReaders(ctx *Context, total int) int {
	r := ctx.Pool.Workers() / total
	if r < 1 {
		r = 1
	}
	return r
}

// tfPairSeq numbers TF/IDF map+transform operator pairs process-wide, so
// worker-side count-cache sessions never collide across plans.
var tfPairSeq atomic.Uint64

// tfShipPair is coordinator-side state shared by the TFMapOp and
// TransformOp of one partitioned TF/IDF expansion — the channel through
// which the transform stage learns where a shard's phase-1 counts already
// live. When a count task ships, the worker caches the live ShardCounts
// under the pair's per-shard session key; the pair records the shard as
// remotely counted, and the matching transform task then ships the session
// key (plus the shared affinity key routing it to the same worker) instead
// of re-serializing every document's term counts. Session keys are a pure
// function of (pair id, shard index) and shard contents are deterministic,
// so re-running a plan simply overwrites worker cache entries with
// identical content.
type tfShipPair struct {
	id string

	mu      sync.Mutex
	counted map[int]bool
}

// newTFShipPair allocates the shared state of one map+transform pair.
func newTFShipPair() *tfShipPair {
	return &tfShipPair{
		id:      fmt.Sprintf("tf-%d-%d", os.Getpid(), tfPairSeq.Add(1)),
		counted: make(map[int]bool),
	}
}

// countSession names shard idx's worker-side counts-cache entry.
func (p *tfShipPair) countSession(idx int) string {
	return fmt.Sprintf("%s-%d", p.id, idx)
}

// markCounted records that shard idx's counts were cached by a worker.
func (p *tfShipPair) markCounted(idx int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.counted[idx] = true
}

// wasCounted reports whether shard idx's counts live on a worker.
func (p *tfShipPair) wasCounted(idx int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counted[idx]
}

// TFMapOp is the phase-1 map kernel of the partitioned TF/IDF operator:
// one corpus shard in, that shard's per-document term frequencies and
// sorted vocabulary with shard-local document frequencies out. All shards
// run independently — the embarrassingly parallel part of the paper's
// TF/IDF.
type TFMapOp struct {
	// Opts configures tokenization and dictionaries, as in TFIDFOp.
	Opts tfidf.Options
	// pair, when non-nil, links this map stage to its transform stage for
	// count→transform shipping affinity (see tfShipPair). Standalone uses
	// of the operator leave it nil and ship counts inline, as before.
	pair *tfShipPair
}

// Name implements Operator.
func (o *TFMapOp) Name() string { return "tf-map" }

// Inputs implements TypedOperator.
func (o *TFMapOp) Inputs() []reflect.Type { return []reflect.Type{sourceType} }

// Output implements TypedOperator.
func (o *TFMapOp) Output() reflect.Type { return shardCountsType }

// RunPartition implements PartitionKernel: pario.Source (one shard) ->
// *tfidf.ShardCounts.
func (o *TFMapOp) RunPartition(ctx *Context, ins []Value, idx, total int) (Value, error) {
	src, ok := ins[0].(pario.Source)
	if !ok {
		return nil, fmt.Errorf("%w: tf-map wants pario.Source, got %T", ErrType, ins[0])
	}
	opts := o.Opts
	opts.Recorder = ctx.Recorder
	opts.Ctx = ctx.Ctx
	var sc *tfidf.ShardCounts
	err := ctx.Breakdown.TimeSpanErr(tfidf.PhaseInputWC, func() error {
		ctx.Recorder.BeginPhase(tfidf.PhaseInputWC)
		var err error
		sc, err = tfidf.CountShard(src, shardReaders(ctx, total), opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	return sc, nil
}

// Run implements Operator: the whole source as a single shard.
func (o *TFMapOp) Run(ctx *Context, in Value) (Value, error) {
	return o.RunPartition(ctx, []Value{in}, 0, 1)
}

// DFReduceOp is the reduction of the partitioned TF/IDF operator: every
// shard's sorted vocabulary is tree-merged (par.TreeReduce) into the
// global term table, a term's position in the merged order its ID — the
// workflow's serial point, in the paper's sense that only reductions and
// output are serial.
type DFReduceOp struct {
	// Opts matches the map kernels' options (dictionary kind).
	Opts tfidf.Options
}

// Name implements Operator.
func (o *DFReduceOp) Name() string { return "df-reduce" }

// Inputs implements TypedOperator: the gathered shard counts.
func (o *DFReduceOp) Inputs() []reflect.Type { return []reflect.Type{partitionsType} }

// Output implements TypedOperator.
func (o *DFReduceOp) Output() reflect.Type { return globalType }

// Run implements Operator: *Partitions of *tfidf.ShardCounts (or a single
// *tfidf.ShardCounts) -> *tfidf.Global.
func (o *DFReduceOp) Run(ctx *Context, in Value) (Value, error) {
	var shards []*tfidf.ShardCounts
	switch v := in.(type) {
	case *Partitions:
		shards = make([]*tfidf.ShardCounts, 0, len(v.Parts))
		for _, part := range v.Parts {
			sc, ok := part.(*tfidf.ShardCounts)
			if !ok {
				return nil, fmt.Errorf("%w: df-reduce wants *tfidf.ShardCounts shards, got %T", ErrType, part)
			}
			shards = append(shards, sc)
		}
	case *tfidf.ShardCounts:
		shards = []*tfidf.ShardCounts{v}
	default:
		return nil, fmt.Errorf("%w: df-reduce wants *Partitions or *tfidf.ShardCounts, got %T", ErrType, in)
	}
	opts := o.Opts
	opts.Recorder = ctx.Recorder
	var g *tfidf.Global
	ctx.Breakdown.Time(tfidf.PhaseTransform, func() {
		ctx.Recorder.BeginPhase(tfidf.PhaseTransform)
		g = tfidf.MergeShards(shards, ctx.Pool, opts)
	})
	return g, nil
}

// TransformOp is the phase-2 map kernel of the partitioned TF/IDF
// operator: one shard's term counts plus the global table in, that shard's
// score vectors out. Shards transform independently and as soon as the
// reduction delivers the table.
type TransformOp struct {
	// Opts carries Normalize and the recorder wiring.
	Opts tfidf.Options
	// pair, when non-nil, is the link to the map stage (see tfShipPair):
	// shards it marked as remotely counted ship by session key, and the
	// global term table ships by content hash with the body pulled only on
	// a worker cache miss.
	pair *tfShipPair
}

// Name implements Operator.
func (o *TransformOp) Name() string { return "transform" }

// Inputs implements TypedOperator: port 0 is the (partitioned) shard
// counts, port 1 the global term table.
func (o *TransformOp) Inputs() []reflect.Type {
	return []reflect.Type{shardCountsType, globalType}
}

// Output implements TypedOperator.
func (o *TransformOp) Output() reflect.Type { return vectorShardType }

// RunPartition implements PartitionKernel: (*tfidf.ShardCounts,
// *tfidf.Global) -> *tfidf.VectorShard.
func (o *TransformOp) RunPartition(ctx *Context, ins []Value, idx, total int) (Value, error) {
	sc, ok := ins[0].(*tfidf.ShardCounts)
	if !ok {
		return nil, fmt.Errorf("%w: transform wants *tfidf.ShardCounts, got %T", ErrType, ins[0])
	}
	g, ok := ins[1].(*tfidf.Global)
	if !ok {
		return nil, fmt.Errorf("%w: transform wants *tfidf.Global, got %T", ErrType, ins[1])
	}
	opts := o.Opts
	opts.Recorder = ctx.Recorder
	var vs *tfidf.VectorShard
	ctx.Breakdown.TimeSpan(tfidf.PhaseTransform, func() {
		ctx.Recorder.BeginPhase(tfidf.PhaseTransform)
		vs = tfidf.TransformShard(g, sc, ctx.Pool, opts)
	})
	return vs, nil
}

// RunAll implements MultiOperator: the scalar fallback treats the whole
// input as a single shard.
func (o *TransformOp) RunAll(ctx *Context, ins []Value) (Value, error) {
	return o.RunPartition(ctx, ins, 0, 1)
}

// Run implements Operator; a two-port node is never dispatched through it.
func (o *TransformOp) Run(ctx *Context, in Value) (Value, error) {
	return nil, fmt.Errorf("workflow: transform requires both input ports")
}

// GatherOp assembles the vector shards into the final *tfidf.Result. It is
// a StreamReducer: each shard is installed into its [Lo, Hi) slot the
// moment it completes — and its per-document norms, which K-Means
// assignment needs, are collected shard-by-shard — so assembly overlaps
// the still-running transforms of other shards.
type GatherOp struct {
	// Opts is carried for symmetry with the other TF/IDF stages.
	Opts tfidf.Options
}

// gatherState is the in-progress assembly.
type gatherState struct {
	res *tfidf.Result
}

// Name implements Operator.
func (o *GatherOp) Name() string { return "gather" }

// Inputs implements TypedOperator: port 0 the (partitioned) vector shards,
// port 1 the global table.
func (o *GatherOp) Inputs() []reflect.Type {
	return []reflect.Type{vectorShardType, globalType}
}

// Output implements TypedOperator.
func (o *GatherOp) Output() reflect.Type { return tfidfResultType }

// BeginReduce implements StreamReducer.
func (o *GatherOp) BeginReduce(ctx *Context, total int, ins []Value) (any, error) {
	g, ok := ins[1].(*tfidf.Global)
	if !ok {
		return nil, fmt.Errorf("%w: gather wants *tfidf.Global, got %T", ErrType, ins[1])
	}
	res := tfidf.NewResultShell(g)
	res.Norms = make([]float64, g.NumDocs)
	return &gatherState{res: res}, nil
}

// AbsorbPartition implements StreamReducer.
func (o *GatherOp) AbsorbPartition(ctx *Context, state any, part Value, idx int) error {
	vs, ok := part.(*tfidf.VectorShard)
	if !ok {
		return fmt.Errorf("%w: gather wants *tfidf.VectorShard shards, got %T", ErrType, part)
	}
	st := state.(*gatherState)
	ctx.Breakdown.TimeSpan(tfidf.PhaseTransform, func() {
		st.res.AbsorbShard(vs)
		copy(st.res.Norms[vs.Lo:vs.Hi], vs.Norms)
	})
	return nil
}

// FinishReduce implements StreamReducer.
func (o *GatherOp) FinishReduce(ctx *Context, state any) (Value, error) {
	return state.(*gatherState).res, nil
}

// RunAll implements MultiOperator: the scalar fallback absorbs a single
// shard (or a gathered *Partitions) directly.
func (o *GatherOp) RunAll(ctx *Context, ins []Value) (Value, error) {
	var parts []Value
	switch v := ins[0].(type) {
	case *Partitions:
		parts = v.Parts
	default:
		parts = []Value{v}
	}
	state, err := o.BeginReduce(ctx, len(parts), ins)
	if err != nil {
		return nil, err
	}
	for i, part := range parts {
		if err := o.AbsorbPartition(ctx, state, part, i); err != nil {
			return nil, err
		}
	}
	return o.FinishReduce(ctx, state)
}

// Run implements Operator; a two-port node is never dispatched through it.
func (o *GatherOp) Run(ctx *Context, in Value) (Value, error) {
	return nil, fmt.Errorf("workflow: gather requires both input ports")
}
