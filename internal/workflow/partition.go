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
// independently, and a reduction is a plain operator taking the gathered
// *Partitions. The executor (exec.go) schedules one task per (node,
// partition), so a shard can be several stages ahead of its siblings; the
// only barriers are the reductions the dataflow genuinely requires — in
// TF/IDF, the global document-frequency merge and the final gather.
//
// Determinism contract: partition payloads are always identified by their
// partition index, never by completion order. Ranges are carved by
// pario.PartitionRange (a pure function of length and shard count), merges
// are index-ordered or commutative, and gathered values present shards in
// index order — so results are bit-identical across shard counts and
// worker counts, which the partition determinism tests assert.

// Partitions is the gathered (materialized) form of a partitioned dataset:
// every shard payload in partition-index order. The executor delivers it to
// operators that consume a partitioned input whole, regardless of the order
// in which shards completed.
type Partitions struct {
	// Parts holds one payload per shard, indexed by partition.
	Parts []Value
}

// Splitter is the run contract of a node that shards its input: the node's
// output becomes partitioned with a static shard count, and the executor
// runs Split once per shard.
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

// PartitionKernel is the run contract of a map node: the executor runs
// RunPartition once per shard of the partitioned port-0 producer — ins[0]
// is that shard's payload, ins[1:] are the gathered values of the
// remaining ports — and the node's output is partitioned too. Validate
// rejects a kernel whose port-0 producer is not partitioned.
type PartitionKernel interface {
	Operator
	// RunPartition transforms one shard. It must be safe for concurrent
	// calls with distinct idx.
	RunPartition(ctx *Context, ins []Value, idx, total int) (Value, error)
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
	// classLoop runs an IterativeOp: a begin task, then per wave one task
	// per loop shard plus a barrier task, repeated until the loop reports
	// done, then a finish task. Output is scalar.
	classLoop
)

// pinfo is the partition classification of one node.
type pinfo struct {
	class nodeClass
	// nparts is the shard count of the node's output (1 for scalar
	// nodes). For a loop node it is the internal loop shard count — the
	// output itself is scalar.
	nparts int
}

// partitioned reports whether the node's output flows as shards.
func (pi pinfo) partitioned() bool { return pi.class == classSplit || pi.class == classMap }

// partitionInfo classifies every node by the run contract its operator
// implements. It requires an acyclic plan (nodes are resolved in
// topological order so a map node can inherit its producer's shard count);
// Validate rejects a map node whose port-0 producer is not partitioned.
func (p *Plan) partitionInfo(order []*Node) map[string]pinfo {
	info := make(map[string]pinfo, len(order))
	for _, n := range order {
		pi := pinfo{class: classScalar, nparts: 1}
		switch op := n.op.(type) {
		case IterativeOp:
			pi.class = classLoop
			pi.nparts = max(op.LoopShards(), 1)
		case Splitter:
			pi.class = classSplit
			pi.nparts = max(op.PartitionCount(), 1)
		case PartitionKernel:
			pi.class = classMap
			if e, ok := p.producerOf(n.name, 0); ok {
				pi.nparts = info[e.From].nparts
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
	return info[e.To].class == classMap
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

// Inputs implements Operator.
func (o *PartitionOp) Inputs() []reflect.Type { return []reflect.Type{sourceType} }

// Output implements Operator: the per-partition payload is itself a
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
// count sessions in a worker store never collide across plans.
var tfPairSeq atomic.Uint64

// tfShipPair is coordinator-side state shared by the TFMapOp and
// TransformOp of one partitioned TF/IDF expansion — the channel through
// which the transform stage learns where a shard's phase-1 counts live.
// When a count task ships, the worker keeps the live ShardCounts in its
// store under the pair's per-shard session key and replies with the shard
// without its documents; the count's Absorb records the task's descriptor
// against that reply, and the matching transform task then ships the
// session key (plus the shared affinity key routing it to the same
// worker). A shard is a pure function of its descriptor, so a worker that
// lost the counts recounts them from it. A shard with no record was
// counted on the coordinator and is transformed there.
type tfShipPair struct {
	id string

	mu     sync.Mutex
	counts map[*tfidf.ShardCounts]*CountTaskArgs
}

// newTFShipPair allocates the shared state of one map+transform pair.
func newTFShipPair() *tfShipPair {
	return &tfShipPair{
		id:     fmt.Sprintf("tf-%d-%d", os.Getpid(), tfPairSeq.Add(1)),
		counts: make(map[*tfidf.ShardCounts]*CountTaskArgs),
	}
}

// countSession names shard idx's counts in the worker store.
func (p *tfShipPair) countSession(idx int) string {
	return fmt.Sprintf("%s-%d", p.id, idx)
}

// recordCount records that sc was counted on a worker by the given task.
func (p *tfShipPair) recordCount(sc *tfidf.ShardCounts, count *CountTaskArgs) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.counts[sc] = count
}

// takeCount returns and forgets the task that counted sc on a worker, or
// nil when sc was counted on the coordinator.
func (p *tfShipPair) takeCount(sc *tfidf.ShardCounts) *CountTaskArgs {
	p.mu.Lock()
	defer p.mu.Unlock()
	count := p.counts[sc]
	delete(p.counts, sc)
	return count
}

// TFMapOp is the phase-1 map kernel of the partitioned TF/IDF operator:
// one corpus shard in, that shard's per-document term frequencies and
// sorted vocabulary with shard-local document frequencies out. All shards
// run independently — the embarrassingly parallel part of the paper's
// TF/IDF.
type TFMapOp struct {
	// Opts configures tokenization and dictionaries, as in TFIDFOp.
	Opts tfidf.Options
	// pair links this map stage to its transform stage (see tfShipPair).
	// Only a paired shard ships: its counts stay on the worker for the
	// transform. An operator without one counts on the coordinator.
	pair *tfShipPair
}

// Name implements Operator.
func (o *TFMapOp) Name() string { return "tf-map" }

// Inputs implements Operator.
func (o *TFMapOp) Inputs() []reflect.Type { return []reflect.Type{sourceType} }

// Output implements Operator.
func (o *TFMapOp) Output() reflect.Type { return shardCountsType }

// Phase implements Phased.
func (o *TFMapOp) Phase() string { return tfidf.PhaseInputWC }

// RunPartition implements PartitionKernel: pario.Source (one shard) ->
// *tfidf.ShardCounts.
func (o *TFMapOp) RunPartition(ctx *Context, ins []Value, idx, total int) (Value, error) {
	src, ok := ins[0].(pario.Source)
	if !ok {
		return nil, fmt.Errorf("%w: tf-map wants pario.Source, got %T", ErrType, ins[0])
	}
	opts := o.Opts
	opts.Ctx = ctx.Ctx
	sc, err := tfidf.CountShard(src, shardReaders(ctx, total), opts)
	if err != nil {
		return nil, err
	}
	ctx.spanIO(sc.Bytes, len(sc.DocNames))
	return sc, nil
}

// DFReduceOp is the reduction of the partitioned TF/IDF operator: every
// shard's sorted vocabulary is tree-merged (par.TreeReduce) into the
// global term table, a term's position in the merged order its ID, and the
// IDF table is evaluated over it — the workflow's serial point, in the
// paper's sense that only reductions and output are serial.
type DFReduceOp struct {
	// Opts matches the map kernels' options (dictionary kind).
	Opts tfidf.Options
}

// Name implements Operator.
func (o *DFReduceOp) Name() string { return "df-reduce" }

// Inputs implements Operator: the gathered shard counts.
func (o *DFReduceOp) Inputs() []reflect.Type { return []reflect.Type{partitionsType} }

// Output implements Operator.
func (o *DFReduceOp) Output() reflect.Type { return globalType }

// Phase implements Phased.
func (o *DFReduceOp) Phase() string { return tfidf.PhaseTransform }

// Run implements Runner: *Partitions of *tfidf.ShardCounts ->
// *tfidf.Global.
func (o *DFReduceOp) Run(ctx *Context, in Value) (Value, error) {
	parts, ok := in.(*Partitions)
	if !ok {
		return nil, fmt.Errorf("%w: df-reduce wants *Partitions, got %T", ErrType, in)
	}
	shards := make([]*tfidf.ShardCounts, len(parts.Parts))
	for i, part := range parts.Parts {
		if shards[i], ok = part.(*tfidf.ShardCounts); !ok {
			return nil, fmt.Errorf("%w: df-reduce wants *tfidf.ShardCounts shards, got %T", ErrType, part)
		}
	}
	return tfidf.MergeShards(shards, ctx.Pool, o.Opts), nil
}

// TransformOp is the phase-2 map kernel of the partitioned TF/IDF
// operator: one shard's term counts plus the global table in, that shard's
// score vectors out. Each shard task walks its own vocabulary along the
// table (tfidf.Global.Resolve), so shards transform independently, in
// parallel, and as soon as the reduction delivers the table.
type TransformOp struct {
	// Opts carries Normalize.
	Opts tfidf.Options
	// pair is the link to the map stage (see tfShipPair): a shard counted
	// on a worker ships there by session key; every other shard is
	// transformed on the coordinator.
	pair *tfShipPair
}

// Name implements Operator.
func (o *TransformOp) Name() string { return "transform" }

// Inputs implements Operator: port 0 is the (partitioned) shard counts,
// port 1 the global term table.
func (o *TransformOp) Inputs() []reflect.Type {
	return []reflect.Type{shardCountsType, globalType}
}

// Output implements Operator.
func (o *TransformOp) Output() reflect.Type { return vectorShardType }

// Phase implements Phased.
func (o *TransformOp) Phase() string { return tfidf.PhaseTransform }

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
	return tfidf.TransformShard(g, sc, ctx.Pool, o.Opts), nil
}

// GatherOp assembles the vector shards into the final *tfidf.Result: a
// reduction over the gathered shards, which installs each shard into its
// [Lo, Hi) slot in shard-index order and collects its per-document norms,
// which K-Means assignment needs.
type GatherOp struct{}

// Name implements Operator.
func (o *GatherOp) Name() string { return "gather" }

// Inputs implements Operator: port 0 the gathered vector shards, port 1
// the global table.
func (o *GatherOp) Inputs() []reflect.Type {
	return []reflect.Type{partitionsType, globalType}
}

// Output implements Operator.
func (o *GatherOp) Output() reflect.Type { return tfidfResultType }

// Phase implements Phased.
func (o *GatherOp) Phase() string { return tfidf.PhaseTransform }

// RunAll implements MultiOperator: (*Partitions of *tfidf.VectorShard,
// *tfidf.Global) -> *tfidf.Result.
func (o *GatherOp) RunAll(ctx *Context, ins []Value) (Value, error) {
	parts, ok := ins[0].(*Partitions)
	if !ok {
		return nil, fmt.Errorf("%w: gather wants *Partitions, got %T", ErrType, ins[0])
	}
	g, ok := ins[1].(*tfidf.Global)
	if !ok {
		return nil, fmt.Errorf("%w: gather wants *tfidf.Global, got %T", ErrType, ins[1])
	}
	res := tfidf.NewResultShell(g)
	res.Norms = make([]float64, g.NumDocs)
	for _, part := range parts.Parts {
		vs, ok := part.(*tfidf.VectorShard)
		if !ok {
			return nil, fmt.Errorf("%w: gather wants *tfidf.VectorShard shards, got %T", ErrType, part)
		}
		res.AbsorbShard(vs)
		copy(res.Norms[vs.Lo:vs.Hi], vs.Norms)
	}
	return res, nil
}
