package workflow

import "reflect"

// Rewriter is a declarative plan-to-plan transformation, applied to a
// validated DAG before execution. Rewrite returns the transformed plan and
// whether anything changed; implementations must treat the input plan as
// immutable and return it unchanged (false) when the rule does not apply.
//
// Workflow fusion — the paper's Section 3.3 optimization — is one rewrite
// rule among several (FuseRule); SharedScanRule deduplicates identical
// source scans.
type Rewriter interface {
	// Name identifies the rule in diagnostics.
	Name() string
	// Rewrite applies the rule once; callers iterate to a fixpoint.
	Rewrite(p *Plan) (*Plan, bool)
}

// Apply runs each rewriter to its fixpoint, in order, and returns the
// rewritten plan. The receiver is never mutated.
func (p *Plan) Apply(rules ...Rewriter) *Plan {
	out := p
	for _, r := range rules {
		for {
			next, changed := r.Rewrite(out)
			if !changed {
				break
			}
			out = next
		}
	}
	return out
}

// FuseRule returns the fusion rewriter: every materialize -> load edge
// anywhere in the graph is canceled, reconnecting the materializer's
// producer directly to the loader's consumers so the intermediate dataset
// stays in memory. This is the paper's fusion of discrete operators into
// "single binaries that encapsulate a complex workflow", on arbitrary DAGs.
//
// A materializer kept alive by other consumers (for example an ARFF archive
// that is also a sink) survives; only the loader and, when nothing else
// reads it, the materializer are removed. The pair is canceled only when
// the bypass type-checks: the producer's output must be assignable to every
// consumer port the loader fed.
func FuseRule() Rewriter { return fuseRule{} }

type fuseRule struct{}

func (fuseRule) Name() string { return "fuse" }

func (fuseRule) Rewrite(p *Plan) (*Plan, bool) {
	for _, e := range p.edges {
		fromN, toN := p.nodes[e.From], p.nodes[e.To]
		if fromN == nil || toN == nil {
			continue
		}
		if _, ok := fromN.op.(materializer); !ok {
			continue
		}
		if _, ok := toN.op.(loader); !ok {
			continue
		}
		if next, ok := cancelPair(p, e); ok {
			return next, true
		}
	}
	return p, false
}

// cancelPair removes the materialize/load pair around edge e (m -> l),
// rewiring l's consumers to m's producer. It declines (returns false) when
// the bypass would not type-check.
func cancelPair(p *Plan, e Edge) (*Plan, bool) {
	m, l := e.From, e.To
	producer, hasProducer := p.producerOf(m, 0)
	consumers := p.consumersOf(l)
	if hasProducer {
		out := p.nodes[producer.From].op.Output()
		for _, ce := range consumers {
			want := p.nodes[ce.To].op.Inputs()[ce.Port]
			if !portAssignable(out, want) {
				return nil, false
			}
		}
	}
	// The materializer survives if anything else consumes its reference.
	dropM := true
	for _, me := range p.consumersOf(m) {
		if me != e {
			dropM = false
			break
		}
	}

	next := NewPlan()
	for _, name := range p.order {
		if name == l || (dropM && name == m) {
			continue
		}
		next.Add(name, p.nodes[name].op)
	}
	for _, old := range p.edges {
		switch {
		case old == e: // the canceled pair
		case old.To == l: // other feeds into the loader (none for port 0)
		case old.From == l: // loader consumers are rewired below
		case dropM && old.To == m: // producer -> materializer
		default:
			next.edges = append(next.edges, old)
		}
	}
	if hasProducer {
		for _, ce := range consumers {
			next.edges = append(next.edges, Edge{From: producer.From, To: ce.To, Port: ce.Port})
		}
	}
	next.errs = append(next.errs, p.errs...)
	next.inheritNotes(p)
	return next, true
}

// fragNode is one node of a partition-expansion fragment, named by suffix.
type fragNode struct {
	suffix string
	op     Operator
}

// fragment is the per-shard map/reduce subgraph an operator expands into
// under PartitionRule. Edge endpoints are node suffixes; in is the map
// entry receiving the partitioned input on port 0, out the node whose
// output replaces the original operator's.
type fragment struct {
	nodes []fragNode
	edges []Edge
	in    string
	out   string
}

// partitionable is implemented by operators that can be decomposed into an
// equivalent per-shard map/reduce subgraph (per-partition kernels plus
// explicit reductions) producing bit-identical output.
type partitionable interface {
	Operator
	partitionFragment() fragment
}

// PartitionRule returns the sharding rewriter: every partitionable
// operator fed directly by a document source (TFIDFOp, WordCountOp) is
// expanded into its per-shard map/reduce subgraph, with a PartitionOp
// inserted after the scan to carve the corpus into shards, and every
// KMeansOp is expanded into the iterative loop stages — <node>.assign (a
// KMAssignOp hosting the per-shard assignment loop on the executor's
// IterativeOp contract) feeding <node>.reduce (the join with the upstream
// dataset). Expanded nodes are named <node>.<stage> ("tfidf.map",
// "tfidf.df", "kmeans.assign", ...); consumers of several partitionable
// operators off one scan share a single <scan>.shards partition node, so
// partitioning pushes through shared scans, and the rule composes with
// FuseRule — a discrete plan's materialize/load pair downstream of the
// expansion cancels exactly as before.
//
// When the K-Means producer is the partitioned TF/IDF's gather, the
// assignment stage is rewired onto the transform's vector shards directly
// (shard payloads carry precomputed norms and the vocabulary dimension), so
// the loop input does not wait for the result assembly; the gathered
// result still feeds the reduce stage for document names and the retained
// scores.
//
// shards fixes the partition count — for the map stages and, initially,
// the K-Means loop (the loop count is retuned independently by the
// optimizer); 0 selects the automatic count (2×GOMAXPROCS, see
// PartitionOp.Shards) at execution time. The rewrite never changes
// results: shard boundaries are deterministic, document frequencies merge
// commutatively, term IDs are assigned in lexicographic order, and the
// K-Means update folds every centroid in document order, so scores and
// the whole clustering are bit-identical at any shard count.
func PartitionRule(shards int) Rewriter { return &partitionRule{shards: shards} }

type partitionRule struct{ shards int }

func (*partitionRule) Name() string { return "partition" }

func (r *partitionRule) Rewrite(p *Plan) (*Plan, bool) {
	for _, name := range p.order {
		n := p.nodes[name]
		if _, ok := p.expandable(n); !ok {
			continue
		}
		prod, _ := p.producerOf(name, 0)
		if km, isKM := n.op.(*KMeansOp); isKM {
			return r.expandLoop(p, name, km, prod), true
		}
		return r.expand(p, name, n.op.(partitionable).partitionFragment(), prod), true
	}
	return p, false
}

// expandable reports whether node n is logical — a TFIDFOp, WordCountOp or
// KMeansOp, which run only as what PartitionRule expands them into — and,
// if so, whether the rule can expand it where it stands: TF/IDF and word
// count behind a document source, K-Means behind any producer.
func (p *Plan) expandable(n *Node) (logical, ok bool) {
	_, km := n.op.(*KMeansOp)
	_, frag := n.op.(partitionable)
	if !km && !frag {
		return false, false
	}
	prod, hasProd := p.producerOf(n.name, 0)
	if !hasProd || p.nodes[prod.From] == nil {
		return true, false
	}
	out := p.nodes[prod.From].op.Output()
	return true, km || (out != anyType && out.AssignableTo(sourceType))
}

// expandedOut names the node whose output replaces node name's once
// PartitionRule has expanded its operator op.
func expandedOut(name string, op Operator) string {
	if pa, ok := op.(partitionable); ok {
		return name + "." + pa.partitionFragment().out
	}
	return name + ".reduce" // KMeansOp: the loop's join stage
}

// expandLoop replaces a KMeansOp node with the iterative loop stages:
// <name>.assign (the IterativeOp hosting the per-shard assignment loop)
// and <name>.reduce (joining the loop result with the upstream dataset).
// When the producer is the partitioned TF/IDF gather, the assignment is
// fed the transform's vector shards directly.
func (r *partitionRule) expandLoop(p *Plan, name string, km *KMeansOp, prod Edge) *Plan {
	assign, reduce := name+".assign", name+".reduce"
	next := NewPlan()
	for _, nm := range p.order {
		if nm == name {
			next.Add(assign, &KMAssignOp{Opts: km.Opts, Shards: r.shards})
			next.Add(reduce, &KMReduceOp{})
			continue
		}
		next.Add(nm, p.nodes[nm].op)
	}
	feed := prod.From
	if _, isGather := p.nodes[prod.From].op.(*GatherOp); isGather {
		if te, ok := p.producerOf(prod.From, 0); ok {
			feed = te.From // the transform's vector shards, gathered
		}
	}
	for _, e := range p.edges {
		switch {
		case e.To == name: // the producer edge, replaced by the loop wiring
		case e.From == name:
			next.edges = append(next.edges, Edge{From: reduce, To: e.To, Port: e.Port})
		default:
			next.edges = append(next.edges, e)
		}
	}
	next.edges = append(next.edges, Edge{From: feed, To: assign, Port: 0})
	next.edges = append(next.edges, Edge{From: assign, To: reduce, Port: 0})
	next.edges = append(next.edges, Edge{From: prod.From, To: reduce, Port: 1})
	next.errs = append(next.errs, p.errs...)
	next.inheritNotes(p)
	if note := p.notes[name]; note != "" {
		next.Annotate(assign, note)
	}
	return next
}

// expand replaces node name with its fragment, wired through a partition
// node after the producer (reused if the producer already is a Splitter or
// an earlier expansion created one).
func (r *partitionRule) expand(p *Plan, name string, frag fragment, prod Edge) *Plan {
	partName := prod.From
	newPart := false
	if _, isSplit := p.nodes[prod.From].op.(Splitter); !isSplit {
		partName = prod.From + ".shards"
		if existing := p.nodes[partName]; existing == nil {
			newPart = true
		} else if _, ok := existing.op.(Splitter); !ok {
			// The name is taken by an unrelated node; shard privately.
			partName = name + ".shards"
			newPart = true
		}
	}
	next := NewPlan()
	for _, nm := range p.order {
		if nm == name {
			for _, fn := range frag.nodes {
				next.Add(name+"."+fn.suffix, fn.op)
			}
			continue
		}
		next.Add(nm, p.nodes[nm].op)
	}
	if newPart {
		next.Add(partName, &PartitionOp{Shards: r.shards})
	}
	for _, e := range p.edges {
		switch {
		case e.To == name: // the producer edge, replaced by partition wiring
		case e.From == name:
			next.edges = append(next.edges, Edge{From: name + "." + frag.out, To: e.To, Port: e.Port})
		default:
			next.edges = append(next.edges, e)
		}
	}
	if newPart {
		next.edges = append(next.edges, Edge{From: prod.From, To: partName, Port: 0})
	}
	next.edges = append(next.edges, Edge{From: partName, To: name + "." + frag.in, Port: 0})
	for _, fe := range frag.edges {
		next.edges = append(next.edges, Edge{From: name + "." + fe.From, To: name + "." + fe.To, Port: fe.Port})
	}
	next.errs = append(next.errs, p.errs...)
	next.inheritNotes(p)
	// The expanded node's annotation (e.g. the optimizer's dictionary
	// decision) describes the operator configuration its fragment inherits;
	// keep it visible on the fragment's entry node.
	if note := p.notes[name]; note != "" {
		next.Annotate(name+"."+frag.in, note)
	}
	return next
}

// SharedScanRule returns the scan-deduplication rewriter: when several
// zero-input nodes scan the same underlying data (equal scanner.ScanKey),
// all consumers are rewired onto the first such node and the duplicates are
// removed, so a corpus feeding word-count and TF/IDF through two separate
// SourceOp nodes is read once.
func SharedScanRule() Rewriter { return sharedScanRule{} }

type sharedScanRule struct{}

func (sharedScanRule) Name() string { return "shared-scan" }

func (sharedScanRule) Rewrite(p *Plan) (*Plan, bool) {
	canonical := make(map[any]string)
	replace := make(map[string]string) // duplicate node -> canonical node
	for _, name := range p.order {
		op := p.nodes[name].op
		s, ok := op.(scanner)
		if !ok || len(op.Inputs()) != 0 {
			continue
		}
		key := s.ScanKey()
		if key == nil || !reflect.TypeOf(key).Comparable() {
			continue
		}
		if first, ok := canonical[key]; ok {
			replace[name] = first
		} else {
			canonical[key] = name
		}
	}
	if len(replace) == 0 {
		return p, false
	}
	next := NewPlan()
	for _, name := range p.order {
		if _, dup := replace[name]; dup {
			continue
		}
		next.Add(name, p.nodes[name].op)
	}
	for _, e := range p.edges {
		if to, dup := replace[e.From]; dup {
			e.From = to
		}
		next.edges = append(next.edges, e)
	}
	next.errs = append(next.errs, p.errs...)
	next.inheritNotes(p)
	return next, true
}
