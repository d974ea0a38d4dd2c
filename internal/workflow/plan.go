package workflow

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"hpa/internal/metrics"
	"hpa/internal/pario"
)

// Vectorized is the dataset contract accepted by KMeansOp: a matrix-shaped
// dataset exposing its term dimensionality. Both *tfidf.Result (the fused
// in-memory intermediate) and *Matrix (loaded back from ARFF) implement it.
type Vectorized interface{ Dim() int }

// scanner is implemented by source operators whose work can be shared: two
// zero-input nodes with equal ScanKey read the same underlying data, so the
// SharedScanRule rewrites consumers of one onto the other.
type scanner interface{ ScanKey() any }

// Reflected port types used by the built-in operators.
var (
	anyType        = reflect.TypeOf((*Value)(nil)).Elem()
	sourceType     = reflect.TypeOf((*pario.Source)(nil)).Elem()
	vectorizedType = reflect.TypeOf((*Vectorized)(nil)).Elem()
)

// SourceOp injects a document source into a plan: a scan node with no input
// ports that emits its Source. Plans with several scans of the same Source
// can be deduplicated by SharedScanRule.
type SourceOp struct {
	// Src is the document source to emit.
	Src pario.Source
}

// Name implements Operator.
func (o *SourceOp) Name() string { return "source" }

// Run implements Runner: () -> pario.Source.
func (o *SourceOp) Run(ctx *Context, _ Value) (Value, error) { return o.Src, nil }

// Inputs implements Operator: a scan has no input ports.
func (o *SourceOp) Inputs() []reflect.Type { return nil }

// Output implements Operator.
func (o *SourceOp) Output() reflect.Type { return sourceType }

// ScanKey implements scanner: scans of the same Source are interchangeable.
func (o *SourceOp) ScanKey() any { return o.Src }

// Edge connects the output of node From to input port Port of node To.
type Edge struct {
	From, To string
	Port     int
}

// Node is one named stage of a Plan.
type Node struct {
	name string
	op   Operator
}

// Name returns the node's plan-unique name.
func (n *Node) Name() string { return n.name }

// Op returns the operator the node wraps.
func (n *Node) Op() Operator { return n.op }

// Plan is a directed acyclic graph of named operator nodes: one corpus scan
// can feed both word-count and TF/IDF, a TF/IDF result can fan out to
// K-Means and an ARFF archive at once.
//
// Build a plan fluently with NewPlan().Add(...).Connect(...), then Validate
// (or just Run, which validates first). Structural and type errors recorded
// during building are reported by Validate, so the builder methods never
// fail mid-chain. Rewriters (FuseRule, SharedScanRule) transform a plan
// before execution; Run schedules independent branches concurrently on the
// context's pool.
type Plan struct {
	nodes map[string]*Node
	order []string // node names in Add order, for deterministic traversal
	edges []Edge
	errs  []error // deferred builder errors, surfaced by Validate

	// notes holds per-node annotations and planNotes plan-level ones —
	// decision records attached by the optimizer (or any caller), rendered
	// by Explain and inherited through rewrites. They never affect
	// execution.
	notes     map[string]string
	planNotes []string
	// predicted holds the optimizer's estimated time per figure phase
	// ("input+wc", "transform", "kmeans"), the typed counterpart of the
	// estimates its annotations print; nil until something is predicted.
	predicted *metrics.Breakdown
}

// NewPlan returns an empty plan.
func NewPlan() *Plan {
	return &Plan{nodes: make(map[string]*Node)}
}

// Add registers a named operator node and returns the plan for chaining.
// Names must be unique within the plan; violations surface in Validate.
func (p *Plan) Add(name string, op Operator) *Plan {
	switch {
	case name == "":
		p.errs = append(p.errs, fmt.Errorf("workflow: Add with empty node name"))
	case op == nil:
		p.errs = append(p.errs, fmt.Errorf("workflow: node %s: nil operator", name))
	case p.nodes[name] != nil:
		p.errs = append(p.errs, fmt.Errorf("workflow: node %s added twice", name))
	default:
		p.nodes[name] = &Node{name: name, op: op}
		p.order = append(p.order, name)
	}
	return p
}

// Connect wires the output of from into input port 0 of to. Nodes may be
// added after they are referenced; existence is checked by Validate.
func (p *Plan) Connect(from, to string) *Plan { return p.ConnectPort(from, to, 0) }

// ConnectPort wires the output of from into the given input port of to.
func (p *Plan) ConnectPort(from, to string, port int) *Plan {
	if port < 0 {
		p.errs = append(p.errs, fmt.Errorf("workflow: edge %s -> %s: negative port %d", from, to, port))
		return p
	}
	p.edges = append(p.edges, Edge{From: from, To: to, Port: port})
	return p
}

// Annotate attaches a short human-readable annotation to the named node —
// the mechanism the plan optimizer uses to make its per-node decisions and
// cost estimates visible. Explain renders it as "# node: note"; repeated
// calls for one node append with "; ". Annotations are advisory: they never
// affect validation or execution, and rewrite rules carry them over to
// surviving nodes of the rewritten plan.
func (p *Plan) Annotate(node, note string) *Plan {
	if note == "" {
		return p
	}
	if p.notes == nil {
		p.notes = make(map[string]string)
	}
	if prev := p.notes[node]; prev != "" {
		note = prev + "; " + note
	}
	p.notes[node] = note
	return p
}

// AnnotatePlan attaches a plan-level annotation line, rendered by Explain
// as "# note" ahead of the per-node annotations.
func (p *Plan) AnnotatePlan(note string) *Plan {
	if note != "" {
		p.planNotes = append(p.planNotes, note)
	}
	return p
}

// Annotation returns the annotation attached to the named node ("" if
// none).
func (p *Plan) Annotation(node string) string { return p.notes[node] }

// PlanAnnotations returns a copy of the plan-level annotation lines.
func (p *Plan) PlanAnnotations() []string {
	out := make([]string, len(p.planNotes))
	copy(out, p.planNotes)
	return out
}

// Predict adds d to the predicted time of the named phase — the channel
// through which the optimizer hands its cost estimates to whoever compares
// them with a run's measured Breakdown. Several estimates for one phase
// (two operators sharing a scan both price "input+wc") sum. Like
// annotations, predictions never affect execution and survive rewrites.
func (p *Plan) Predict(phase string, d time.Duration) *Plan {
	if p.predicted == nil {
		p.predicted = metrics.NewBreakdown()
	}
	p.predicted.Add(phase, d)
	return p
}

// Predicted returns a copy of the predicted phase times in first-predicted
// order, or nil when nothing was predicted.
func (p *Plan) Predicted() *metrics.Breakdown {
	if p.predicted == nil {
		return nil
	}
	out := metrics.NewBreakdown()
	out.Merge(p.predicted)
	return out
}

// inheritNotes copies the source plan's annotations and predictions onto
// p: all plan-level notes, node notes whose node survived the rewrite, and
// every predicted phase. Rewrite rules call this on the plans they
// construct.
func (p *Plan) inheritNotes(src *Plan) {
	p.planNotes = append(p.planNotes, src.planNotes...)
	if src.predicted != nil {
		if p.predicted == nil {
			p.predicted = metrics.NewBreakdown()
		}
		p.predicted.Merge(src.predicted)
	}
	for _, name := range src.order {
		if note := src.notes[name]; note != "" && p.nodes[name] != nil {
			p.Annotate(name, note)
		}
	}
}

// Nodes returns the node names in Add order.
func (p *Plan) Nodes() []string {
	out := make([]string, len(p.order))
	copy(out, p.order)
	return out
}

// Node returns the named node (nil if absent).
func (p *Plan) Node(name string) *Node { return p.nodes[name] }

// Edges returns a copy of the plan's edges.
func (p *Plan) Edges() []Edge {
	out := make([]Edge, len(p.edges))
	copy(out, p.edges)
	return out
}

// portAssignable reports whether a producer of type from can feed a port of
// type to. Dynamically-typed ends always connect (checked at run time).
func portAssignable(from, to reflect.Type) bool {
	if from == anyType || to == anyType {
		return true
	}
	return from.AssignableTo(to)
}

// Validate checks the plan before anything runs. It rejects, in order of
// detection: builder errors (duplicate or empty names, nil operators),
// edges referencing unknown nodes, ports out of range, input ports that are
// unconnected or connected twice, cycles, nodes that cannot run as their
// class (see checkRunnable), and edges whose producer output type is not
// assignable to the consumer port type (wrapped in ErrType).
func (p *Plan) Validate() error {
	if len(p.errs) > 0 {
		return p.errs[0]
	}
	// Edge endpoints, port ranges and double connections.
	filled := make(map[string][]bool, len(p.nodes))
	for name, n := range p.nodes {
		filled[name] = make([]bool, len(n.op.Inputs()))
	}
	for _, e := range p.edges {
		if p.nodes[e.From] == nil {
			return fmt.Errorf("workflow: edge %s -> %s: unknown node %s", e.From, e.To, e.From)
		}
		to := p.nodes[e.To]
		if to == nil {
			return fmt.Errorf("workflow: edge %s -> %s: unknown node %s", e.From, e.To, e.To)
		}
		ports := filled[e.To]
		if e.Port >= len(ports) {
			return fmt.Errorf("workflow: edge %s -> %s: node %s (%s) has %d input port(s), no port %d",
				e.From, e.To, e.To, to.op.Name(), len(ports), e.Port)
		}
		if ports[e.Port] {
			return fmt.Errorf("workflow: node %s: input port %d connected twice", e.To, e.Port)
		}
		ports[e.Port] = true
	}
	// Dangling input ports.
	for _, name := range p.order {
		for i, ok := range filled[name] {
			if !ok {
				return fmt.Errorf("workflow: node %s (%s): input port %d is not connected", name, p.nodes[name].op.Name(), i)
			}
		}
	}
	// Cycles.
	order, err := p.topoOrder()
	if err != nil {
		return err
	}
	// Run contracts.
	info := p.partitionInfo(order)
	for _, n := range order {
		if err := p.checkRunnable(n, info); err != nil {
			return err
		}
	}
	// Edge types, partition-aware: a partitioned producer presents its
	// per-partition payload type to shard consumers (map kernels on port
	// 0) and *Partitions to everything else, so a partitioned dataset
	// cannot leak into an operator that expects the monolith.
	for _, e := range p.edges {
		from, to := p.nodes[e.From], p.nodes[e.To]
		ft, tt := from.op.Output(), to.op.Inputs()[e.Port]
		if info[e.From].partitioned() && !consumesPerPart(info, p, e) {
			ft = partitionsType
		}
		if !portAssignable(ft, tt) {
			return fmt.Errorf("%w: edge %s -> %s: %s produces %v but %s port %d wants %v",
				ErrType, e.From, e.To, from.op.Name(), ft, to.op.Name(), e.Port, tt)
		}
	}
	return nil
}

// checkRunnable rejects a node that cannot run as its class: a scalar node
// without Run (at most one port) or RunAll (several ports), a shard kernel
// whose port-0 producer is not partitioned, and a logical
// operator PartitionRule cannot expand where it stands.
func (p *Plan) checkRunnable(n *Node, info map[string]pinfo) error {
	switch info[n.name].class {
	case classMap:
		if e, ok := p.producerOf(n.name, 0); !ok || !info[e.From].partitioned() {
			return fmt.Errorf("workflow: node %s (%s): a shard operator needs a partitioned producer on port 0",
				n.name, n.op.Name())
		}
	case classScalar:
		if logical, ok := p.expandable(n); logical {
			if !ok {
				e, _ := p.producerOf(n.name, 0)
				return fmt.Errorf("workflow: node %s (%s): runs only as a partitioned plan fragment, which needs a document source on port 0, not %s's %v",
					n.name, n.op.Name(), e.From, p.nodes[e.From].op.Output())
			}
			return nil
		}
		if ports := len(n.op.Inputs()); ports > 1 {
			if _, ok := n.op.(MultiOperator); !ok {
				return fmt.Errorf("workflow: node %s (%s): %d input ports but operator does not implement MultiOperator",
					n.name, n.op.Name(), ports)
			}
		} else if _, ok := n.op.(Runner); !ok {
			return fmt.Errorf("workflow: node %s (%s): operator has no run method", n.name, n.op.Name())
		}
	}
	return nil
}

// topoOrder returns the nodes in a deterministic topological order (ready
// nodes are taken in Add order), or an error naming the cycle members.
func (p *Plan) topoOrder() ([]*Node, error) {
	indeg := make(map[string]int, len(p.nodes))
	for _, e := range p.edges {
		if p.nodes[e.From] == nil || p.nodes[e.To] == nil {
			return nil, fmt.Errorf("workflow: edge %s -> %s references an unknown node", e.From, e.To)
		}
		indeg[e.To]++
	}
	order := make([]*Node, 0, len(p.nodes))
	done := make(map[string]bool, len(p.nodes))
	for len(order) < len(p.nodes) {
		progressed := false
		for _, name := range p.order {
			if done[name] || indeg[name] > 0 {
				continue
			}
			done[name] = true
			progressed = true
			order = append(order, p.nodes[name])
			for _, e := range p.edges {
				if e.From == name {
					indeg[e.To]--
				}
			}
		}
		if !progressed {
			var cyc []string
			for _, name := range p.order {
				if !done[name] {
					cyc = append(cyc, name)
				}
			}
			return nil, fmt.Errorf("workflow: plan has a cycle through %s", strings.Join(cyc, ", "))
		}
	}
	return order, nil
}

// consumersOf returns the edges leaving the named node.
func (p *Plan) consumersOf(name string) []Edge {
	var out []Edge
	for _, e := range p.edges {
		if e.From == name {
			out = append(out, e)
		}
	}
	return out
}

// producerOf returns the edge feeding the given input port, if any.
func (p *Plan) producerOf(name string, port int) (Edge, bool) {
	for _, e := range p.edges {
		if e.To == name && e.Port == port {
			return e, true
		}
	}
	return Edge{}, false
}

// materializationArrow renders the edge connector: materialize -> load
// edges — the boundary fusion cancels — are marked =[arff]=>, all others
// are plain arrows.
func materializationArrow(from, to Operator) string {
	if _, m := from.(materializer); m {
		if _, l := to.(loader); l {
			return "=[arff]=>"
		}
	}
	return "->"
}

// Explain renders the plan one edge per line in topological order, marking
// materialize/load edges =[arff]=> and partition boundaries the way the
// executor schedules them: an edge carrying shards to a per-shard consumer renders as
// -[xN]->, an edge gathering N shards back into one dataset (a reduction
// barrier) renders as =[xN]=>, and the output of an iterative loop node
// (per-wave shard tasks behind a barrier) renders as
// ~[xN]~>:
//
//	scan -> partition
//	partition -[x8]-> tf-map
//	tf-map =[x8]=> df-reduce
//	tf-map -[x8]-> transform
//	df-reduce -> transform:1
//	transform =[x8]=> gather
//	df-reduce -> gather:1
//	transform =[x8]=> kmeans.assign
//	kmeans.assign ~[x8]~> kmeans.reduce
//
// Nodes without edges are listed alone. Annotations follow the edges as
// "#"-prefixed lines — plan-level notes first, then per-node notes in Add
// order — so an optimized plan explains the decisions behind its shape:
//
//	# optimizer: cost model v1, 8 procs
//	# tfidf: dict=u-map (est input+wc 410ms vs map-arena 520ms)
//
// Invalid plans are rendered best-effort in Add order.
func (p *Plan) Explain() string {
	order, err := p.topoOrder()
	var info map[string]pinfo
	if err != nil {
		order = make([]*Node, 0, len(p.order))
		for _, name := range p.order {
			order = append(order, p.nodes[name])
		}
	} else {
		info = p.partitionInfo(order)
	}
	var sb strings.Builder
	for _, n := range order {
		cons := p.consumersOf(n.name)
		if len(cons) == 0 {
			if isolated(p, n.name) {
				fmt.Fprintf(&sb, "%s\n", n.name)
			}
			continue
		}
		for _, e := range cons {
			to := p.nodes[e.To]
			arrow := materializationArrow(n.op, to.op)
			if pi, ok := info[e.From]; ok && pi.partitioned() {
				if consumesPerPart(info, p, e) {
					arrow = fmt.Sprintf("-[x%d]->", pi.nparts)
				} else {
					arrow = fmt.Sprintf("=[x%d]=>", pi.nparts)
				}
			} else if ok && pi.class == classLoop {
				arrow = fmt.Sprintf("~[x%d]~>", pi.nparts)
			}
			if e.Port != 0 {
				fmt.Fprintf(&sb, "%s %s %s:%d\n", e.From, arrow, e.To, e.Port)
			} else {
				fmt.Fprintf(&sb, "%s %s %s\n", e.From, arrow, e.To)
			}
		}
	}
	for _, note := range p.planNotes {
		fmt.Fprintf(&sb, "# %s\n", note)
	}
	for _, name := range p.order {
		if note := p.notes[name]; note != "" {
			fmt.Fprintf(&sb, "# %s: %s\n", name, note)
		}
	}
	return strings.TrimRight(sb.String(), "\n")
}

// isolated reports whether a node has no edges at all.
func isolated(p *Plan, name string) bool {
	for _, e := range p.edges {
		if e.From == name || e.To == name {
			return false
		}
	}
	return true
}
