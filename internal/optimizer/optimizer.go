package optimizer

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"hpa/internal/dict"
	"hpa/internal/kmeans"
	"hpa/internal/metrics"
	"hpa/internal/tfidf"
	"hpa/internal/workflow"
)

// DefaultMemoryBudget caps the estimated resident size of an intermediate
// dataset the fusion decision is willing to keep in memory (4 GiB). Above
// it the materialize/load pair is kept: the paper's fusion saves the ARFF
// round-trip, but only while the intermediate fits.
const DefaultMemoryBudget int64 = 4 << 30

// stragglerFactor is the fallback residual-imbalance allowance of
// partitioned execution: document sizes are heavy-tailed, so the last
// shard outlives the average by roughly this fraction of one shard. It is
// used when the input statistics carry no observed size variance; with a
// measured Stats.DocSizeCV the allowance is derived from the data instead
// (see rule.stragglerAt) and this constant becomes its upper cap.
const stragglerFactor = 0.25

// stragglerMin floors the derived straggler allowance: even perfectly
// uniform shards pay some scheduling jitter.
const stragglerMin = 0.02

// BackendProfile describes the execution backend to the shard-count
// decisions: whether shard tasks leave the process, how many remote
// workers back the plan, and the per-task ship cost. The zero value is
// the local in-process backend.
type BackendProfile struct {
	// Remote marks an out-of-process backend (RPC workers): every shard
	// task additionally pays ShipNS, and Workers add execution slots.
	Remote bool
	// Workers is the remote worker process count. Each is conservatively
	// priced as one extra execution slot (a worker's own internal
	// parallelism is not assumed).
	Workers int
	// ShipNS is the per-task ship overhead (frame encode + round trip +
	// decode, the worker's kernel time excluded), added to the executor
	// task overhead for every shard task.
	ShipNS float64
	// ShipSource labels where ShipNS came from for Explain: "measured"
	// (persisted EWMA of real worker round trips) or "loopback-bound" (the
	// model's RPCShipNS, recorded on an in-process pipe worker: no network
	// in it). Empty for local profiles.
	ShipSource string
}

// LocalProfile describes the in-process pool backend: no ship cost, no
// extra slots.
func LocalProfile() BackendProfile { return BackendProfile{} }

// RPCProfile describes an RPC backend of n workers, priced with the
// model's RPCShipNS: the plan's tasks shipped to a worker over an
// in-process pipe, so a network only adds to it.
func RPCProfile(n int, m *CostModel) BackendProfile {
	return BackendProfile{Remote: true, Workers: n, ShipNS: m.RPCShipNS, ShipSource: "loopback-bound"}
}

// RPCProfileFrom is RPCProfile with the measured-ship feedback loop closed:
// when dir holds a persisted ship EWMA (see ShipEWMA) with at least one
// sample, that measured per-task ship time prices the plan instead of the
// model's pipe-recorded RPCShipNS. Deleting the file (ShipEWMAFile) returns
// to RPCShipNS, as deleting the cost-model cache re-calibrates.
func RPCProfileFrom(n int, m *CostModel, dir string) BackendProfile {
	bp := RPCProfile(n, m)
	if e, err := LoadShipEWMA(ShipEWMAFile(dir)); err == nil && e.Samples > 0 && e.ShipNS > 0 {
		bp.ShipNS = e.ShipNS
		bp.ShipSource = "measured"
	}
	return bp
}

// slots returns the execution-slot count the profile adds to the
// coordinator's procs.
func (b BackendProfile) slots(procs int) int {
	if b.Remote {
		return procs + b.Workers
	}
	return procs
}

// perTaskNS returns the full per-task overhead under the profile.
func (b BackendProfile) perTaskNS(taskNS float64) float64 {
	if b.Remote {
		return taskNS + b.ShipNS
	}
	return taskNS
}

// String labels the profile in annotations, including where the ship cost
// came from ("ship=measured" vs "ship=loopback-bound") when known.
func (b BackendProfile) String() string {
	if !b.Remote {
		return "local"
	}
	if b.ShipSource != "" {
		return fmt.Sprintf("rpc×%d (+%s ship/task, ship=%s)", b.Workers, metrics.FormatEstimate(time.Duration(b.ShipNS)), b.ShipSource)
	}
	return fmt.Sprintf("rpc×%d (+%s ship/task)", b.Workers, metrics.FormatEstimate(time.Duration(b.ShipNS)))
}

// FusionPin pins the optimizer's fusion decision.
type FusionPin int

const (
	// FusionAuto lets the memory-budget model decide (the default).
	FusionAuto FusionPin = iota
	// FusionFuse forces every materialize/load boundary fused, regardless
	// of the estimated resident size.
	FusionFuse
	// FusionMaterialize keeps every materialize/load pair, paying the ARFF
	// round trip.
	FusionMaterialize
)

// String labels the pin in annotations and flag errors.
func (f FusionPin) String() string {
	switch f {
	case FusionFuse:
		return "fuse"
	case FusionMaterialize:
		return "materialize"
	default:
		return "auto"
	}
}

// PinDict returns a dictionary-kind pin for Options.Dict.
func PinDict(k dict.Kind) *dict.Kind { return &k }

// Options tunes the optimization pass.
type Options struct {
	// Procs is the worker parallelism the plan will run under (0 selects
	// runtime.GOMAXPROCS(0)) — the P of the shard-count decision.
	Procs int
	// Shards pins the shard-count decision: N > 0 forces N map and loop
	// shards (an explicit user override); 0 lets the cost model choose.
	Shards int
	// Dict pins the dictionary kind for every dictionary-bearing operator
	// (nil lets the cost model choose; see PinDict). The pass still
	// annotates the decision, marked as pinned.
	Dict *dict.Kind
	// Fusion pins the fusion decision at every materialize/load boundary;
	// the zero value lets the memory-budget model decide.
	Fusion FusionPin
	// MemoryBudget bounds the fusion decision's in-memory intermediate
	// (0 selects DefaultMemoryBudget).
	MemoryBudget int64
	// Backend describes the execution backend the plan will run on; the
	// zero value is the local pool. A remote profile adds the per-task
	// ship cost to every shard task and its workers as execution slots, so
	// the shard-count decisions price distribution honestly (an expensive
	// ship can push the decision back toward fewer shards).
	Backend BackendProfile
}

// Optimize derives the physical configuration of plan from the input
// statistics and the calibrated cost model with default Options: it picks
// the dictionary kind per operator, decides fusion versus materialization,
// and chooses the shard count, returning the rewritten, annotated plan.
// The input plan is never mutated. Equivalent to
// plan.Apply(Rule(st, m, Options{})).
func Optimize(plan *workflow.Plan, st *Stats, m *CostModel) *workflow.Plan {
	return plan.Apply(Rule(st, m, Options{}))
}

// Rule returns the optimization pass as a workflow.Rewriter, so it
// composes with the engine's rewrite layer: plans already transformed by
// SharedScanRule keep their shared scans, and the rule itself applies
// FuseRule and PartitionRule as decided. The rule fixpoints after one
// application; a plan that already carries optimizer annotations is left
// unchanged.
func Rule(st *Stats, m *CostModel, opts Options) workflow.Rewriter {
	if opts.Procs <= 0 {
		opts.Procs = runtime.GOMAXPROCS(0)
	}
	if opts.MemoryBudget <= 0 {
		opts.MemoryBudget = DefaultMemoryBudget
	}
	return &rule{st: st, m: m, opts: opts}
}

type rule struct {
	st   *Stats
	m    *CostModel
	opts Options
}

func (r *rule) Name() string { return "optimize" }

// optimizerNotePrefix marks plans the pass has already configured: the
// annotation doubles as the fixpoint guard, so the rule terminates
// Plan.Apply's iteration and a rule value stays reusable across plans.
const optimizerNotePrefix = "optimizer:"

func (r *rule) Rewrite(p *workflow.Plan) (*workflow.Plan, bool) {
	if r.st == nil || r.m == nil {
		return p, false
	}
	for _, note := range p.PlanAnnotations() {
		if strings.HasPrefix(note, optimizerNotePrefix) {
			return p, false
		}
	}
	if err := p.Validate(); err != nil {
		return p, false // never touch a broken plan
	}

	// Work on a private copy throughout: the input plan is never mutated,
	// even when every decision keeps the current shape (Rewriter contract).
	next := clonePlan(p, nil)
	next = r.chooseDicts(next)
	next = r.chooseFusion(next)
	next = r.chooseShards(next)
	next = r.chooseKMeans(next)
	next.AnnotatePlan(fmt.Sprintf("%s cost model v%d (procs=%d); input %s",
		optimizerNotePrefix, r.m.Version, r.opts.Procs, r.st))
	return next, true
}

// docCard returns the per-document dictionary cardinality regime.
func (r *rule) docCard() int {
	c := int(r.st.AvgDocDistinct + 0.5)
	if c < 1 {
		c = 1
	}
	return c
}

// tfidfCost estimates the dictionary-dependent cost of the TF/IDF
// operator under the given kind, in nanoseconds. All of it is phase 1
// (input+wc): every token is an insert-or-find in a per-document
// dictionary (mostly hits, priced as lookups at the per-document
// cardinality, plus the distinct-term inserts); the first occurrence of a
// word in a document finds it in the shard vocabulary (a lookup at
// vocabulary cardinality — the regime of the paper's Figure 2), and every
// vocabulary word is inserted there once. Phase 2 (transform) does no
// dictionary work: each shard walks its sorted vocabulary along the sorted
// term table, and scoring reads the per-document dictionaries by
// iteration and indexes arrays, so it is not priced here.
//
// A shard's vocabulary is priced at the full vocabulary's cardinality: the
// shard count is decided after the kind, and Heaps' law keeps a shard's
// vocabulary within a small factor of the corpus's.
func (r *rule) tfidfCost(kind dict.Kind) float64 {
	docs := float64(r.st.Docs)
	tokens := float64(r.st.TotalTokens)
	dc := r.docCard()
	pairs := docs * r.st.AvgDocDistinct // distinct (doc, term) pairs
	gc := r.st.DistinctTerms
	vocab := float64(gc)
	return tokens*r.m.DictLookupNS(kind, dc) +
		pairs*r.m.DictInsertNS(kind, dc) +
		pairs*r.m.DictLookupNS(kind, gc) +
		vocab*r.m.DictInsertNS(kind, gc)
}

// wordCountCost estimates the dictionary-dependent cost of the word-count
// operator: tokens hit per-strand dictionaries that grow toward the full
// vocabulary, merged once.
func (r *rule) wordCountCost(kind dict.Kind) float64 {
	tokens := float64(r.st.TotalTokens)
	gc := r.st.DistinctTerms
	return tokens*r.m.DictLookupNS(kind, gc) + float64(gc)*r.m.DictInsertNS(kind, gc)
}

// candidateKinds are the dictionary kinds the optimizer selects between:
// the paper's tree-versus-hash trade-off. NodeTree (the std::map ablation)
// is structurally dominated by the arena tree and never auto-selected.
var candidateKinds = []dict.Kind{dict.Tree, dict.Hash}

// decision is one priced choice: the annotation that explains it and the
// per-phase estimates (in nanoseconds) it rests on.
type decision struct {
	note string
	est  []phaseEst
}

// phaseEst prices one figure phase.
type phaseEst struct {
	phase string
	ns    float64
}

// record attaches the decisions to their nodes in plan order: each note as
// the node's annotation and each estimate as a Plan.Predict, so the plan
// carries as data what its annotations print.
func record(p *workflow.Plan, decided map[string]decision) {
	for _, name := range p.Nodes() {
		d, ok := decided[name]
		if !ok {
			continue
		}
		p.Annotate(name, d.note)
		for _, e := range d.est {
			p.Predict(e.phase, time.Duration(e.ns))
		}
	}
}

// tfidfBestKind prices the TF/IDF operator under every candidate kind and
// returns the winner with its decision: the annotation and the winner's
// input+wc estimate, the one phase a kind changes.
func (r *rule) tfidfBestKind() (dict.Kind, decision) {
	best, alt := candidateKinds[0], candidateKinds[0]
	bestCost := math.Inf(1)
	var altCost float64
	for _, kind := range candidateKinds {
		c := r.tfidfCost(kind)
		if c < bestCost {
			if bestCost < math.Inf(1) {
				alt, altCost = best, bestCost
			}
			best, bestCost = kind, c
		} else {
			alt, altCost = kind, c
		}
	}
	return best, decision{
		note: fmt.Sprintf("dict=%s (est input+wc %s; %s %s)",
			best, metrics.FormatEstimate(time.Duration(bestCost)),
			alt, metrics.FormatEstimate(time.Duration(altCost))),
		est: []phaseEst{{tfidf.PhaseInputWC, bestCost}},
	}
}

// wordCountBestKind is tfidfBestKind for the word-count phase structure:
// its one estimate is the winner's input+wc term.
func (r *rule) wordCountBestKind() (dict.Kind, decision) {
	best := candidateKinds[0]
	bestCost := math.Inf(1)
	var lines []string
	for _, kind := range candidateKinds {
		c := r.wordCountCost(kind)
		lines = append(lines, fmt.Sprintf("%s %s", kind, metrics.FormatEstimate(time.Duration(c))))
		if c < bestCost {
			best, bestCost = kind, c
		}
	}
	return best, decision{
		note: fmt.Sprintf("dict=%s (est input+wc %s)", best, strings.Join(lines, ", ")),
		est:  []phaseEst{{tfidf.PhaseInputWC, bestCost}},
	}
}

// chooseDicts rewrites every dictionary-bearing operator to the cheapest
// kind — the logical TFIDFOp/WordCountOp and, when the plan was already
// partitioned, their expanded shard kernels (which must all agree on one
// kind) — annotating the choice with both phases' estimates on the
// operator (or its map kernel) and predicting them. A pinned kind is
// annotated as such and predicts nothing: no estimate priced it.
func (r *rule) chooseDicts(p *workflow.Plan) *workflow.Plan {
	tfKind, tf := r.tfidfBestKind()
	wcKind, wc := r.wordCountBestKind()
	if r.opts.Dict != nil {
		tfKind, wcKind = *r.opts.Dict, *r.opts.Dict
		tf = decision{note: fmt.Sprintf("dict=%s (pinned by explicit override)", tfKind)}
		wc = tf
	}
	repl := make(map[string]workflow.Operator)
	decided := make(map[string]decision)
	setTF := func(name string, opts *tfidf.Options, op workflow.Operator, note bool) {
		if opts.DictKind != tfKind {
			opts.DictKind = tfKind
			repl[name] = op
		}
		if note {
			decided[name] = tf
		}
	}
	for _, name := range p.Nodes() {
		switch op := p.Node(name).Op().(type) {
		case *workflow.TFIDFOp:
			clone := *op
			setTF(name, &clone.Opts, &clone, true)
		case *workflow.TFMapOp:
			clone := *op
			setTF(name, &clone.Opts, &clone, true)
		case *workflow.DFReduceOp:
			clone := *op
			setTF(name, &clone.Opts, &clone, false)
		case *workflow.TransformOp:
			clone := *op
			setTF(name, &clone.Opts, &clone, false)
		case *workflow.WordCountOp:
			if op.DictKind != wcKind {
				clone := *op
				clone.DictKind = wcKind
				repl[name] = &clone
			}
			decided[name] = wc
		case *workflow.WordCountMapOp:
			if op.DictKind != wcKind {
				clone := *op
				clone.DictKind = wcKind
				repl[name] = &clone
			}
			decided[name] = wc
		case *workflow.WordCountReduceOp:
			if op.DictKind != wcKind {
				clone := *op
				clone.DictKind = wcKind
				repl[name] = &clone
			}
		}
	}
	// p is already the rule's private copy; only operator replacement needs
	// a rebuild (node operators are immutable through the public API).
	if len(repl) > 0 {
		p = clonePlan(p, repl)
	}
	record(p, decided)
	return p
}

// arffBytes estimates the on-disk size of the materialized intermediate:
// one header attribute line per term plus one "index value" pair per
// non-zero.
func (r *rule) arffBytes() float64 {
	pairs := float64(r.st.Docs) * r.st.AvgDocDistinct
	return pairs*14 + float64(r.st.DistinctTerms)*22 + float64(r.st.Docs)*4
}

// matrixBytes estimates the resident size of the in-memory intermediate: a
// sparse index+value pair per non-zero plus per-document slice overhead
// and the term table.
func (r *rule) matrixBytes() int64 {
	pairs := float64(r.st.Docs) * r.st.AvgDocDistinct
	return int64(pairs*12 + float64(r.st.Docs)*64 + float64(r.st.DistinctTerms)*24)
}

// chooseFusion decides every materialize -> load boundary: cancel it (the
// paper's workflow fusion) when the in-memory intermediate fits the memory
// budget, keep it otherwise. The estimated ARFF round-trip quantifies what
// fusion saves.
func (r *rule) chooseFusion(p *workflow.Plan) *workflow.Plan {
	hasPair := false
	for _, e := range p.Edges() {
		if from, to := p.Node(e.From), p.Node(e.To); from != nil && to != nil {
			_, isM := from.Op().(*workflow.MaterializeARFF)
			_, isL := to.Op().(*workflow.LoadARFF)
			if isM && isL {
				hasPair = true
				break
			}
		}
	}
	if !hasPair {
		return p
	}
	switch r.opts.Fusion {
	case FusionFuse:
		next := p.Apply(workflow.FuseRule())
		next.AnnotatePlan("fusion: fused (pinned by explicit override)")
		return next
	case FusionMaterialize:
		p.AnnotatePlan("fusion: kept materialized (pinned by explicit override)")
		return p
	}
	bytes := r.arffBytes()
	roundTripNS := (bytes/r.m.ARFFWriteBPS + bytes/r.m.ARFFReadBPS) * 1e9
	resident := r.matrixBytes()
	if resident <= r.opts.MemoryBudget {
		next := p.Apply(workflow.FuseRule())
		next.AnnotatePlan(fmt.Sprintf(
			"fusion: fused (saves est ARFF round-trip %s for %.1f MB; est resident %.1f MB <= budget %.1f MB)",
			metrics.FormatEstimate(time.Duration(roundTripNS)), bytes/1e6, float64(resident)/1e6, float64(r.opts.MemoryBudget)/1e6))
		return next
	}
	p.AnnotatePlan(fmt.Sprintf(
		"fusion: kept materialized (est resident %.1f MB > budget %.1f MB; paying est ARFF round-trip %s)",
		float64(resident)/1e6, float64(r.opts.MemoryBudget)/1e6, metrics.FormatEstimate(time.Duration(roundTripNS))))
	return p
}

// parallelWork estimates the total partitionable work of the plan in
// nanoseconds: tokenization plus the dictionary work of every TF/IDF and
// word-count node under its (already chosen) kind.
func (r *rule) parallelWork(p *workflow.Plan) float64 {
	work := float64(r.st.Bytes) * r.m.TokenizeNSPerByte
	for _, name := range p.Nodes() {
		switch op := p.Node(name).Op().(type) {
		case *workflow.TFIDFOp:
			work += r.tfidfCost(op.Opts.DictKind)
		case *workflow.WordCountOp:
			work += r.wordCountCost(op.DictKind)
		}
	}
	return work
}

// shardStages is the number of partition tasks one shard passes through in
// the expanded TF/IDF dataflow (split, tf-map, transform) — the overhead
// multiplier of one extra shard.
const shardStages = 3

// estimateSharded prices partitioned execution of work W over S shards on
// P workers: per-document work spreads across every worker (shards divide
// the pool's readers when S < P), the straggler tail is one shard's
// residual (the straggler fraction, derived from observed size variance or
// the fallback constant) and shrinks as shards get smaller, and every
// shard pays the per-task overhead (executor bookkeeping plus, on a remote
// backend, the ship cost). With one worker there is no parallelism to buy
// and no tail to hide, so shards are pure overhead on top of the serial
// work.
func estimateSharded(work float64, s, procs int, perTaskNS, straggler float64) float64 {
	est := work/float64(procs) + float64(s)*perTaskNS*shardStages
	if procs > 1 {
		est += straggler * work / float64(s)
	}
	return est
}

// chooseShardCount prices shard counts 1..4×procs (capped by maxShards,
// the document count) and returns the cheapest and its estimate.
// straggler supplies the imbalance allowance at each candidate count.
func chooseShardCount(work float64, procs, maxShards int, perTaskNS float64, straggler func(int) float64) (int, float64) {
	limit := 4 * procs
	if maxShards > 0 && limit > maxShards {
		limit = maxShards
	}
	bestS, bestEst := 1, estimateSharded(work, 1, procs, perTaskNS, straggler(1))
	for s := 2; s <= limit; s++ {
		if est := estimateSharded(work, s, procs, perTaskNS, straggler(s)); est < bestEst {
			bestS, bestEst = s, est
		}
	}
	return bestS, bestEst
}

// stragglerAt returns the straggler allowance at shard count s: the
// expected relative overshoot of the largest shard, derived from the
// sampled per-document size variation when Stats carries it. A shard of
// m documents has relative standard deviation ≈ cv/√m, and the largest
// of s such sums overshoots the mean by about √(2·ln s) standard
// deviations — floored at stragglerMin (scheduling jitter) and capped at
// the historical constant. Without a measured variance the constant is
// used as-is.
func (r *rule) stragglerAt(s int) float64 {
	cv := 0.0
	if r.st != nil {
		cv = r.st.DocSizeCV
	}
	if cv <= 0 || s < 2 {
		return stragglerFactor
	}
	m := float64(r.st.Docs) / float64(s)
	if m < 1 {
		m = 1
	}
	f := cv / math.Sqrt(m) * math.Sqrt(2*math.Log(float64(s)))
	if f > stragglerFactor {
		f = stragglerFactor
	}
	if f < stragglerMin {
		f = stragglerMin
	}
	return f
}

// chooseShards decides the partitioned-execution degree, replacing the
// blind 2×GOMAXPROCS default: the measured per-task overhead is weighed
// against the tail-hiding extra shards buy. An explicit Options.Shards
// pins the count; the decision is annotated either way and always applied
// as PartitionRule(s) — one shard when sharding would not pay. A plan
// that is already partitioned is left alone — the pass prices logical
// operators, not expanded shard kernels.
func (r *rule) chooseShards(p *workflow.Plan) *workflow.Plan {
	for _, name := range p.Nodes() {
		if sp, ok := p.Node(name).Op().(workflow.Splitter); ok {
			p.AnnotatePlan(fmt.Sprintf(
				"sharding: plan already partitioned (%s, %d shards); shard decision not applied",
				name, sp.PartitionCount()))
			return p
		}
	}
	work := r.parallelWork(p)
	if work == 0 {
		// Nothing text-partitionable to price: expand the K-Means loops so
		// chooseKMeans prices their shard count.
		return p.Apply(workflow.PartitionRule(r.opts.Shards))
	}
	var (
		s       int
		est     float64
		why     string
		bp      = r.opts.Backend
		procs   = bp.slots(r.opts.Procs)
		perTask = bp.perTaskNS(r.m.ShardTaskNS)
	)
	if r.opts.Shards > 0 {
		s = r.opts.Shards
		est = estimateSharded(work, s, procs, perTask, r.stragglerAt(s))
		why = fmt.Sprintf("shards=%d (est %s; pinned by explicit override)",
			s, metrics.FormatEstimate(time.Duration(est)))
	} else {
		s, est = chooseShardCount(work, procs, r.st.Docs, perTask, r.stragglerAt)
		why = fmt.Sprintf("shards=%d (est %s; work %s over %d slots, %s/task overhead, straggler %.3f)",
			s, metrics.FormatEstimate(time.Duration(est)), metrics.FormatEstimate(time.Duration(work)),
			procs, metrics.FormatEstimate(time.Duration(perTask)), r.stragglerAt(s))
	}
	if bp.Remote {
		why += "; backend=" + bp.String()
	}
	next := p.Apply(workflow.PartitionRule(s))
	annotated := false
	for _, name := range next.Nodes() {
		if _, ok := next.Node(name).Op().(*workflow.PartitionOp); ok {
			next.Annotate(name, why)
			annotated = true
		}
	}
	if !annotated {
		// PartitionRule found no partitionable operator fed by a scan, so
		// the decision could not be applied; say so rather than claiming a
		// shard count the plan does not have.
		next.AnnotatePlan(optimizerNotePrefix +
			" sharding not applicable (no partitionable operator fed by a corpus scan); wanted " + why)
	}
	return next
}

// kmIters returns the iteration estimate the K-Means pricing multiplies
// by: the sampled pilot estimate when Stats carries one, a logarithmic
// bound otherwise.
func (r *rule) kmIters() int {
	if r.st.KMeansIters >= 1 {
		return r.st.KMeansIters
	}
	return fallbackIterEstimate(r.st.Docs)
}

// kmeansWork estimates the total assignment work of the K-Means stage in
// nanoseconds: iterations × documents × mean non-zeros × k distance
// units at the calibrated full-scan rate (CostModel.KMeansAssignNS) — the
// kernel every document-iteration runs. This is the
// iteration-count-dependent cost the model could not capture while
// K-Means was an opaque whole-matrix operator.
func (r *rule) kmeansWork(k, iters int) float64 {
	if k < 1 {
		k = 8 // the operator's conventional default when unconfigured
	}
	nnz := float64(r.st.Docs) * r.st.AvgDocDistinct
	return float64(iters) * nnz * float64(k) * r.m.KMeansAssignNS
}

// loopEstimate prices the iterative K-Means loop at s shards on procs
// workers: assignment work spreads over min(s, procs) workers — a 1-shard
// loop is serial — every
// iteration pays s shard tasks (each at perTaskNS, which includes the
// backend ship cost when remote) plus the barrier task (always local, so
// taskNS only), and on several workers the straggler tail is one shard's
// residual per iteration (straggler·work/s summed over iterations).
func loopEstimate(work float64, s, iters, procs int, taskNS, perTaskNS, straggler float64) float64 {
	par := s
	if par > procs {
		par = procs
	}
	est := work/float64(par) + float64(iters)*(float64(s)*perTaskNS+taskNS)
	if procs > 1 && s > 1 {
		est += straggler * work / float64(s)
	}
	return est
}

// chooseLoopShards returns the cheapest loop shard count (up to 4×procs,
// capped by the document count) and its estimate.
func chooseLoopShards(work float64, iters, procs, maxShards int, taskNS, perTaskNS float64, straggler func(int) float64) (int, float64) {
	limit := 4 * procs
	if maxShards > 0 && limit > maxShards {
		limit = maxShards
	}
	bestS, bestEst := 1, loopEstimate(work, 1, iters, procs, taskNS, perTaskNS, straggler(1))
	for s := 2; s <= limit; s++ {
		if est := loopEstimate(work, s, iters, procs, taskNS, perTaskNS, straggler(s)); est < bestEst {
			bestS, bestEst = s, est
		}
	}
	return bestS, bestEst
}

// chooseKMeans prices the K-Means stage — the iterative phase the
// optimizer could not see before the loop was decomposed into shard
// kernels — and tunes the loop shard count: every KMAssignOp (chooseShards
// expanded the logical KMeansOp) gets its loop shard count set from the
// cost model (the loop count is independent of the TF/IDF map shard count
// and is annotated as such). An explicit Options.Shards pin applies to the
// loop exactly as it does to the map stages. Models without a calibrated
// kernel cost (pre-v2 caches handed in directly) skip the stage. Each
// loop's estimate, pinned or chosen, is its predicted kmeans phase.
func (r *rule) chooseKMeans(p *workflow.Plan) *workflow.Plan {
	if r.m.KMeansAssignNS <= 0 {
		return p
	}
	iters := r.kmIters()
	repl := make(map[string]workflow.Operator)
	decided := make(map[string]decision)
	for _, name := range p.Nodes() {
		op, ok := p.Node(name).Op().(*workflow.KMAssignOp)
		if !ok {
			continue
		}
		work := r.kmeansWork(op.Opts.K, iters)
		var (
			s       int
			est     float64
			why     string
			bp      = r.opts.Backend
			procs   = bp.slots(r.opts.Procs)
			perTask = bp.perTaskNS(r.m.ShardTaskNS)
		)
		if r.opts.Shards > 0 {
			s = r.opts.Shards
			est = loopEstimate(work, s, iters, procs, r.m.ShardTaskNS, perTask, r.stragglerAt(s))
			why = fmt.Sprintf("loop shards=%d (est %s; pinned by explicit override)",
				s, metrics.FormatEstimate(time.Duration(est)))
		} else {
			s, est = chooseLoopShards(work, iters, procs, r.st.Docs, r.m.ShardTaskNS, perTask, r.stragglerAt)
			why = fmt.Sprintf(
				"loop shards=%d (est %s; ~%d iterations × %s assign/iter; %s/task overhead; may differ from map shard count)",
				s, metrics.FormatEstimate(time.Duration(est)), iters,
				metrics.FormatEstimate(time.Duration(work/float64(iters))), metrics.FormatEstimate(time.Duration(perTask)))
		}
		if bp.Remote {
			why += "; backend=" + bp.String()
		}
		if op.Shards != s {
			repl[name] = &workflow.KMAssignOp{Opts: op.Opts, Shards: s}
		}
		decided[name] = decision{note: why, est: []phaseEst{{kmeans.PhaseKMeans, est}}}
	}
	if len(repl) > 0 {
		p = clonePlan(p, repl)
	}
	record(p, decided)
	return p
}

// clonePlan rebuilds p node-for-node and edge-for-edge through the public
// builder API, substituting operators from repl, and carries annotations
// and predictions over — the copy the rule mutates instead of its
// (immutable) input.
func clonePlan(p *workflow.Plan, repl map[string]workflow.Operator) *workflow.Plan {
	next := workflow.NewPlan()
	for _, name := range p.Nodes() {
		op := p.Node(name).Op()
		if r, ok := repl[name]; ok {
			op = r
		}
		next.Add(name, op)
	}
	for _, e := range p.Edges() {
		next.ConnectPort(e.From, e.To, e.Port)
	}
	for _, note := range p.PlanAnnotations() {
		next.AnnotatePlan(note)
	}
	for _, name := range p.Nodes() {
		if note := p.Annotation(name); note != "" {
			next.Annotate(name, note)
		}
	}
	if pred := p.Predicted(); pred != nil {
		for _, phase := range pred.Phases() {
			next.Predict(phase, pred.Get(phase))
		}
	}
	return next
}
