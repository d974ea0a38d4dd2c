// Package obs is the observability substrate for the workflow engine: a
// low-overhead task-level span collector threaded through the executor and
// backends, exporters for Chrome trace-event JSON (Perfetto-loadable) and
// plain-text per-node tables, a plan "autopsy" that prints each traced
// node's measurements under the plan's Explain text and sets the
// optimizer's per-phase predictions (the plan's Predicted breakdown, never
// its annotation prose) against the run's measured phase breakdown, and a
// dependency-free Prometheus text registry backing hpa-serve's GET
// /metrics.
//
// The collector is deliberately simple: one Span per scheduled (node, shard)
// task, recorded once when the task finishes, plus free-form instant Events
// for wire- and loop-level happenings (global-table re-ships, per-iteration
// K-Means moved counts, affinity session hits). All Tracer methods are safe
// on a nil receiver and reduce to a single branch-predictable pointer
// compare, so untraced runs pay (well under 1%) nothing — see
// BenchmarkTracingOverhead.
//
// A Tracer is safe for concurrent use; Snapshot returns an immutable Trace
// for the exporters.
package obs

import (
	"sort"
	"sync"
	"time"
)

// Span records one scheduled task: which plan node and kernel ran, where
// (backend, worker), which shard and loop iteration, which figure phase,
// when (queue wait versus run time) and the disk traffic it caused. Wire
// bytes are filled by remote backends only.
type Span struct {
	// Node is the plan node name the task belongs to.
	Node string
	// Op is the operator or kernel name (e.g. "kmeans.assign").
	Op string
	// Kind is the task kind: "run", "map" (one shard of a map node),
	// "loop-begin", "loop-prep", "loop-prep-end", "loop-shard", "loop-end"
	// or "loop-finish".
	Kind string
	// Phase is the Figure 3/4 legend phase the task's time counts toward
	// ("input+wc", "kmeans", ...): the phase its operator declares, empty
	// for operators that declare none (splits, sources, joins).
	Phase string
	// Shard is the shard index within the node (0 for unsharded tasks).
	Shard int
	// Iter is the loop iteration for loop-shard tasks, -1 otherwise.
	Iter int
	// Backend is the executing backend's Name().
	Backend string
	// Worker identifies the remote worker lane ("" for in-process tasks).
	Worker string
	// Queued, Start and End delimit the task's life: Queued→Start is queue
	// wait (spawn to goroutine start), Start→End is run time.
	Queued, Start, End time.Time
	// IOBytes and IOOpens count the disk traffic the task caused in
	// process — bytes through the device and files opened — wherever the
	// run charges a pario.DiskSim (document reads, ARFF write and read,
	// output files), whether or not one is attached.
	IOBytes int64
	IOOpens int
	// BytesOut and BytesIn count request and reply wire bytes (remote only).
	BytesOut, BytesIn int64
	// WorkerRun is the kernel run time the worker reported in its reply
	// frames (remote only): Dur minus it is what shipping and absorbing
	// the task cost the coordinator.
	WorkerRun time.Duration
	// ValueRawBytes and ValueCodedBytes split the task's XOR-coded f64
	// value blocks into the size they would occupy fixed-width and what
	// they took on the wire (see flatwire.ValueBytes). Deltas of
	// process-wide counters: with concurrent tasks a span's split is
	// approximate, but the totals across all spans sum exactly.
	ValueRawBytes, ValueCodedBytes int64
	// Resend marks a task that needed a second round trip to re-ship cached
	// state (the needResend protocol).
	Resend bool
	// Err marks a failed task.
	Err bool
}

// Wait returns the task's queue wait (zero if Queued was not recorded).
func (s *Span) Wait() time.Duration {
	if s.Queued.IsZero() {
		return 0
	}
	return s.Start.Sub(s.Queued)
}

// Dur returns the task's run time.
func (s *Span) Dur() time.Duration { return s.End.Sub(s.Start) }

// Event is a point-in-time happening attached to a trace: wire cache
// traffic, K-Means iteration outcomes, affinity session reuse.
type Event struct {
	// Time is when the event happened.
	Time time.Time
	// Cat groups events ("wire", "kmeans").
	Cat string
	// Name identifies the event kind (e.g. "global-reship", "iteration").
	Name string
	// Label carries free-form detail (e.g. a session key).
	Label string
	// Value is the event's measurement (bytes, moved count, ...).
	Value int64
}

// Tracer collects spans and events for one run. The zero value is not
// usable; construct with NewTracer. All methods tolerate a nil receiver so
// instrumentation sites need no guards: `ctx.Tracer.Record(...)` on an
// untraced context is one compare-and-return.
type Tracer struct {
	start  time.Time
	mu     sync.Mutex
	spans  []Span
	events []Event
}

// NewTracer returns an empty tracer; its epoch (the trace's ts=0) is now.
func NewTracer() *Tracer { return &Tracer{start: time.Now()} }

// Enabled reports whether spans are being collected (i.e. t is non-nil).
// Instrumentation that must do work before recording — snapshotting
// timestamps, counting bytes — gates on this.
func (t *Tracer) Enabled() bool { return t != nil }

// Record appends one finished task span.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Emit appends one instant event stamped now.
func (t *Tracer) Emit(cat, name, label string, value int64) {
	if t == nil {
		return
	}
	e := Event{Time: time.Now(), Cat: cat, Name: name, Label: label, Value: value}
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Epoch returns the tracer's start time (ts=0 of the exported trace); zero
// for a nil tracer.
func (t *Tracer) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// Snapshot copies the collected spans and events into an immutable Trace.
// The tracer keeps collecting; later snapshots include earlier spans.
func (t *Tracer) Snapshot() *Trace {
	if t == nil {
		return &Trace{}
	}
	t.mu.Lock()
	tr := &Trace{
		Start:  t.start,
		Spans:  append([]Span(nil), t.spans...),
		Events: append([]Event(nil), t.events...),
	}
	t.mu.Unlock()
	return tr
}

// Trace is an immutable snapshot of a tracer: the raw material for the
// exporters and the autopsy.
type Trace struct {
	// Start is the trace epoch (exported ts=0).
	Start time.Time
	// Spans holds one entry per finished task, in completion order.
	Spans []Span
	// Events holds the instant events, in emission order.
	Events []Event
}

// Workers returns the distinct non-empty worker labels, sorted — the remote
// swimlanes of the exported trace.
func (tr *Trace) Workers() []string {
	seen := make(map[string]bool)
	for i := range tr.Spans {
		if w := tr.Spans[i].Worker; w != "" && !seen[w] {
			seen[w] = true
		}
	}
	out := make([]string, 0, len(seen))
	for w := range seen {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// Nodes returns the distinct node names, sorted.
func (tr *Trace) Nodes() []string {
	seen := make(map[string]bool)
	for i := range tr.Spans {
		if n := tr.Spans[i].Node; !seen[n] {
			seen[n] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
