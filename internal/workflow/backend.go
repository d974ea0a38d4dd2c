package workflow

import (
	"fmt"
	"sync"
)

// This file defines the pluggable execution-backend contract: where the
// executor's (node, shard) tasks actually run. The scheduler (exec.go)
// stays the single owner of dependency tracking, ordering and reductions;
// a Backend only decides, per dispatched task, whether the task's work
// executes in this process (the zero-copy fast path every backend can
// always take) or is shipped to a worker process as a serializable
// descriptor. Because reductions remain on the coordinator and every
// merge stays shard-index-ordered, results are bit-identical across
// backends at any shard count — the determinism contract of the
// partitioned substrate extends unchanged to distributed execution.
//
// What can leave the process: tasks whose operator (Remotable) or loop
// state (RemotableLoop) can describe a shard's inputs in serializable form
// — the TF/IDF count and transform kernels (shards of an on-disk corpus,
// described by pario.SourceSpec) and the K-Means loop's wave shards: a
// seed round's min-distance scan (last seed out, distance partials back)
// or an iteration's assignment (a centroid block out once per worker,
// moved count, assignments and distances back per shard). What cannot:
// splits, reductions (DF tree-merge, the gather, the loop's per-wave
// barrier — seed draw or centroid update) and output — they touch
// coordinator-owned state and run locally under every backend.

// Task is one schedulable unit of plan execution handed to a Backend by
// the executor.
type Task struct {
	// Run executes the task in-process against the coordinator's state —
	// always available, and the zero-copy path LocalBackend takes
	// unconditionally.
	Run func() (Value, error)
	// Remote, when non-nil, is the task's serializable description for
	// backends that ship work to worker processes. Tasks bound to
	// coordinator state (reductions, loop begin/barrier/finish, splits)
	// have none.
	Remote *RemoteTask
}

// RemoteTask describes one shard task in serializable form: a kernel name
// resolved through the worker registry (registerKernel) plus the kernel's
// flat-encoded arguments, and the coordinator-side hook that integrates
// the kernel's reply.
type RemoteTask struct {
	// Op is the kernel name in the worker registry.
	Op string
	// Args appends the kernel's argument body, in the flat layout the
	// kernel decodes, to dst and returns the extended slice. The backend
	// calls it once per send.
	Args func(dst []byte) []byte
	// Affinity, when non-empty, pins every task sharing the key to one
	// worker — how loop shards keep their stored documents on the worker
	// that holds them across iterations.
	Affinity string
	// Scope, when non-empty, names the plan run that created the task. A
	// backend groups affinity pins by scope so the executor can release a
	// whole run's pins when it finishes — the safety net behind the loop
	// states' own targeted release, and the reason a long-lived serve
	// backend cannot leak pins from runs that errored out mid-loop.
	Scope string
	// Inline, when non-nil, appends the arguments with every input Args
	// names by store key inlined, or the descriptor that re-derives it (a
	// transform's count) — what the backend sends once after the worker
	// misses (statusMiss). A task without it re-sends Args.
	Inline func(dst []byte) []byte
	// Absorb decodes the kernel's flat reply and integrates it into
	// coordinator state, returning the task's output value. It runs on the
	// coordinator, in the task's goroutine.
	Absorb func(reply []byte) (Value, error)

	// keyed, when non-nil, is the body the kernel resolves from the worker
	// store by a key Args names (see keyedBody).
	keyed *keyedBody
}

// keyedBody is a request body that travels apart from the tasks needing
// it — a K-Means iteration's centroid block, the only one: Args name its
// key, a worker keeps it in its store under that key, and the body itself
// crosses the wire as a store frame — a request to the inline kernel op,
// written immediately ahead of a task's frame — with the first task the
// backend sends each worker; its siblings on that worker only name it. A
// kernel that finds no body under the key, or a delta whose base it does
// not hold, misses, and the backend re-sends the task behind a store frame
// carrying the whole body (full) — correctness never depends on arrival
// order or on what a worker still holds.
type keyedBody struct {
	op     string        // the inline worker kernel that stores the body
	encode func() []byte // the store kernel's argument, key and body; called at most once
	// full, when non-nil, encodes the self-contained form a forced resend
	// ships in place of encode's delta; called at most once.
	full func() []byte

	once, fullOnce sync.Once
	body, fullBody []byte

	mu   sync.Mutex
	sent map[int]bool // workers the body has been sent to
}

// bytes returns the encoded store argument: the full form for a forced
// resend when the body has one.
func (k *keyedBody) bytes(force bool) []byte {
	if force && k.full != nil {
		k.fullOnce.Do(func() { k.fullBody = k.full() })
		return k.fullBody
	}
	k.once.Do(func() { k.body = k.encode() })
	return k.body
}

// claim reports whether a task about to be written to the given worker
// must be preceded by the body's store frame — its first send to that
// worker, or force (a resend after a miss) — and records the send. Called
// under the worker connection's write lock, so exactly one task per worker
// claims the body and its frames precede every sibling's.
func (k *keyedBody) claim(worker int, force bool) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	if !force && k.sent[worker] {
		return false
	}
	if k.sent == nil {
		k.sent = make(map[int]bool)
	}
	k.sent[worker] = true
	return true
}

// Backend dispatches the executor's shard tasks. Implementations must be
// safe for concurrent RunTask calls — the executor issues one per in-flight
// task.
type Backend interface {
	// Name labels the backend in plan annotations and errors.
	Name() string
	// Workers returns how many remote worker processes back the backend
	// (0 = none; the executor then skips building remote descriptors).
	Workers() int
	// RunTask executes one task: t.Run in-process, or t.Remote shipped to
	// a worker. Implementations may block; the call runs inside a pool
	// task, so in-flight remote calls occupy pool workers.
	RunTask(ctx *Context, t *Task) (Value, error)
}

// LocalBackend is the default backend: every task runs in-process on the
// helping-join pool exactly as before backends existed — zero copies, zero
// serialization, no behavior change.
type LocalBackend struct{}

// Name implements Backend.
func (LocalBackend) Name() string { return "local" }

// Workers implements Backend.
func (LocalBackend) Workers() int { return 0 }

// RunTask implements Backend.
func (LocalBackend) RunTask(_ *Context, t *Task) (Value, error) { return t.Run() }

// Remotable is implemented by partition kernels whose shard tasks can ship
// to worker processes.
type Remotable interface {
	PartitionKernel
	// RemoteTask returns the serializable descriptor of shard idx over the
	// given inputs, or false when this particular task cannot leave the
	// process (in-memory source, unserializable options) and must run via
	// Task.Run.
	RemoteTask(ins []Value, idx, total int) (*RemoteTask, bool)
}

// RemotableLoop is implemented by loop states whose wave shard tasks can
// ship. RemoteWaveTask is called fresh for every shard of every wave (the
// descriptor carries the wave's state, e.g. the last chosen seed or the
// current centroids); a shard's tasks share one affinity key, so every
// wave of the shard lands on the worker holding its documents.
type RemotableLoop interface {
	LoopState
	RemoteWaveTask(w, idx, total int) (*RemoteTask, bool)
}

// affinityReleaser is implemented by backends that pin tasks by affinity
// key (RPCBackend) and can drop pins, and what workers hold under them.
type affinityReleaser interface{ ReleaseAffinity(keys ...string) }

// scopeReleaser is implemented by backends that track affinity pins per
// plan run (RemoteTask.Scope); the executor releases the run's scope when
// Plan.Run returns, on every path including errors.
type scopeReleaser interface{ ReleaseScope(scope string) }

// remoteLoopOp marks IterativeOps whose loop states implement
// RemotableLoop, so AnnotateBackend can report placement without running
// the plan.
type remoteLoopOp interface{ loopShardsRemotable() }

// AnnotateBackend attaches execution-placement annotations for running the
// plan on b, rendered by Plan.Explain: which nodes' shard tasks may ship
// to workers and what stays on the coordinator. It mutates and returns p.
// Placement is advisory — at run time a task whose inputs cannot be
// described (in-memory source, custom stopwords) falls back to the
// coordinator.
func AnnotateBackend(p *Plan, b Backend) *Plan {
	if b == nil || b.Workers() == 0 {
		p.AnnotatePlan("backend: local (in-process helping-join pool)")
		return p
	}
	p.AnnotatePlan(fmt.Sprintf(
		"backend: %s (%d workers); splits, reductions, seed draws and output stay on the coordinator",
		b.Name(), b.Workers()))
	for _, name := range p.Nodes() {
		op := p.Node(name).Op()
		if _, ok := op.(Remotable); ok {
			when := "the shard is serializable"
			if _, ok := op.(*TransformOp); ok {
				when = "the shard's count ran remotely"
			}
			p.Annotate(name, fmt.Sprintf("tasks: remote (%s) when %s", b.Name(), when))
			continue
		}
		if _, ok := op.(remoteLoopOp); ok {
			p.Annotate(name, fmt.Sprintf(
				"loop shard tasks: remote (%s), seed scans included; seed draws and per-iteration centroid update: coordinator", b.Name()))
		}
	}
	return p
}
