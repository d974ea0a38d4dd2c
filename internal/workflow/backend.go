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
// state (RemotableLoop / RemotablePrepare) can describe a shard's inputs
// in serializable form — the TF/IDF count and transform kernels (shards of
// an on-disk corpus, described by pario.SourceSpec), the K-Means assignment
// loop's per-iteration shard tasks (a centroid block out once per worker,
// moved count, assignments and distances back per shard) and
// its seeding rounds' per-shard min-distance scans (last seed out, distance
// partials back). What cannot: splits, reductions (DF tree-merge, streaming
// gather, the loop's per-iteration barrier and per-round seed draw) and
// output — they touch coordinator-owned state and run locally under every
// backend.

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
// resolved through the worker registry (RegisterKernel) plus the kernel's
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
	// worker — how loop shards keep their cached documents on the worker
	// that holds them across iterations.
	Affinity string
	// Scope, when non-empty, names the plan run that created the task. A
	// backend groups affinity pins by scope so the executor can release a
	// whole run's pins when it finishes — the safety net behind the loop
	// states' own targeted release, and the reason a long-lived serve
	// backend cannot leak pins from runs that errored out mid-loop.
	Scope string
	// Absorb decodes the kernel's flat reply and integrates it into
	// coordinator state, returning the task's output value. It runs on the
	// coordinator, in the task's goroutine.
	Absorb func(reply []byte) (Value, error)

	// keyed, when non-nil, is the body the kernel resolves from a
	// worker-side cache by a key Args names (see keyedBody).
	keyed *keyedBody
}

// keyedBody is a request body that travels apart from the tasks needing
// it: Args name its key, a worker caches it under that key, and the body
// itself crosses the wire as a store frame — a request to the inline
// kernel op, written immediately ahead of a task's frame — only when the
// worker has to be sent it. The global term table ships this way
// optimistically (content-addressed and long-lived: key only, the body on
// a worker's first miss), a K-Means iteration's centroid block eagerly
// (each iteration changes it: the first task the backend sends a worker in
// the wave carries the rows the update rewrote, its siblings only name
// it). Either way a kernel that finds no body under the key — or, for a
// delta, not the state it updates — says so in its reply, Absorb turns
// that into needResend{Keyed: true}, and the backend re-sends behind a
// store frame carrying the whole body (full) — correctness never depends
// on arrival order or on what a worker still remembers.
type keyedBody struct {
	op     string        // the inline worker kernel that caches the body
	encode func() []byte // the store kernel's argument, key and body; called at most once
	// full, when non-nil, encodes the self-contained form a forced resend
	// ships in place of encode's delta; called at most once.
	full  func() []byte
	eager bool // ship with the first task sent to each worker, not on its miss

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
// must be preceded by the body's store frame — force (a resend after a
// miss), or an eager body's first send to that worker — and records the
// send. Called under the worker connection's write lock, so exactly one
// task per worker claims an eager body and its frames precede every
// sibling's.
func (k *keyedBody) claim(worker int, force bool) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	if !force && (!k.eager || k.sent[worker]) {
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

// RemotableLoop is implemented by loop states whose per-iteration shard
// tasks can ship. RemoteShardTask is called fresh each iteration (the
// descriptor carries iteration state, e.g. current centroids).
type RemotableLoop interface {
	LoopState
	RemoteShardTask(idx, total int) (*RemoteTask, bool)
}

// RemotablePrepare is implemented by PreparedLoop states whose preparation
// shard tasks can ship. RemotePrepareTask is called fresh each round (the
// descriptor carries round state, e.g. the last chosen seed); tasks share
// the loop's affinity keys so a shard's seed scans land on the worker that
// will hold its documents for the iterations.
type RemotablePrepare interface {
	PreparedLoop
	RemotePrepareTask(round, idx, total int) (*RemoteTask, bool)
}

// affinityReleaser is implemented by backends that pin tasks by affinity
// key (RPCBackend) and can drop pins once the keyed work is finished.
type affinityReleaser interface{ ReleaseAffinity(keys ...string) }

// scopeReleaser is implemented by backends that track affinity pins per
// plan run (RemoteTask.Scope); the executor releases the run's scope when
// Plan.Run returns, on every path including errors.
type scopeReleaser interface{ ReleaseScope(scope string) }

// needResend is the error RemoteTask.Absorb returns when a worker's reply
// is a cache miss — the worker lacks a body the coordinator replaced with
// its key (the task's keyed body: the global term table, a centroid block)
// or with a session name (a shard's counts). The backend then re-sends the
// task to the SAME worker — any other would miss again — and absorbs the
// second reply. One resend is allowed per task: a second miss is a hard
// error.
type needResend struct {
	// Keyed asks for the task's keyed body to be shipped ahead of the
	// resend.
	Keyed bool
	// Args, when non-nil, replaces the task's arguments on the resend
	// (missing session state inlined).
	Args func(dst []byte) []byte
}

// Error implements error.
func (*needResend) Error() string {
	return "workflow: worker reply requests a resend with inlined payload"
}

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
			p.Annotate(name, fmt.Sprintf("tasks: remote (%s) when the shard is serializable", b.Name()))
			continue
		}
		if _, ok := op.(remoteLoopOp); ok {
			p.Annotate(name, fmt.Sprintf(
				"loop shard tasks: remote (%s), seed scans included; seed draws and per-iteration centroid update: coordinator", b.Name()))
		}
	}
	return p
}
