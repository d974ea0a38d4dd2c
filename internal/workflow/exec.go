package workflow

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"hpa/internal/metrics"
	"hpa/internal/obs"
)

// runScopeSeq numbers plan runs process-wide; each run's remote tasks carry
// the resulting scope so a scope-aware backend can release every affinity
// pin the run created once Plan.Run returns (see RemoteTask.Scope).
var runScopeSeq atomic.Uint64

// taskKind distinguishes the loop-node task flavors; every other node class
// uses taskRun.
type taskKind int

const (
	taskRun taskKind = iota
	// taskLoopBegin consumes an iterative node's gathered inputs and
	// allocates its loop state.
	taskLoopBegin
	// taskLoopPrep is one shard of the current preparation round (a
	// PreparedLoop's pre-iteration waves, e.g. K-Means++ seed scans).
	taskLoopPrep
	// taskLoopPrepEnd is the per-round preparation barrier: it runs alone
	// after every prep shard of the round completed.
	taskLoopPrepEnd
	// taskLoopShard is one shard of the current loop iteration.
	taskLoopShard
	// taskLoopEnd is the per-iteration barrier: it hands the iteration's
	// partials (in shard order) to EndIteration, which decides whether to
	// iterate.
	taskLoopEnd
	// taskLoopFinish produces the loop node's output.
	taskLoopFinish
)

// Phased is implemented by an operator whose tasks count toward one of the
// Figure 3/4 phases. The executor times every task of the node and adds
// the node's wall-clock extent to Context.Breakdown under that phase; an
// operator without the method (a split, a source, a join) counts toward
// none.
type Phased interface {
	Phase() string
}

// taskDone is one partition task's completion report, delivered to the
// scheduling goroutine over a buffered channel (sends never block a pool
// worker). start and end are the task's two clock reads, zero when it
// never ran.
type taskDone struct {
	node, part int
	kind       taskKind
	out        Value
	start, end time.Time
	err        error
}

// taskRef identifies a dispatchable partition task.
type taskRef struct {
	node, part int
	kind       taskKind
}

// pendingPart buffers a shard that reached a stream reducer before its
// scalar inputs did.
type pendingPart struct {
	idx  int
	part Value
}

// execState tracks one node through a run.
type execState struct {
	ins     []Value // gathered port values
	missing int     // gathered ports still unfilled (excludes port 0 for map/stream nodes)

	// Map-node bookkeeping: shard payloads of the port-0 input.
	parts     []Value
	partReady []bool
	spawned   []bool

	// Output bookkeeping.
	outParts []Value // one slot per partition (scalar nodes use one)
	outLeft  int     // partitions not yet produced

	// Stream-reduction bookkeeping.
	rstate   any
	began    bool
	pending  []pendingPart
	absorbed int

	// Loop-node bookkeeping (classLoop).
	loop      LoopState
	loopParts []any // current iteration's partials, by shard
	loopLeft  int   // shards of the current iteration still running
	loopIter  int   // current iteration index (-1 before the first wave)

	// Preparation-round bookkeeping (PreparedLoop states only).
	prepRound  int // current preparation round
	prepRounds int // total preparation rounds
	prepLeft   int // prep shards of the current round still running

	// first and last delimit the node's wall-clock extent: the earliest
	// task start and the latest task end.
	first, last time.Time
	failed      bool
}

// Run validates the plan and executes it as a set of partition tasks on
// ctx.Pool. The unit of scheduling is (node, partition), not the node:
//
//   - a scalar node runs as one Run task (RunAll with several ports) once
//     every input port holds its (gathered) value;
//   - a Splitter node runs one Split task per shard;
//   - a PartitionKernel node runs one RunPartition task per shard of its
//     port-0 producer, each dispatched the moment its shard of the input
//     and the remaining (scalar) ports are ready — so shard 3 can be
//     counting words while shard 1 is already being transformed, with no
//     bulk-synchronous barrier between map stages;
//   - a StreamReducer node absorbs shards in completion order on the
//     scheduling goroutine and finishes as one task after the last;
//   - an IterativeOp node runs as a loop of partition tasks: one BeginLoop
//     task over the gathered inputs, then — when the loop state is a
//     PreparedLoop — one PrepareShard task per shard per preparation round,
//     each round closed by an EndPrepare barrier task (K-Means++ seeding
//     runs its k−1 seed rounds this way, sharded), then per iteration one
//     RunShard task per loop shard followed by one EndIteration barrier
//     task that receives the partials in shard-index order (regardless of
//     shard scheduling) and decides whether to re-dispatch the same shard
//     task set, and finally one Finish task producing the scalar output;
//   - every other node consuming a partitioned output receives the
//     gathered *Partitions (shards in index order) once all shards exist.
//
// Scheduling runs on a dedicated goroutine that only reacts to task
// completions, so dispatch stays responsive no matter how long individual
// tasks run; the goroutine calling Run meanwhile helps the pool (a helping
// join, like par.Group.Wait), so Run may itself be called from inside a
// pool task without risking deadlock. Intermediate outputs are released as
// soon as every consumer edge has received them; outputs with several
// consumers are handed to each edge before the executor drops its
// reference, so a diamond plan (one scan feeding two consumers) never
// loses data to early release.
//
// The executor reads the clock once when a task starts and once when it
// ends; the two reads are the task's span when traced and widen its
// node's [first start, last end] extent either way. When the run finishes,
// on error paths too, every node whose operator declares a phase (Phased)
// adds its extent to ctx.Breakdown under that phase, in topological order:
// concurrent shards count once, phase keys and their order are
// deterministic regardless of how shards interleaved, and Figure 3/4
// accounting is the roll-up of the tasks' own intervals. Observe is
// invoked from the scheduling goroutine (serialized) after each node
// completes, with the gathered value for partitioned nodes. ctx.Ctx
// cancels cooperatively: tasks not yet started are abandoned once the
// context is done.
//
// Under ctx.Serial, tasks run one at a time in dependency order, so no two
// spans of a traced run overlap. A traced task's span carries its
// operator's declared phase.
//
// A plan may reach Run still logical: partitionable operators (TFIDFOp,
// WordCountOp) and KMeansOp that no rewrite expanded are expanded here by
// PartitionRule(0), at the auto shard count — they have no run method of
// their own, and Validate rejects one the rule cannot expand. A sink
// expanded this way answers under its logical node name.
//
// The returned map holds the output dataset of every sink (a node with no
// outgoing edges), keyed by node name; partitioned sinks yield a
// *Partitions.
func (p *Plan) Run(ctx *Context) (map[string]Value, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	phys := p.Apply(PartitionRule(0))
	sinks, err := phys.run(ctx)
	if err != nil {
		return nil, err
	}
	for _, name := range p.order {
		if phys.nodes[name] == nil && len(p.consumersOf(name)) == 0 {
			out := expandedOut(name, p.nodes[name].op)
			sinks[name] = sinks[out]
			delete(sinks, out)
		}
	}
	return sinks, nil
}

// run executes a physical plan (see Run).
func (p *Plan) run(ctx *Context) (map[string]Value, error) {
	if ctx.Breakdown == nil {
		ctx.Breakdown = metrics.NewBreakdown()
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	order, err := p.topoOrder()
	if err != nil {
		return nil, err
	}

	idx := make(map[string]int, len(order))
	for i, n := range order {
		idx[n.name] = i
	}
	infoByName := p.partitionInfo(order)
	info := make([]pinfo, len(order))
	phases := make([]string, len(order))
	for i, n := range order {
		info[i] = infoByName[n.name]
		if ph, ok := n.op.(Phased); ok {
			phases[i] = ph.Phase()
		}
	}
	consumers := make([][]Edge, len(order)) // outgoing edges per node index
	for _, e := range p.edges {
		i := idx[e.From]
		consumers[i] = append(consumers[i], e)
	}
	perPart := make([][]bool, len(order)) // consumer edge takes shards, not the gathered value
	totalTasks := 0
	for i := range order {
		perPart[i] = make([]bool, len(consumers[i]))
		for j, e := range consumers[i] {
			perPart[i][j] = consumesPerPart(infoByName, p, e)
		}
		totalTasks += info[i].nparts + 1 // + a possible stream finish task
	}

	states := make([]execState, len(order))
	for i, n := range order {
		arity := len(n.op.Inputs())
		st := &states[i]
		st.ins = make([]Value, arity)
		st.missing = arity
		np := info[i].nparts
		outN := np
		switch info[i].class {
		case classMap:
			st.missing-- // port 0 arrives shard-by-shard
			st.parts = make([]Value, np)
			st.partReady = make([]bool, np)
			st.spawned = make([]bool, np)
		case classStream:
			st.missing-- // port 0 arrives shard-by-shard
		case classLoop:
			st.loopParts = make([]any, np)
			st.loopIter = -1
			outN = 1 // loop shards are internal; the output is scalar
		}
		st.outParts = make([]Value, outN)
		st.outLeft = outN
	}

	done := make(chan taskDone, totalTasks)
	g := ctx.Pool.NewGroup()
	running := 0
	var firstErr error

	// The execution backend decides where a dispatched task's work runs:
	// LocalBackend (the default) executes in-process on this pool, a remote
	// backend ships tasks that have a serializable descriptor to worker
	// processes. Scheduling, ordering and reductions stay here either way,
	// so results are backend-independent.
	backend := ctx.Backend
	if backend == nil {
		backend = LocalBackend{}
	}
	remoteOK := backend.Workers() > 0

	// Scope this run's affinity pins so they cannot outlive it: every remote
	// descriptor is stamped with a run-unique scope, and the whole scope is
	// released when Run returns — on success (where the loop states have
	// usually released their keys already; this is the backstop for operators
	// without a finish hook) and on every error path (where they have not).
	var runScope string
	if remoteOK {
		if sr, ok := backend.(scopeReleaser); ok {
			runScope = fmt.Sprintf("run-%d", runScopeSeq.Add(1))
			defer sr.ReleaseScope(runScope)
		}
	}

	// spawn launches one partition task. What the task calls depends on the
	// node class; every task gets a private context and reports on the done
	// channel.
	spawn := func(t taskRef) {
		running++
		i, part := t.node, t.part
		n, pi, st := order[i], info[i], &states[i]
		var ins []Value
		switch pi.class {
		case classMap:
			ins = make([]Value, len(st.ins))
			copy(ins, st.ins)
			ins[0] = st.parts[part]
			st.parts[part] = nil // the task owns the shard now
			st.spawned[part] = true
		case classStream:
			// Finish task: no inputs beyond the reduction state.
		case classLoop:
			if t.kind == taskLoopBegin {
				ins = st.ins
				st.ins = nil // the loop state owns the values now
			}
		default:
			ins = st.ins
			if pi.class == classScalar || part == pi.nparts-1 {
				st.ins = nil // the task(s) own the values now
			}
		}
		rstate := st.rstate
		// Loop tasks read the state and (for the barrier) the partials; no
		// shard task is in flight when the begin/end/finish tasks run, so the
		// captures cannot race with the scheduler's writes. The prep round is
		// captured here, on the scheduling goroutine, for the same reason.
		lstate, lparts, prepRound := st.loop, st.loopParts, st.prepRound
		// Tracing bookkeeping, captured on the scheduling goroutine: queue
		// time, task kind and the loop iteration this wave belongs to. All of
		// it is skipped when no tracer is attached.
		traced := ctx.Tracer.Enabled()
		var queued time.Time
		kindStr := ""
		iter := -1
		if traced {
			queued = time.Now()
			kindStr = "run"
			if pi.class == classMap {
				kindStr = "map"
			}
			if pi.class == classLoop {
				switch t.kind {
				case taskLoopBegin:
					kindStr = "loop-begin"
				case taskLoopPrep:
					kindStr = "loop-prep"
					iter = prepRound
				case taskLoopPrepEnd:
					kindStr = "loop-prep-end"
					iter = prepRound
				case taskLoopShard:
					kindStr = "loop-shard"
					iter = st.loopIter
				case taskLoopEnd:
					kindStr = "loop-end"
					iter = st.loopIter
				case taskLoopFinish:
					kindStr = "loop-finish"
				}
			}
		}
		g.Spawn(func() {
			d := taskDone{node: i, part: part, kind: t.kind}
			defer func() {
				if r := recover(); r != nil {
					d.err = fmt.Errorf("workflow: operator %s panicked: %v", n.op.Name(), r)
				}
				done <- d
			}()
			if ctx.Ctx != nil {
				if err := ctx.Ctx.Err(); err != nil {
					d.err = fmt.Errorf("workflow: before operator %s: %w", n.op.Name(), err)
					return
				}
			}
			d.start = time.Now()
			nctx := *ctx
			nctx.Breakdown = nil // the executor writes it; operators declare a phase
			nctx.Observe = nil
			if traced {
				nctx.Span = &obs.Span{
					Node: n.name, Op: n.op.Name(), Kind: kindStr, Phase: phases[i],
					Shard: part, Iter: iter, Backend: backend.Name(),
					Queued: queued, Start: d.start,
				}
			}
			// Every task routes through the backend: task.Run is the
			// in-process path (unchanged behavior), task.Remote the
			// serializable descriptor for shard tasks that may leave the
			// process. Only map shards and loop shards are ever remotable;
			// splits, reductions and loop begin/barrier/finish touch
			// coordinator state and carry no descriptor.
			var task Task
			switch pi.class {
			case classSplit:
				task.Run = func() (Value, error) {
					return n.op.(Splitter).Split(&nctx, ins, part, pi.nparts)
				}
			case classMap:
				task.Run = func() (Value, error) {
					return n.op.(PartitionKernel).RunPartition(&nctx, ins, part, pi.nparts)
				}
				if remoteOK {
					if rm, ok := n.op.(Remotable); ok {
						if rt, ok := rm.RemoteTask(ins, part, pi.nparts); ok {
							rt.Scope = runScope
							task.Remote = rt
						}
					}
				}
			case classStream:
				task.Run = func() (Value, error) {
					return n.op.(StreamReducer).FinishReduce(&nctx, rstate)
				}
			case classLoop:
				switch t.kind {
				case taskLoopBegin:
					task.Run = func() (Value, error) {
						state, err := n.op.(IterativeOp).BeginLoop(&nctx, ins, pi.nparts)
						if err == nil && state == nil {
							err = fmt.Errorf("nil loop state")
						}
						return state, err
					}
				case taskLoopPrep:
					task.Run = func() (Value, error) {
						return nil, lstate.(PreparedLoop).PrepareShard(&nctx, prepRound, part, pi.nparts)
					}
					if remoteOK {
						if rp, ok := lstate.(RemotablePrepare); ok {
							if rt, ok := rp.RemotePrepareTask(prepRound, part, pi.nparts); ok {
								rt.Scope = runScope
								task.Remote = rt
							}
						}
					}
				case taskLoopPrepEnd:
					task.Run = func() (Value, error) {
						return nil, lstate.(PreparedLoop).EndPrepare(&nctx, prepRound)
					}
				case taskLoopShard:
					task.Run = func() (Value, error) {
						return lstate.RunShard(&nctx, part, pi.nparts)
					}
					if remoteOK {
						if rl, ok := lstate.(RemotableLoop); ok {
							if rt, ok := rl.RemoteShardTask(part, pi.nparts); ok {
								rt.Scope = runScope
								task.Remote = rt
							}
						}
					}
				case taskLoopEnd:
					task.Run = func() (Value, error) {
						return lstate.EndIteration(&nctx, lparts)
					}
				case taskLoopFinish:
					task.Run = func() (Value, error) { return lstate.Finish(&nctx) }
				}
			case classScalar:
				if len(ins) > 1 {
					task.Run = func() (Value, error) { return n.op.(MultiOperator).RunAll(&nctx, ins) }
				} else {
					var single Value
					if len(ins) > 0 {
						single = ins[0]
					}
					task.Run = func() (Value, error) { return n.op.(Runner).Run(&nctx, single) }
				}
			}
			d.out, d.err = backend.RunTask(&nctx, &task)
			d.end = time.Now()
			if d.err != nil {
				d.err = fmt.Errorf("workflow: operator %s: %w", n.op.Name(), d.err)
			}
			if traced {
				nctx.Span.End = d.end
				nctx.Span.Err = d.err != nil
				ctx.Tracer.Record(*nctx.Span)
			}
		})
	}

	var ready []taskRef // tasks whose inputs are complete, awaiting dispatch
	dispatch := func() {
		for len(ready) > 0 && firstErr == nil && !(ctx.Serial && running > 0) {
			t := ready[0]
			ready = ready[1:]
			spawn(t)
		}
	}

	// reduceCtx is the scheduling-goroutine context stream reducers'
	// Begin/Absorb callbacks run against.
	reduceCtx := *ctx
	reduceCtx.Breakdown, reduceCtx.Observe = nil, nil

	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}

	// recovering converts a panic in a scheduling-goroutine callback
	// (BeginReduce/AbsorbPartition) into an operator error, matching the
	// recovery pool tasks get.
	recovering := func(name string, fn func() error) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("workflow: operator %s panicked: %v", name, r)
			}
		}()
		if err := fn(); err != nil {
			return fmt.Errorf("workflow: operator %s: %w", name, err)
		}
		return nil
	}

	// absorb hands one shard to a stream reducer (serialized here on the
	// scheduling goroutine) and enqueues the finish task after the last.
	absorb := func(i int, part Value, partIdx int) {
		n, st := order[i], &states[i]
		if st.failed {
			return
		}
		err := recovering(n.op.Name(), func() error {
			return n.op.(StreamReducer).AbsorbPartition(&reduceCtx, st.rstate, part, partIdx)
		})
		if err != nil {
			st.failed = true
			fail(err)
			return
		}
		st.absorbed++
		total := info[idx[p.producerOf0(n.name)]].nparts
		if st.absorbed == total {
			ready = append(ready, taskRef{node: i, part: 0})
		}
	}

	// inputsReady fires when a node's gathered ports are all filled.
	inputsReady := func(i int) {
		n, pi, st := order[i], info[i], &states[i]
		switch pi.class {
		case classScalar:
			ready = append(ready, taskRef{node: i, part: 0})
		case classSplit:
			for q := 0; q < pi.nparts; q++ {
				ready = append(ready, taskRef{node: i, part: q})
			}
		case classMap:
			for q := 0; q < pi.nparts; q++ {
				if st.partReady[q] && !st.spawned[q] {
					ready = append(ready, taskRef{node: i, part: q})
				}
			}
		case classLoop:
			ready = append(ready, taskRef{node: i, kind: taskLoopBegin})
		case classStream:
			err := recovering(n.op.Name(), func() error {
				state, err := n.op.(StreamReducer).BeginReduce(&reduceCtx, info[idx[p.producerOf0(n.name)]].nparts, st.ins)
				st.rstate = state
				return err
			})
			if err != nil {
				st.failed = true
				fail(err)
				return
			}
			st.began = true
			for _, pp := range st.pending {
				absorb(i, pp.part, pp.idx)
			}
			st.pending = nil
		}
	}

	// deliverGathered fills one input port with a complete value.
	deliverGathered := func(e Edge, v Value) {
		ci := idx[e.To]
		st := &states[ci]
		st.ins[e.Port] = v
		st.missing--
		if st.missing == 0 {
			inputsReady(ci)
		}
	}

	// deliverPart routes shard q of a partitioned producer to a per-part
	// consumer.
	deliverPart := func(e Edge, q int, v Value) {
		ci := idx[e.To]
		st := &states[ci]
		switch info[ci].class {
		case classMap:
			st.parts[q] = v
			st.partReady[q] = true
			if st.missing == 0 && !st.spawned[q] {
				ready = append(ready, taskRef{node: ci, part: q})
			}
		case classStream:
			if st.began {
				absorb(ci, v, q)
			} else {
				st.pending = append(st.pending, pendingPart{idx: q, part: v})
			}
		}
	}

	// nodeComplete runs once a node's last partition is produced: Observe,
	// gathered deliveries, sink recording, and release of the executor's
	// references (per-edge delivery has already happened for shard
	// consumers, so nothing is dropped early).
	sinks := make(map[string]Value)
	nodeComplete := func(i int) {
		n, pi, st := order[i], info[i], &states[i]
		var v Value
		if pi.partitioned() {
			v = &Partitions{Parts: st.outParts}
		} else {
			v = st.outParts[0]
		}
		if ctx.Observe != nil {
			ctx.Observe(n.op, v)
		}
		if len(consumers[i]) == 0 {
			sinks[n.name] = v
		}
		for j, e := range consumers[i] {
			if !perPart[i][j] {
				deliverGathered(e, v)
			}
		}
		st.outParts = nil // consumers hold their own references now
	}

	// The scheduling loop owns all executor state (states, ready, sinks,
	// firstErr) and runs on its own goroutine: it seeds the initially-ready
	// nodes, then reacts to completions arriving on the done channel. A
	// blocking receive is safe — completion sends never block (the channel
	// holds every possible task) and no task ever waits on the scheduler's
	// stack — so dispatch happens promptly even while a long task occupies
	// every worker.
	sched := make(chan struct{})
	go func() {
		defer close(sched)
		// Nodes whose gathered ports are already complete: sources (no input
		// ports at all) and single-port map/stream nodes, whose only input
		// arrives shard-by-shard. A stream reducer with no scalar ports must
		// BeginReduce here or its shards would pend forever.
		for i := range order {
			if states[i].missing == 0 {
				inputsReady(i)
			}
		}
		// loopWave enqueues the next iteration's shard task set for loop
		// node i — the same set every iteration.
		loopWave := func(i int) {
			st := &states[i]
			st.loopLeft = info[i].nparts
			st.loopIter++
			for q := 0; q < info[i].nparts; q++ {
				ready = append(ready, taskRef{node: i, part: q, kind: taskLoopShard})
			}
		}
		// prepWave enqueues one preparation round's shard task set for a
		// PreparedLoop node — same shard set as the iterations, run before
		// the first iteration wave (e.g. one wave per K-Means++ seed round).
		prepWave := func(i int) {
			st := &states[i]
			st.prepLeft = info[i].nparts
			for q := 0; q < info[i].nparts; q++ {
				ready = append(ready, taskRef{node: i, part: q, kind: taskLoopPrep})
			}
		}
		dispatch()
		for running > 0 {
			d := <-done
			running--
			st := &states[d.node]
			if !d.end.IsZero() {
				if st.first.IsZero() || d.start.Before(st.first) {
					st.first = d.start
				}
				if d.end.After(st.last) {
					st.last = d.end
				}
			}
			if info[d.node].class == classLoop {
				if d.err != nil {
					st.failed = true
					fail(d.err)
					continue
				}
				if firstErr != nil {
					continue
				}
				switch d.kind {
				case taskLoopBegin:
					st.loop = d.out.(LoopState)
					if pl, ok := st.loop.(PreparedLoop); ok {
						st.prepRounds = pl.PrepareRounds()
					}
					if st.prepRounds > 0 {
						prepWave(d.node)
					} else {
						loopWave(d.node)
					}
				case taskLoopPrep:
					st.prepLeft--
					if st.prepLeft == 0 {
						ready = append(ready, taskRef{node: d.node, kind: taskLoopPrepEnd})
					}
				case taskLoopPrepEnd:
					st.prepRound++
					if st.prepRound < st.prepRounds {
						prepWave(d.node)
					} else {
						loopWave(d.node)
					}
				case taskLoopShard:
					st.loopParts[d.part] = d.out
					st.loopLeft--
					if st.loopLeft == 0 {
						ready = append(ready, taskRef{node: d.node, kind: taskLoopEnd})
					}
				case taskLoopEnd:
					if d.out.(bool) {
						ready = append(ready, taskRef{node: d.node, kind: taskLoopFinish})
					} else {
						loopWave(d.node)
					}
				case taskLoopFinish:
					st.outParts[0] = d.out
					st.outLeft = 0
					nodeComplete(d.node)
				}
				dispatch()
				continue
			}
			if d.err != nil {
				st.failed = true
				fail(d.err)
				continue
			}
			if firstErr != nil {
				continue // a branch failed: stop scheduling, drain in-flight tasks
			}
			if info[d.node].partitioned() {
				st.outParts[d.part] = d.out
				st.outLeft--
				for j, e := range consumers[d.node] {
					if perPart[d.node][j] {
						deliverPart(e, d.part, d.out)
					}
				}
				if st.outLeft == 0 {
					nodeComplete(d.node)
				}
			} else {
				st.outParts[0] = d.out
				st.outLeft = 0
				nodeComplete(d.node)
			}
			dispatch()
		}
	}()

	// Helping join: while the scheduler works, this goroutine executes
	// queued pool tasks so a Run nested inside a pool task cannot deadlock
	// (its worker slot keeps doing work instead of idling).
	backoff := 0
helping:
	for {
		select {
		case <-sched:
			break helping
		default:
		}
		if ctx.Pool.Help() {
			backoff = 0
			continue
		}
		backoff++
		if backoff < 16 {
			runtime.Gosched()
		} else {
			time.Sleep(10 * time.Microsecond)
		}
	}
	g.Wait()

	// Roll the node extents up into ctx.Breakdown, in topological order.
	for i := range states {
		if st := &states[i]; phases[i] != "" && !st.first.IsZero() {
			ctx.Breakdown.Add(phases[i], st.last.Sub(st.first))
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return sinks, nil
}

// producerOf0 returns the name of the node feeding the given node's port 0
// (empty if none) — a convenience for the executor's stream-reduce paths.
func (p *Plan) producerOf0(name string) string {
	if e, ok := p.producerOf(name, 0); ok {
		return e.From
	}
	return ""
}
