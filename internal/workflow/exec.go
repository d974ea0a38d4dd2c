package workflow

import (
	"fmt"
	"runtime"
	"slices"
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
	// taskLoopShard is one shard of the current wave.
	taskLoopShard
	// taskLoopEnd is the per-wave barrier: it hands the wave's partials (in
	// shard order) to EndWave, which decides whether another wave follows.
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

// execState tracks one node through a run.
type execState struct {
	ins     []Value // gathered port values
	missing int     // gathered ports still unfilled (excludes port 0 for map nodes)

	// Map-node bookkeeping: shard payloads of the port-0 input.
	parts     []Value
	partReady []bool
	spawned   []bool

	// Output bookkeeping.
	outParts []Value // one slot per partition (scalar nodes use one)
	outLeft  int     // partitions not yet produced

	// Loop-node bookkeeping (classLoop).
	loop      LoopState
	loopParts []any // current wave's partials, by shard
	loopLeft  int   // shards of the current wave still running
	loopWave  int   // current wave index (-1 before the first wave)

	// first and last delimit the node's wall-clock extent: the earliest
	// task start and the latest task end.
	first, last time.Time
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
//   - an IterativeOp node runs as a loop of partition tasks: one BeginLoop
//     task over the gathered inputs, then per wave one Wave task per loop
//     shard followed by one EndWave barrier task that receives the partials
//     in shard-index order (regardless of shard scheduling) and decides
//     whether to re-dispatch the same shard task set, and finally one
//     Finish task producing the scalar output (K-Means runs its k−1
//     K-Means++ seed rounds and then its iterations as waves);
//   - every other node consuming a partitioned output — a reduction such
//     as DFReduceOp or GatherOp — receives the gathered *Partitions
//     (shards in index order) once all shards exist.
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
// on error paths too, the extents of the nodes whose operator declares a
// phase (Phased) are rolled up into ctx.Breakdown by one sweep: each
// instant of the run is split evenly over the phased nodes whose extents
// cover it, and every such node adds its share under its phase, in
// topological order. Concurrent shards count once, overlapping nodes share
// their overlap, so the phases never sum past the run's wall (a serial
// run's extents are disjoint: each node adds its whole extent); phase keys
// and their order are deterministic regardless of how shards interleaved,
// and Figure 3/4 accounting is the roll-up of the tasks' own intervals. Observe is
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
	maxInFlight := 0
	for i := range order {
		perPart[i] = make([]bool, len(consumers[i]))
		for j, e := range consumers[i] {
			perPart[i][j] = consumesPerPart(infoByName, p, e)
		}
		maxInFlight += info[i].nparts
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
		case classLoop:
			st.loopParts = make([]any, np)
			st.loopWave = -1
			outN = 1 // loop shards are internal; the output is scalar
		}
		st.outParts = make([]Value, outN)
		st.outLeft = outN
	}

	done := make(chan taskDone, maxInFlight)
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
		// Loop tasks read the state and (for the barrier) the partials; no
		// shard task is in flight when the begin/end/finish tasks run, so the
		// captures cannot race with the scheduler's writes. The wave index is
		// captured here, on the scheduling goroutine, for the same reason.
		lstate, lparts, wave := st.loop, st.loopParts, st.loopWave
		// Tracing bookkeeping, captured on the scheduling goroutine: queue
		// time, task kind and the wave a loop task belongs to. All of it is
		// skipped when no tracer is attached.
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
				case taskLoopShard:
					kindStr = "loop-shard"
					iter = wave
				case taskLoopEnd:
					kindStr = "loop-end"
					iter = wave
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
				case taskLoopShard:
					task.Run = func() (Value, error) {
						return lstate.Wave(&nctx, wave, part, pi.nparts)
					}
					if remoteOK {
						if rl, ok := lstate.(RemotableLoop); ok {
							if rt, ok := rl.RemoteWaveTask(wave, part, pi.nparts); ok {
								rt.Scope = runScope
								task.Remote = rt
							}
						}
					}
				case taskLoopEnd:
					task.Run = func() (Value, error) {
						return lstate.EndWave(&nctx, wave, lparts)
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

	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}

	// inputsReady fires when a node's gathered ports are all filled.
	inputsReady := func(i int) {
		pi, st := info[i], &states[i]
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

	// deliverPart routes shard q of a partitioned producer to a map
	// consumer.
	deliverPart := func(e Edge, q int, v Value) {
		ci := idx[e.To]
		st := &states[ci]
		st.parts[q] = v
		st.partReady[q] = true
		if st.missing == 0 && !st.spawned[q] {
			ready = append(ready, taskRef{node: ci, part: q})
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
	// blocking receive is safe — completion sends never block (no node has
	// more than nparts tasks in flight at once, and the channel holds Σ
	// nparts) and no task ever waits on the scheduler's stack — so dispatch
	// happens promptly even while a long task occupies every worker.
	sched := make(chan struct{})
	go func() {
		defer close(sched)
		// Nodes whose gathered ports are already complete: sources (no input
		// ports at all) and single-port map nodes, whose only input arrives
		// shard-by-shard.
		for i := range order {
			if states[i].missing == 0 {
				inputsReady(i)
			}
		}
		// nextWave enqueues the next wave's shard task set for loop node i
		// — the same set every wave.
		nextWave := func(i int) {
			st := &states[i]
			st.loopLeft = info[i].nparts
			st.loopWave++
			for q := 0; q < info[i].nparts; q++ {
				ready = append(ready, taskRef{node: i, part: q, kind: taskLoopShard})
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
					fail(d.err)
					continue
				}
				if firstErr != nil {
					continue
				}
				switch d.kind {
				case taskLoopBegin:
					st.loop = d.out.(LoopState)
					nextWave(d.node)
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
						nextWave(d.node)
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
	for i, d := range splitExtents(states, phases) {
		if phases[i] != "" && !states[i].first.IsZero() {
			ctx.Breakdown.Add(phases[i], d)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return sinks, nil
}

// splitExtents returns each phased node's share of the run's wall: every
// interval between two consecutive extent ends is divided evenly over the
// phased nodes whose extents cover it (an interval none covers is idle).
func splitExtents(states []execState, phases []string) []time.Duration {
	var cuts []time.Time
	var on []int
	for i := range states {
		if phases[i] != "" && !states[i].first.IsZero() {
			cuts = append(cuts, states[i].first, states[i].last)
			on = append(on, i)
		}
	}
	slices.SortFunc(cuts, time.Time.Compare)
	share := make([]time.Duration, len(states))
	for c := 1; c < len(cuts); c++ {
		covering := slices.DeleteFunc(slices.Clone(on), func(i int) bool {
			return states[i].first.After(cuts[c-1]) || states[i].last.Before(cuts[c])
		})
		for _, i := range covering {
			share[i] += cuts[c].Sub(cuts[c-1]) / time.Duration(len(covering))
		}
	}
	return share
}
