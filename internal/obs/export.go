package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"hpa/internal/metrics"
)

// Chrome trace-event export. The output is the JSON-array flavor of the
// trace-event format, loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing: one "X" complete event per task span, "i" instant
// events for wire/loop happenings, and "M" metadata naming the process
// lanes. The coordinator (in-process tasks) is pid 1; each remote worker
// label gets its own pid, so RPC runs render as real per-worker swimlanes.
// Within a pid, overlapping spans are packed greedily onto numbered tid
// lanes.

const coordinatorPid = 1

type chromeEvent struct {
	Name string `json:"name"`
	Cat  string `json:"cat,omitempty"`
	Ph   string `json:"ph"`
	TS   int64  `json:"ts"`
	Dur  int64  `json:"dur,omitempty"`
	Pid  int    `json:"pid"`
	Tid  int    `json:"tid"`
	S    string `json:"s,omitempty"`
	Args any    `json:"args,omitempty"`
}

type chromeSpanArgs struct {
	Node  string `json:"node"`
	Kind  string `json:"kind"`
	Shard int    `json:"shard"`
	Wave  int    `json:"wave"` // no omitempty: wave 0 must survive

	Backend string `json:"backend,omitempty"`
	Worker  string `json:"worker,omitempty"`
	WaitUS  int64  `json:"queue_wait_us"`
	Out     int64  `json:"bytes_out,omitempty"`
	In      int64  `json:"bytes_in,omitempty"`
	RunUS   int64  `json:"worker_run_us,omitempty"`
	Resend  bool   `json:"resend,omitempty"`
	Err     bool   `json:"error,omitempty"`
}

type chromeInstantArgs struct {
	Label string `json:"label,omitempty"`
	Value int64  `json:"value"`
}

type chromeMetaArgs struct {
	Name string `json:"name,omitempty"`
	Sort int    `json:"sort_index,omitempty"`
}

// WriteChromeTrace writes tr as Chrome trace-event JSON, one event per
// line. Timestamps are microseconds relative to the trace epoch; the output
// is deterministic given deterministic span fields and times.
func WriteChromeTrace(w io.Writer, tr *Trace) error {
	base := tr.Start
	if base.IsZero() {
		for i := range tr.Spans {
			if base.IsZero() || tr.Spans[i].Queued.Before(base) {
				base = tr.Spans[i].Queued
			}
		}
	}
	us := func(t time.Time) int64 {
		if t.IsZero() {
			return 0
		}
		return t.Sub(base).Microseconds()
	}

	// Process lanes: coordinator first, then each worker label sorted.
	workers := tr.Workers()
	pidOf := map[string]int{"": coordinatorPid}
	for i, wk := range workers {
		pidOf[wk] = coordinatorPid + 1 + i
	}

	var events []chromeEvent
	events = append(events, chromeEvent{
		Name: "process_name", Ph: "M", Pid: coordinatorPid,
		Args: chromeMetaArgs{Name: "coordinator"},
	}, chromeEvent{
		Name: "process_sort_index", Ph: "M", Pid: coordinatorPid,
		Args: chromeMetaArgs{Sort: 0},
	})
	for i, wk := range workers {
		pid := pidOf[wk]
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: chromeMetaArgs{Name: "worker " + wk},
		}, chromeEvent{
			Name: "process_sort_index", Ph: "M", Pid: pid,
			Args: chromeMetaArgs{Sort: i + 1},
		})
	}

	// Pack each pid's spans onto tid lanes: sort by start, assign each span
	// the first lane free at its start time.
	order := make([]int, len(tr.Spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := &tr.Spans[order[a]], &tr.Spans[order[b]]
		if !sa.Start.Equal(sb.Start) {
			return sa.Start.Before(sb.Start)
		}
		if sa.Node != sb.Node {
			return sa.Node < sb.Node
		}
		return sa.Shard < sb.Shard
	})
	laneEnds := make(map[int][]time.Time)
	for _, idx := range order {
		s := &tr.Spans[idx]
		pid := pidOf[s.Worker]
		tid := -1
		for lane, end := range laneEnds[pid] {
			if !end.After(s.Start) {
				tid = lane
				break
			}
		}
		if tid < 0 {
			tid = len(laneEnds[pid])
			laneEnds[pid] = append(laneEnds[pid], time.Time{})
		}
		laneEnds[pid][tid] = s.End
		dur := s.Dur().Microseconds()
		if dur < 1 {
			dur = 1 // Perfetto drops zero-width slices
		}
		events = append(events, chromeEvent{
			Name: fmt.Sprintf("%s/%d", s.Node, s.Shard),
			Cat:  s.Op,
			Ph:   "X",
			TS:   us(s.Start),
			Dur:  dur,
			Pid:  pid,
			Tid:  tid,
			Args: chromeSpanArgs{
				Node: s.Node, Kind: s.Kind, Shard: s.Shard, Wave: s.Iter,
				Backend: s.Backend, Worker: s.Worker,
				WaitUS: s.Wait().Microseconds(),
				Out:    s.BytesOut, In: s.BytesIn,
				RunUS:  s.WorkerRun.Microseconds(),
				Resend: s.Resend, Err: s.Err,
			},
		})
	}

	for i := range tr.Events {
		e := &tr.Events[i]
		events = append(events, chromeEvent{
			Name: e.Name,
			Cat:  e.Cat,
			Ph:   "i",
			TS:   us(e.Time),
			Pid:  coordinatorPid,
			Tid:  0,
			S:    "g",
			Args: chromeInstantArgs{Label: e.Label, Value: e.Value},
		})
	}

	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(events)-1 {
			sep = "\n"
		}
		if _, err := w.Write(append(b, sep...)); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}

// nodeAgg is NodeTable's and Autopsy's per-node rollup of a trace.
type nodeAgg struct {
	tasks   int
	waves   int // max loop wave seen + 1 (0 when no loop tasks)
	wait    time.Duration
	run     time.Duration
	first   time.Time
	last    time.Time
	out, in int64
	resends int
	workers map[string]bool
	errs    int
}

func (a *nodeAgg) wall() time.Duration { return a.last.Sub(a.first) }

func aggregate(tr *Trace) map[string]*nodeAgg {
	aggs := make(map[string]*nodeAgg)
	for i := range tr.Spans {
		s := &tr.Spans[i]
		a := aggs[s.Node]
		if a == nil {
			a = &nodeAgg{first: s.Start, last: s.End, workers: make(map[string]bool)}
			aggs[s.Node] = a
		}
		a.tasks++
		if s.Iter >= a.waves {
			a.waves = s.Iter + 1
		}
		a.wait += s.Wait()
		a.run += s.Dur()
		if s.Start.Before(a.first) {
			a.first = s.Start
		}
		if s.End.After(a.last) {
			a.last = s.End
		}
		a.out += s.BytesOut
		a.in += s.BytesIn
		if s.Resend {
			a.resends++
		}
		if s.Worker != "" {
			a.workers[s.Worker] = true
		}
		if s.Err {
			a.errs++
		}
	}
	return aggs
}

// NodeTable renders the trace as an aligned per-node text table: task
// counts, loop waves, wall-clock (first start to last end), summed
// queue wait and run time, wire bytes, and the worker fan-out.
func NodeTable(tr *Trace) string {
	aggs := aggregate(tr)
	t := metrics.NewTable("node", "tasks", "waves", "wall", "wait", "run", "ship-out", "ship-in", "workers")
	for _, node := range tr.Nodes() {
		a := aggs[node]
		waves := "-"
		if a.waves > 0 {
			waves = fmt.Sprintf("%d", a.waves)
		}
		t.AddRow(node,
			fmt.Sprintf("%d", a.tasks),
			waves,
			metrics.FormatDuration(a.wall()),
			metrics.FormatDuration(a.wait),
			metrics.FormatDuration(a.run),
			metrics.FormatBytes(a.out),
			metrics.FormatBytes(a.in),
			fmt.Sprintf("%d", len(a.workers)),
		)
	}
	return t.String()
}
