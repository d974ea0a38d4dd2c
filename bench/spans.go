package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one benchmark-owned interval around a call into a layer's
// exported function. Parent is the index of the span that caused it (-1 for
// a root); every span of one run shares the log's workload id.
type span struct {
	Name       string
	Start, End time.Time
	Parent     int
	// Lane separates concurrent clients into Chrome-trace threads.
	Lane int
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, which is how the untraced end-to-end runs call the same code.
type spanLog struct {
	workload string
	mu       sync.Mutex
	spans    []span
}

func newSpanLog(workload string) *spanLog { return &spanLog{workload: workload} }

// begin opens a span under parent and returns its index (-1 on a nil log).
func (l *spanLog) begin(name string, parent, lane int) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Start: time.Now(), Parent: parent, Lane: lane})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	now := time.Now()
	l.mu.Lock()
	l.spans[id].End = now
	l.mu.Unlock()
}

// timed runs fn inside a span and returns fn's wall time, measured whether
// or not the log records.
func (l *spanLog) timed(name string, parent int, fn func()) time.Duration {
	id := l.begin(name, parent, 0)
	start := time.Now()
	fn()
	d := time.Since(start)
	l.end(id)
	return d
}

// spanTotals is one row of layers.json: every span of one name rolled up.
type spanTotals struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	// SelfMS is the total minus the part of each interval its child spans
	// cover (children of concurrent clients may overlap; the union counts).
	SelfMS float64 `json:"self_ms"`
}

// totals rolls the log up by span name, in first-seen order.
func (l *spanLog) totals() []spanTotals {
	children := make(map[int][]int)
	for i, s := range l.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	index := make(map[string]int)
	var out []spanTotals
	for i, s := range l.spans {
		if s.End.IsZero() {
			continue
		}
		j, ok := index[s.Name]
		if !ok {
			j = len(out)
			index[s.Name] = j
			out = append(out, spanTotals{Name: s.Name})
		}
		dur := s.End.Sub(s.Start)
		out[j].Count++
		out[j].TotalMS += ms(dur)
		out[j].SelfMS += ms(dur - l.covered(s, children[i]))
	}
	return out
}

// covered returns how much of parent's interval the union of its children's
// intervals covers.
func (l *spanLog) covered(parent span, kids []int) time.Duration {
	type iv struct{ lo, hi time.Time }
	var ivs []iv
	for _, k := range kids {
		c := l.spans[k]
		if c.End.IsZero() {
			continue
		}
		lo, hi := c.Start, c.End
		if lo.Before(parent.Start) {
			lo = parent.Start
		}
		if hi.After(parent.End) {
			hi = parent.End
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo.Before(ivs[b].lo) })
	var sum time.Duration
	var end time.Time
	for _, v := range ivs {
		if v.lo.After(end) {
			sum += v.hi.Sub(v.lo)
			end = v.hi
		} else if v.hi.After(end) {
			sum += v.hi.Sub(end)
			end = v.hi
		}
	}
	return sum
}

// writeChromeTrace writes the log as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps from the first span), loadable in
// ui.perfetto.dev. Spans on one lane nest by containment.
func (l *spanLog) writeChromeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(l.spans))
	var epoch time.Time
	if len(l.spans) > 0 {
		epoch = l.spans[0].Start
	}
	for i, s := range l.spans {
		if s.End.IsZero() {
			continue
		}
		events = append(events, event{
			Name: s.Name, Cat: "bench", Ph: "X",
			TS: us(s.Start.Sub(epoch)), Dur: us(s.End.Sub(s.Start)),
			PID: 1, TID: s.Lane,
			Args: map[string]any{"id": i, "parent": s.Parent, "workload": l.workload},
		})
	}
	return writeJSON(path, map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
