package simsched

import (
	"sort"

	"hpa/internal/obs"
)

// FromTrace converts the spans of a plan run into the phases Simulate
// replays. Map and loop-shard spans are the parallel work: each becomes a
// Task carrying the span's run time and disk traffic. Every other span —
// splits, reductions, loop begin, barrier and finish tasks,
// materialization, output — is serial and adds to its phase's serial
// section. The tasks of one wave (same node, kind and wave index; a loop's
// K-Means++ seed rounds and iterations are all waves) form one phase, and a
// serial span after a wave opens the next one, so every barrier stays a
// barrier. Phases take their name from the spans' Phase; a
// span without one (a split, a source, the K-Means join) counts toward the
// phase in progress.
//
// Spans are grouped in start order, which keeps a wave's tasks together
// only when they did not overlap other work: record with one task in
// flight (workflow.Context.Serial) and on one pool worker, so every span
// is pure per-task time.
func FromTrace(tr *obs.Trace) []Phase {
	spans := make([]*obs.Span, len(tr.Spans))
	for i := range tr.Spans {
		spans[i] = &tr.Spans[i]
	}
	sort.SliceStable(spans, func(a, b int) bool { return spans[a].Start.Before(spans[b].Start) })

	type wave struct {
		node, kind string
		iter       int
	}
	var phases []Phase
	var cur wave
	for _, s := range spans {
		parallel := s.Kind == "map" || s.Kind == "loop-shard"
		w := wave{s.Node, s.Kind, s.Iter}
		var p *Phase
		if n := len(phases); n > 0 {
			p = &phases[n-1]
			if p.Name == "" && len(p.Tasks) == 0 {
				p.Name = s.Phase // an unnamed prologue joins the first named phase
			}
		}
		name := s.Phase
		if name == "" && p != nil {
			name = p.Name
		}
		if p == nil || name != p.Name || len(p.Tasks) > 0 && (!parallel || w != cur) {
			phases = append(phases, Phase{Name: name})
			p = &phases[len(phases)-1]
		}
		if parallel {
			p.Tasks = append(p.Tasks, Task{CPU: s.Dur(), IOBytes: s.IOBytes, IOOpens: s.IOOpens})
			cur = w
		} else {
			p.Serial += s.Dur()
			p.SerialIOBytes += s.IOBytes
			p.SerialIOOpens += s.IOOpens
		}
	}
	return phases
}
