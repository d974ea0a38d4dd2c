package simsched

import (
	"testing"
	"time"

	"hpa/internal/obs"
)

// TestPhasesFromTrace converts a hand-built discrete-workflow trace: the
// spans arrive in completion order, barriers open new phases, serial spans
// land in Serial, disk traffic reaches the tasks and serial sections, and
// phase names come from the spans.
func TestPhasesFromTrace(t *testing.T) {
	epoch := time.Unix(0, 0)
	var spans []obs.Span
	at := time.Duration(0)
	add := func(node, kind, phase string, iter int, d time.Duration, ioBytes int64, opens int) {
		spans = append(spans, obs.Span{Node: node, Kind: kind, Phase: phase, Iter: iter,
			Start: epoch.Add(at), End: epoch.Add(at + d), IOBytes: ioBytes, IOOpens: opens})
		at += d
	}
	ms := time.Millisecond
	add("partition", "run", "", -1, 1*ms, 0, 0)
	add("tfidf.map", "map", "input+wc", -1, 2*ms, 100, 3)
	add("tfidf.map", "map", "input+wc", -1, 3*ms, 200, 4)
	add("tfidf.df", "run", "transform", -1, 5*ms, 0, 0)
	add("tfidf.transform", "map", "transform", -1, 2*ms, 0, 0)
	add("tfidf.transform", "map", "transform", -1, 2*ms, 0, 0)
	add("tfidf.gather", "run", "", -1, 1*ms, 0, 0)
	add("materialize-arff", "run", "tfidf-output", -1, 7*ms, 1000, 1)
	add("load-arff", "run", "kmeans-input", -1, 6*ms, 1000, 1)
	add("kmeans.assign", "loop-begin", "kmeans", -1, 1*ms, 0, 0)
	add("kmeans.assign", "loop-shard", "kmeans", 0, 1*ms, 0, 0)
	add("kmeans.assign", "loop-shard", "kmeans", 0, 1*ms, 0, 0)
	add("kmeans.assign", "loop-end", "kmeans", 0, 1*ms, 0, 0)
	for wave := 1; wave <= 2; wave++ {
		add("kmeans.assign", "loop-shard", "kmeans", wave, 4*ms, 0, 0)
		add("kmeans.assign", "loop-shard", "kmeans", wave, 4*ms, 0, 0)
		add("kmeans.assign", "loop-end", "kmeans", wave, 3*ms, 0, 0)
	}
	add("kmeans.assign", "loop-finish", "kmeans", -1, 1*ms, 0, 0)
	add("output", "run", "output", -1, 2*ms, 50, 1)
	// A trace lists spans in completion order; reverse them so the
	// converter must order by start time itself.
	for i, j := 0, len(spans)-1; i < j; i, j = i+1, j-1 {
		spans[i], spans[j] = spans[j], spans[i]
	}

	got := FromTrace(&obs.Trace{Start: epoch, Spans: spans})
	type want struct {
		name          string
		serial        time.Duration
		tasks         int
		serialIOBytes int64
		serialIOOpens int
	}
	wants := []want{
		{"input+wc", 1 * ms, 2, 0, 0},
		{"transform", 5 * ms, 2, 0, 0},       // the DF merge is serial
		{"transform", 1 * ms, 0, 0, 0},       // the gather's finish
		{"tfidf-output", 7 * ms, 0, 1000, 1}, // ARFF write
		{"kmeans-input", 6 * ms, 0, 1000, 1}, // ARFF read
		{"kmeans", 1 * ms, 2, 0, 0},          // loop begin, seed round 0
		{"kmeans", 1 * ms, 2, 0, 0},          // its barrier, iteration 0
		{"kmeans", 3 * ms, 2, 0, 0},          // iteration 0's barrier, iteration 1
		{"kmeans", 4 * ms, 0, 0, 0},          // iteration 1's barrier and the finish
		{"output", 2 * ms, 0, 50, 1},
	}
	if len(got) != len(wants) {
		for _, p := range got {
			t.Logf("%s serial=%v tasks=%d", p.Name, p.Serial, len(p.Tasks))
		}
		t.Fatalf("%d phases, want %d", len(got), len(wants))
	}
	for i, w := range wants {
		p := got[i]
		if p.Name != w.name || p.Serial != w.serial || len(p.Tasks) != w.tasks ||
			p.SerialIOBytes != w.serialIOBytes || p.SerialIOOpens != w.serialIOOpens {
			t.Errorf("phase %d = %s serial=%v tasks=%d io=%d/%d, want %+v",
				i, p.Name, p.Serial, len(p.Tasks), p.SerialIOBytes, p.SerialIOOpens, w)
		}
	}
	if in := got[0].Tasks; in[0] != (Task{CPU: 2 * ms, IOBytes: 100, IOOpens: 3}) ||
		in[1] != (Task{CPU: 3 * ms, IOBytes: 200, IOOpens: 4}) {
		t.Errorf("input tasks %+v: disk traffic or run time lost", in)
	}
	if _, total := Simulate(Machine{Workers: 1}, got); total != at {
		t.Errorf("phases hold %v of the trace's %v", total, at)
	}
}
