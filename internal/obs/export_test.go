package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// fixedTrace builds a fully deterministic trace: two workers, one
// coordinator task, one loop-shard task, a resend, and one instant event.
// All times are offsets from a fixed epoch, so the Chrome export is
// byte-stable.
func fixedTrace() *Trace {
	base := time.Unix(1000, 0).UTC()
	at := func(us int64) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }
	return &Trace{
		Start: base,
		Spans: []Span{
			{Node: "scan", Op: "source", Kind: "run", Shard: 0, Iter: -1,
				Backend: "local", Queued: at(5), Start: at(10), End: at(30)},
			{Node: "tfidf.map", Op: "tfidf.count", Kind: "run", Shard: 0, Iter: -1,
				Backend: "rpc", Worker: "w1", BytesOut: 100, BytesIn: 200, WorkerRun: 35 * time.Microsecond,
				Queued: at(30), Start: at(40), End: at(90)},
			{Node: "tfidf.map", Op: "tfidf.count", Kind: "run", Shard: 1, Iter: -1,
				Backend: "rpc", Worker: "w2", BytesOut: 150, BytesIn: 250, Resend: true,
				Queued: at(30), Start: at(45), End: at(95)},
			{Node: "kmeans.assign", Op: "kmeans.assign", Kind: "loop-shard", Shard: 0, Iter: 0,
				Backend: "rpc", Worker: "w1",
				Queued: at(100), Start: at(110), End: at(150)},
		},
		Events: []Event{
			{Time: at(120), Cat: "kmeans", Name: "iteration", Label: "iter=1", Value: 3},
		},
	}
}

// TestWriteChromeTraceGolden pins the exported JSON byte-for-byte: lane
// assignment, pid layout, arg fields and timestamps are all part of the
// format contract with Perfetto.
func TestWriteChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, fixedTrace()); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`[`,
		`{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"coordinator"}},`,
		`{"name":"process_sort_index","ph":"M","ts":0,"pid":1,"tid":0,"args":{}},`,
		`{"name":"process_name","ph":"M","ts":0,"pid":2,"tid":0,"args":{"name":"worker w1"}},`,
		`{"name":"process_sort_index","ph":"M","ts":0,"pid":2,"tid":0,"args":{"sort_index":1}},`,
		`{"name":"process_name","ph":"M","ts":0,"pid":3,"tid":0,"args":{"name":"worker w2"}},`,
		`{"name":"process_sort_index","ph":"M","ts":0,"pid":3,"tid":0,"args":{"sort_index":2}},`,
		`{"name":"scan/0","cat":"source","ph":"X","ts":10,"dur":20,"pid":1,"tid":0,"args":{"node":"scan","kind":"run","shard":0,"wave":-1,"backend":"local","queue_wait_us":5}},`,
		`{"name":"tfidf.map/0","cat":"tfidf.count","ph":"X","ts":40,"dur":50,"pid":2,"tid":0,"args":{"node":"tfidf.map","kind":"run","shard":0,"wave":-1,"backend":"rpc","worker":"w1","queue_wait_us":10,"bytes_out":100,"bytes_in":200,"worker_run_us":35}},`,
		`{"name":"tfidf.map/1","cat":"tfidf.count","ph":"X","ts":45,"dur":50,"pid":3,"tid":0,"args":{"node":"tfidf.map","kind":"run","shard":1,"wave":-1,"backend":"rpc","worker":"w2","queue_wait_us":15,"bytes_out":150,"bytes_in":250,"resend":true}},`,
		`{"name":"kmeans.assign/0","cat":"kmeans.assign","ph":"X","ts":110,"dur":40,"pid":2,"tid":0,"args":{"node":"kmeans.assign","kind":"loop-shard","shard":0,"wave":0,"backend":"rpc","worker":"w1","queue_wait_us":10}},`,
		`{"name":"iteration","cat":"kmeans","ph":"i","ts":120,"pid":1,"tid":0,"s":"g","args":{"label":"iter=1","value":3}}`,
		`]`,
		``,
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("Chrome trace drifted from golden.\ngot:\n%s\nwant:\n%s", got, want)
	}
	// And the output must be valid JSON.
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
}

// TestChromeTraceLanePacking: two overlapping coordinator spans must land
// on different tid lanes; a third starting after the first ends reuses
// lane 0.
func TestChromeTraceLanePacking(t *testing.T) {
	base := time.Unix(1000, 0).UTC()
	at := func(us int64) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }
	tr := &Trace{Start: base, Spans: []Span{
		{Node: "a", Kind: "run", Iter: -1, Start: at(0), End: at(100)},
		{Node: "b", Kind: "run", Iter: -1, Start: at(50), End: at(150)},
		{Node: "c", Kind: "run", Iter: -1, Start: at(100), End: at(200)},
	}}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var evs []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		Tid  int    `json:"tid"`
	}
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatal(err)
	}
	lanes := map[string]int{}
	for _, e := range evs {
		if e.Ph == "X" {
			lanes[e.Name] = e.Tid
		}
	}
	if lanes["a/0"] != 0 || lanes["b/0"] != 1 || lanes["c/0"] != 0 {
		t.Errorf("lane packing: got %v, want a/0→0 b/0→1 c/0→0", lanes)
	}
}

// TestNodeTable checks the per-node rollup: task counts, iteration counts,
// bytes and worker fan-out.
func TestNodeTable(t *testing.T) {
	out := NodeTable(fixedTrace())
	for _, want := range []string{"scan", "tfidf.map", "kmeans.assign", "node", "workers"} {
		if !strings.Contains(out, want) {
			t.Errorf("NodeTable lacks %q:\n%s", want, out)
		}
	}
	// tfidf.map: 2 tasks over workers w1+w2, 350 bytes out.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "tfidf.map") {
			fields := strings.Fields(line)
			if fields[1] != "2" {
				t.Errorf("tfidf.map task count = %s, want 2", fields[1])
			}
			if fields[len(fields)-1] != "2" {
				t.Errorf("tfidf.map worker count = %s, want 2", fields[len(fields)-1])
			}
		}
		if strings.HasPrefix(line, "kmeans.assign") {
			fields := strings.Fields(line)
			if fields[2] != "1" {
				t.Errorf("kmeans.assign iteration count = %s, want 1", fields[2])
			}
		}
	}
}
