package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"hpa/internal/kmeans"
	"hpa/internal/par"
)

func TestTopicalGeneratorDeterministicPerSeed(t *testing.T) {
	spec := clusterSpec
	spec.Docs = 200
	a, b, c := generateTopical(spec, 7), generateTopical(spec, 7), generateTopical(spec, 8)
	if len(a.Docs) != spec.Docs {
		t.Fatalf("got %d docs, want %d", len(a.Docs), spec.Docs)
	}
	differ := 0
	for i := range a.Docs {
		if !bytes.Equal(a.Docs[i], b.Docs[i]) {
			t.Fatalf("doc %d differs between two generations from seed 7", i)
		}
		if !bytes.Equal(a.Docs[i], c.Docs[i]) {
			differ++
		}
		// The seed respells words; it must not change the structure.
		if len(bytes.Fields(a.Docs[i])) != len(bytes.Fields(c.Docs[i])) {
			t.Fatalf("doc %d has a different token count under seeds 7 and 8", i)
		}
	}
	if differ != spec.Docs {
		t.Fatalf("only %d of %d docs differ between seeds 7 and 8", differ, spec.Docs)
	}
}

func TestQueryPickerDeterministicPerSeed(t *testing.T) {
	docs := generateTopical(clusterSpec, 1).Docs[:300]
	a, b, c := pickQueries(docs, 3), pickQueries(docs, 3), pickQueries(docs, 4)
	if len(a) != queryCount {
		t.Fatalf("got %d queries, want %d", len(a), queryCount)
	}
	same, long := 0, 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("query %d differs between two picks from seed 3", i)
		}
		if a[i] == c[i] {
			same++
		}
		want := shortQueryLen
		if a[i].Long {
			want = longQueryLen
			long++
		}
		if got := len(bytes.Fields([]byte(a[i].Text))); got != want {
			t.Fatalf("query %d has %d words, want %d", i, got, want)
		}
	}
	if same > queryCount/10 {
		t.Fatalf("%d of %d queries equal between seeds 3 and 4", same, queryCount)
	}
	if long != queryCount/longQueryEvery {
		t.Fatalf("%d long queries, want %d", long, queryCount/longQueryEvery)
	}
}

// TestEveryClientReplaysTheWholeMix: each client's first queryCount ops
// must cover every query once, so each sees 90 % short and 10 % long.
func TestEveryClientReplaysTheWholeMix(t *testing.T) {
	s := &serveWorkload{queries: pickQueries(generateTopical(clusterSpec, 1).Docs[:300], 3)}
	for c := 0; c < s.clients(); c++ {
		seen := make([]bool, queryCount)
		long := 0
		for i := 0; i < queryCount; i++ {
			q := s.queryOf(c, i)
			if seen[q] {
				t.Fatalf("client %d sends query %d twice in its first %d ops", c, q, queryCount)
			}
			seen[q] = true
			if s.queries[q].Long {
				long++
			}
		}
		if long != queryCount/longQueryEvery {
			t.Errorf("client %d sends %d long queries in %d ops, want %d", c, long, queryCount, queryCount/longQueryEvery)
		}
		if c > 0 && s.queryOf(c, 0) == s.queryOf(0, 0) {
			t.Errorf("clients 0 and %d start on the same query", c)
		}
	}
}

func TestClusteringHashRejectsOneFlip(t *testing.T) {
	r := &kmeans.Result{Assign: make([]int32, 1000), Inertia: 1234.5}
	for i := range r.Assign {
		r.Assign[i] = int32(i % 16)
	}
	want := clusteringHash(r)
	if err := checkClustering(r, want); err != nil {
		t.Fatal(err)
	}
	r.Assign[617] ^= 1
	if checkClustering(r, want) == nil {
		t.Fatal("one flipped assignment passed the check")
	}
	r.Assign[617] ^= 1
	r.Inertia = math.Float64frombits(math.Float64bits(r.Inertia) ^ 1)
	if checkClustering(r, want) == nil {
		t.Fatal("one flipped inertia bit passed the check")
	}
}

func TestCountingListenerCountsExactly(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: lis}
	defer cl.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := cl.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		buf := make([]byte, 1000)
		if _, err := io.ReadFull(conn, buf); err != nil {
			done <- err
			return
		}
		_, err = conn.Write(buf[:333])
		done <- err
	}()
	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn, make([]byte, 333)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if r, w := cl.read.Load(), cl.written.Load(); r != 1000 || w != 333 {
		t.Fatalf("counted %d read, %d written; want 1000, 333", r, w)
	}
}

func TestPercentileHelpers(t *testing.T) {
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	asc := sorted(xs)
	if got := quantile(asc, 0.5); got != 50.5 {
		t.Errorf("median of 1..100 = %v, want 50.5", got)
	}
	// 100 samples: the percentile with ten beyond it is p90.
	if p, v := tail(asc); p != 0.9 || math.Abs(v-90.1) > 1e-9 {
		t.Errorf("tail of 1..100 = p%v %v, want p0.9 90.1", p, v)
	}
	// 35 batch ops: p(25/35); 12 ops: floored at the median; 10⁵: capped.
	if p, _ := tail(asc[:35]); math.Abs(p-25.0/35) > 1e-12 {
		t.Errorf("tail percentile of 35 samples = %v, want %v", p, 25.0/35)
	}
	if p, _ := tail(asc[:12]); p != 0.5 {
		t.Errorf("tail percentile of 12 samples = %v, want 0.5", p)
	}
	if p, _ := tail(make([]float64, 100000)); p != 0.99 {
		t.Errorf("tail percentile of 1e5 samples = %v, want 0.99", p)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want 1", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	l := newSpanLog("w")
	l.spans = []span{
		{Name: "parent", Start: at(0), End: at(100), Parent: -1},
		{Name: "child", Start: at(10), End: at(40), Parent: 0},
		{Name: "child", Start: at(30), End: at(60), Parent: 0, Lane: 1}, // overlaps the first
		{Name: "open", Start: at(70), Parent: 0},                        // never ended: ignored
	}
	got := l.totals()
	if len(got) != 2 || got[0].Name != "parent" || got[1].Name != "child" {
		t.Fatalf("totals = %+v", got)
	}
	if got[0].TotalMS != 100 || got[0].SelfMS != 50 { // children cover [10, 60)
		t.Errorf("parent total %v self %v, want 100 and 50", got[0].TotalMS, got[0].SelfMS)
	}
	if got[1].Count != 2 || got[1].TotalMS != 60 || got[1].SelfMS != 60 {
		t.Errorf("child = %+v, want count 2, total 60, self 60", got[1])
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := l.writeChromeTrace(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) != 3 {
		t.Fatalf("chrome trace: %v, %d events, want 3", err, len(doc.TraceEvents))
	}
}

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json and the program's
// metric and workload tables in step.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name, Unit string
		Bound      float64
	}
	var bf struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloadOrder) {
		t.Fatalf("%d workloads declared, %d implemented", len(bf.Workloads), len(workloadOrder))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d is %q, program has %q", i, w.Name, workloadOrder[i])
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d reported", len(bf.EndToEnd), len(endToEnd))
	}
	for i, e := range bf.EndToEnd {
		if e.Name != endToEnd[i].name || e.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d is %s [%s], program has %s [%s]", i, e.Name, e.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d reported", len(bf.PerLayer), len(perLayer))
	}
	for i, p := range bf.PerLayer {
		if p.Name != perLayer[i].name || p.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d is %s [%s], program has %s [%s]", i, p.Name, p.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestQuickRunsEveryWorkload drives one verified op of every workload —
// the RPC workers and the HTTP server included — on shrunken inputs.
func TestQuickRunsEveryWorkload(t *testing.T) {
	pool := par.NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	single := par.NewPool(1)
	defer single.Close()
	w := &world{pool: pool, single: single, dir: t.TempDir(), seed: 5, small: true}
	stats, sizes, err := runEndToEnd(workloadOrder, w, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadOrder {
		attempted, failed, firstErr := stats[name].counts()
		if attempted < 1 || failed != 0 {
			t.Errorf("%s: %d attempted, %d failed: %v", name, attempted, failed, firstErr)
		}
		m := stats[name].endToEndMetrics()
		for _, e := range endToEnd {
			if v := m[e.name].Value; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", name, e.name, v)
			}
		}
		if len(sizes[name]) == 0 {
			t.Errorf("%s: no sizes recorded", name)
		}
	}
}

// TestTracedMeasuresWhatApplies runs the traced mode on shrunken inputs.
// traceWorkload itself fails unless exactly the metrics that apply to the
// workload were measured (checkLayers); here the key set is checked again
// from outside, the padded last line must name every metric, and a few
// metrics each workload exists for must be positive.
func TestTracedMeasuresWhatApplies(t *testing.T) {
	// Cleanup, not defer: the parallel subtests outlive this function.
	pool := par.NewPool(runtime.GOMAXPROCS(0))
	t.Cleanup(pool.Close)
	single := par.NewPool(1)
	t.Cleanup(single.Close)
	positive := map[string][]string{
		"text-e2e":      {"pario.read_mb", "text.tokens", "dict.insert_ns", "tfidf.count_ms", "kmeans.iterations", "workflow.phase.input-wc_ms", "workflow.output_mb", "flatwire.accum_bytes"},
		"cluster-local": {"kmeans.seed_ms", "kmeans.assign_ms", "kmeans.dist_evals", "workflow.phase.kmeans_ms", "e2e.op_samples"},
		"cluster-rpc":   {"wire.req_mb_per_op", "wire.reply_mb_per_op", "wire.calls_per_op", "workflow.ship_ns_per_task", "wire.rpc_over_local_ratio"},
		"serve-query":   {"serve.http.p50_us", "serve.http.short_p50_us", "serve.http.long_p50_us", "serve.handler_us", "serve.topk_us", "simsearch.topk_us", "serve.json_us", "simsearch.postings_per_query", "simsearch.build_ms", "tfidf.vectorize_us"},
	}
	absent := map[string][]string{
		"text-e2e":      {"wire.calls_per_op", "serve.http.p50_us", "simsearch.build_ms"},
		"cluster-local": {"wire.req_mb_per_op", "workflow.phase.input-wc_ms", "workflow.output_mb", "serve.topk_us"},
		"cluster-rpc":   {"workflow.phase.transform_ms", "serve.rejected"},
		"serve-query":   {"wire.rpc_over_local_ratio", "workflow.phase.kmeans_ms", "workflow.loop_overhead_ms"},
	}
	for _, name := range workloadOrder {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w := &world{pool: pool, single: single, dir: t.TempDir(), seed: 9, small: true}
			m, ref, sizes, log, err := traceWorkload(name, w, 0.6)
			if err != nil {
				t.Fatal(err)
			}
			if attempted, failed, firstErr := ref.counts(); attempted < 1 || failed != 0 {
				t.Fatalf("%d attempted, %d failed: %v", attempted, failed, firstErr)
			}
			for _, key := range absent[name] {
				if _, ok := m[key]; ok {
					t.Errorf("%s reported, but does not apply to %s", key, name)
				}
			}
			for _, key := range append(positive[name], "trace.overhead_ratio", "proc.peak_rss_mb") {
				if v, ok := m[key]; !ok || !(v.Value > 0) {
					t.Errorf("%s = %v (measured %v), want > 0", key, v.Value, ok)
				}
			}
			padded := m.padded()
			for _, p := range perLayer {
				if got, ok := padded[p.name]; !ok || got.Unit != p.unit {
					t.Errorf("last line: %s missing or unit %q, want %q", p.name, got.Unit, p.unit)
				}
			}
			if len(sizes) == 0 || len(log.totals()) == 0 {
				t.Errorf("sizes %v, %d span rows", sizes, len(log.totals()))
			}
		})
	}
}

// TestCheckLayersCatchesUnmeasured: a stage that measured nothing, or one
// that reports a metric of another workload, must fail the traced run.
func TestCheckLayersCatchesUnmeasured(t *testing.T) {
	m := metricSet{}
	for _, p := range perLayer {
		if strings.Contains(p.on, "l") {
			m.set(p.name, 1)
		}
	}
	if err := checkLayers("cluster-local", m); err != nil {
		t.Fatal(err)
	}
	delete(m, "kmeans.assign_ms")
	if checkLayers("cluster-local", m) == nil {
		t.Error("an unmeasured kmeans.assign_ms passed")
	}
	m.set("kmeans.assign_ms", 1)
	m.set("wire.calls_per_op", 0)
	if checkLayers("cluster-local", m) == nil {
		t.Error("wire.calls_per_op on cluster-local passed")
	}
}
