package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"hpa/internal/corpus"
	"hpa/internal/kmeans"
	hpametrics "hpa/internal/metrics"
	"hpa/internal/obs"
	"hpa/internal/pario"
	"hpa/internal/serve"
	"hpa/internal/simsearch"
	"hpa/internal/tfidf"
	"hpa/internal/workflow"
)

// tracedOps is how many ops run with the program's tracer attached and the
// benchmark's spans recording; their median against the untraced median is
// the tracing overhead.
const tracedOps = 3

// runTraced is the per-layer mode. Per workload: one set-up (its stages as
// spans), an untraced reference window of a third of the seconds, a few
// traced ops, then every layer replayed on the workload's data through its
// exported functions. Spans are kept in memory and written when the
// workload is done: trace-<workload>.json (Chrome trace events) and
// layers-<workload>.json (metrics, span roll-up, sizes, environment).
func runTraced(names []string, w *world, seconds float64, env map[string]any, outDir string) (result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	var res result
	for _, name := range names {
		m, ref, sizes, log, err := traceWorkload(name, w, seconds)
		if err != nil {
			return result{}, err
		}
		env["loadavg_after"] = loadavg()
		attempted, failed, firstErr := ref.counts()
		if err := log.writeChromeTrace(filepath.Join(outDir, "trace-"+name+".json")); err != nil {
			return result{}, err
		}
		err = writeJSON(filepath.Join(outDir, "layers-"+name+".json"), map[string]any{
			"workload": name, "env": env, "sizes": sizes, "metrics": m, "spans": log.totals(),
			"ops": map[string]int{"attempted": attempted, "failed": failed},
		})
		if err != nil {
			return result{}, err
		}
		printEnv(env)
		fmt.Printf("\n%s  sizes %s\n", name, compactJSON(sizes))
		fmt.Printf("  reference window: ops attempted %d, failed %d\n", attempted, failed)
		if firstErr != nil {
			fmt.Printf("  first failure: %v\n", firstErr)
		}
		for _, p := range perLayer {
			if v, ok := m[p.name]; ok { // the ones that apply to this workload
				fmt.Printf("  %-32s %16.4f %s\n", p.name, v.Value, p.unit)
			}
		}
		fmt.Printf("  wrote %s/{trace,layers}-%s.json\n", outDir, name)
		res.add(name, len(names) > 1, m.padded(), attempted, failed)
	}
	return res, nil
}

func traceWorkload(name string, w *world, seconds float64) (metricSet, *opStats, map[string]any, *spanLog, error) {
	wl, err := newWorkload(name)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	defer tearDown(wl)
	m := metricSet{}
	log := newSpanLog(name)
	root := log.begin("run", -1, 0)

	sid := log.begin("setup", root, 0)
	setup, err := setUpAndWarm(wl, w, log, sid, int(w.scale(float64(wl.warmupOps()))))
	log.end(sid)
	if err != nil {
		return nil, nil, nil, nil, err
	}

	// The reference window: ordinary untraced ops, with the process's
	// allocation and GC counters read on either side.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gc0 := gcCPUSeconds()
	wid := log.begin("window", root, 0)
	win := runWindow(wl, time.Duration(seconds/rounds*float64(time.Second)), 0, 0)
	log.end(wid)
	gc1 := gcCPUSeconds()
	runtime.ReadMemStats(&after)
	win.setup = setup
	ref := &opStats{windows: []window{win}}
	if win.failed > 0 || len(win.walls) == 0 {
		return nil, nil, nil, nil, fmt.Errorf("%s: reference window: %d of %d ops failed: %v", name, win.failed, win.attempted, win.firstErr)
	}
	ops := float64(len(win.walls))
	m.set("proc.alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/mb/ops)
	m.set("proc.mallocs_per_op", float64(after.Mallocs-before.Mallocs)/ops)
	m.set("proc.gc_cpu_share", (gc1-gc0)/win.cpu.Seconds())
	_, v := tail(sorted(win.walls))
	m.set("e2e.op_samples", ops)
	m.set("e2e.op_wall_tail_ms", v)

	lid := log.begin("layers", root, 0)
	err = wl.layers(log, lid, ref, m)
	log.end(lid)
	log.end(root)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("%s: layers: %w", name, err)
	}
	m.set("proc.peak_rss_mb", peakRSSMB())
	if err := checkLayers(name, m); err != nil {
		return nil, nil, nil, nil, err
	}
	return m, ref, wl.sizes(), log, nil
}

// gcCPUSeconds reads the runtime's estimate of CPU time spent in the
// garbage collector so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// addObs hangs the program's own task spans (one per scheduled task, from
// an obs.Tracer attached to a single op) under parent, one lane per shard.
func (l *spanLog) addObs(parent int, tr *obs.Trace) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range tr.Spans {
		l.spans = append(l.spans, span{
			Name: "task:" + s.Node + "/" + s.Kind, Start: s.Start, End: s.End,
			Parent: parent, Lane: 1 + s.Shard,
		})
	}
}

// traceOps runs tracedOps ops with a fresh program tracer each, inside
// spans. It returns the median wall time, and the last op's wall time and
// trace (the op whose in-situ breakdown the caller keeps).
func traceOps(log *spanLog, parent int, op func(*obs.Tracer) error) (med, last time.Duration, tr *obs.Trace, err error) {
	var walls []float64
	var id int
	for i := 0; i < tracedOps; i++ {
		tracer := obs.NewTracer()
		id = log.begin("op.traced", parent, 0)
		start := time.Now()
		err := op(tracer)
		last = time.Since(start)
		log.end(id)
		if err != nil {
			return 0, 0, nil, err
		}
		walls = append(walls, float64(last))
		tr = tracer.Snapshot()
	}
	log.addObs(id, tr)
	return time.Duration(median(walls)), last, tr, nil
}

// phaseMetric names the per-layer metric of each phase the program's
// in-situ breakdown can hold.
var phaseMetric = map[string]string{
	tfidf.PhaseInputWC:   "workflow.phase.input-wc_ms",
	tfidf.PhaseTransform: "workflow.phase.transform_ms",
	kmeans.PhaseKMeans:   "workflow.phase.kmeans_ms",
	workflow.PhaseOutput: "workflow.phase.output_ms",
}

// setPhases copies the named phases of the program's in-situ breakdown of
// one op (the phases the workload's plan has) and derives the share of the
// op's wall time none of them accounts for.
func setPhases(out metricSet, bd *hpametrics.Breakdown, wall time.Duration, phases ...string) {
	var sum time.Duration
	for _, phase := range phases {
		d := bd.Get(phase)
		out.set(phaseMetric[phase], ms(d))
		sum += d
	}
	out.set("workflow.unattributed_share", float64(wall-sum)/float64(wall))
}

// corpusLayers replays the layers a corpus passes through on its way to a
// clustering: the text front end, the query vectorizer over queries drawn
// from the same documents, and K-Means (which must hash to want).
func corpusLayers(log *spanLog, parent int, w *world, src pario.Source, opts tfidf.Options, km kmeans.Options, want uint64, out metricSet) error {
	res, docs, err := textLayers(log, parent, src, w.pool, opts, out)
	if err != nil {
		return err
	}
	if _, err := vectorizeLayer(log, parent, res, opts, pickQueries(docs, w.seed), out); err != nil {
		return err
	}
	return kmeansLayers(log, parent, res, w.pool, w.single, km, want, out)
}

func kmeansPartsMS(out metricSet) float64 {
	return out["kmeans.seed_ms"].Value + out["kmeans.assign_ms"].Value + out["kmeans.update_ms"].Value
}

// ---- text-e2e ----------------------------------------------------------

func (t *textWorkload) layers(log *spanLog, parent int, ref *opStats, out metricSet) error {
	var rep *workflow.TFKMReport
	wall, last, _, err := traceOps(log, parent, func(tr *obs.Tracer) (err error) {
		if rep, err = t.run(t.w.pool, tr); err != nil {
			return err
		}
		return checkClustering(rep.Clustering.Result, t.ref)
	})
	if err != nil {
		return err
	}
	out.set("trace.overhead_ratio", ms(wall)/median(ref.walls()))
	setPhases(out, rep.Breakdown, last, tfidf.PhaseInputWC, tfidf.PhaseTransform, kmeans.PhaseKMeans, workflow.PhaseOutput)

	// The output node alone, on the traced op's clustering.
	ctx := workflow.NewContext(t.w.pool)
	ctx.ScratchDir = t.scratch
	d := log.timed("workflow.output", parent, func() { _, err = (&workflow.WriteAssignments{}).Run(ctx, rep.Clustering) })
	if err != nil {
		return err
	}
	out.set("workflow.output_ms", ms(d))
	st, err := os.Stat(filepath.Join(t.scratch, "clusters.tsv"))
	if err != nil {
		return err
	}
	out.set("workflow.output_mb", float64(st.Size())/mb)

	src, err := corpus.OpenDir(t.dir, nil)
	if err != nil {
		return err
	}
	if err := corpusLayers(log, parent, t.w, src, t.cfg.TFIDF, t.cfg.KMeans, t.ref, out); err != nil {
		return err
	}
	// What the plan's loop machinery adds to the K-Means phase.
	out.set("workflow.loop_overhead_ms", out["workflow.phase.kmeans_ms"].Value-kmeansPartsMS(out))
	return nil
}

// ---- cluster-local / cluster-rpc ----------------------------------------

func (c *clusterWorkload) layers(log *spanLog, parent int, ref *opStats, out metricSet) error {
	var req0, rep0 int64
	for _, l := range c.listeners {
		req0 += l.read.Load()
		rep0 += l.written.Load()
	}
	var bd *hpametrics.Breakdown
	wall, last, tr, err := traceOps(log, parent, func(tr *obs.Tracer) error {
		res, b, err := c.run(c.w.pool, c.opBackend(), tr)
		if err != nil {
			return err
		}
		bd = b
		return checkClustering(res, c.ref)
	})
	if err != nil {
		return err
	}
	out.set("trace.overhead_ratio", ms(wall)/median(ref.walls()))
	setPhases(out, bd, last, kmeans.PhaseKMeans)

	if c.rpc {
		var req, rep int64
		for _, l := range c.listeners {
			req += l.read.Load()
			rep += l.written.Load()
		}
		out.set("wire.req_mb_per_op", float64(req-req0)/mb/tracedOps)
		out.set("wire.reply_mb_per_op", float64(rep-rep0)/mb/tracedOps)
		var calls int
		for _, s := range tr.Spans {
			if s.Worker != "" {
				calls++
			}
		}
		out.set("wire.calls_per_op", float64(calls))
		ship, _ := c.backend.MeasuredShipNS()
		out.set("workflow.ship_ns_per_task", ship)
		// The same plan in-process: identical compute, no wire.
		var local []float64
		id := log.begin("op.local", parent, 0)
		for i := 0; i < 2*tracedOps; i++ {
			start := time.Now()
			if _, _, err := c.run(c.w.pool, workflow.LocalBackend{}, nil); err != nil {
				return err
			}
			local = append(local, ms(time.Since(start)))
		}
		log.end(id)
		out.set("wire.rpc_over_local_ratio", median(ref.walls())/median(local))
	}

	if err := corpusLayers(log, parent, c.w, c.docs.Source(nil), textOptions, c.opts, c.ref, out); err != nil {
		return err
	}
	// op − seed − assign − update: executor, barriers and (on RPC) the wire.
	out.set("workflow.loop_overhead_ms", median(ref.walls())-kmeansPartsMS(out))
	return nil
}

// ---- serve-query --------------------------------------------------------

func (s *serveWorkload) layers(log *spanLog, parent int, ref *opStats, out metricSet) error {
	asc := sorted(ref.walls())
	p50 := quantile(asc, 0.5) * 1000
	out.set("serve.http.p50_us", p50)
	out.set("serve.http.p99_us", quantile(asc, 0.99)*1000)

	// Class medians from the same window: it has no failed op (the traced
	// run stops on one), so sample j of client c is query queryOf(c, j).
	var perClass [2][]float64
	for c, walls := range ref.windows[0].byClient {
		for j, wall := range walls {
			class := 0
			if s.queries[s.queryOf(c, j)].Long {
				class = 1
			}
			perClass[class] = append(perClass[class], wall*1000)
		}
	}
	if len(perClass[0]) == 0 || len(perClass[1]) == 0 {
		return fmt.Errorf("reference window saw %d short and %d long queries", len(perClass[0]), len(perClass[1]))
	}
	out.set("serve.http.short_p50_us", median(perClass[0]))
	out.set("serve.http.long_p50_us", median(perClass[1]))

	// Traced pass: both clients replay the query set once with a span
	// around every request; the median against the untraced median is what
	// recording a span per request costs.
	traced := make([][]float64, s.clients())
	errs := make([]error, s.clients())
	id := log.begin("queries.traced", parent, 0)
	var wg sync.WaitGroup
	for c := range traced {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < len(s.queries) && errs[c] == nil; i++ {
				qid := log.begin("query", id, c)
				start := time.Now()
				errs[c] = s.op(c, i)
				traced[c] = append(traced[c], us(time.Since(start)))
				log.end(qid)
			}
		}()
	}
	wg.Wait()
	log.end(id)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	var all []float64
	for _, t := range traced {
		all = append(all, t...)
	}
	out.set("trace.overhead_ratio", median(all)/p50)

	// The handler without a socket.
	handler := s.srv.Handler()
	var handlerUS []float64
	id = log.begin("serve.handler", parent, 0)
	for q := range s.queries {
		req := httptest.NewRequest(http.MethodPost, queryPath, bytes.NewReader(s.bodies[q]))
		rec := httptest.NewRecorder()
		start := time.Now()
		handler.ServeHTTP(rec, req)
		handlerUS = append(handlerUS, us(time.Since(start)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler: query %d: status %d", q, rec.Code)
		}
	}
	log.end(id)
	out.set("serve.handler_us", median(handlerUS))
	out.set("serve.net_share", 1-median(handlerUS)/p50)

	// The artifact's TopK: vectorize + postings scan + top-k, no HTTP, no JSON.
	var topkUS []float64
	id = log.begin("serve.topk", parent, 0)
	for q, qu := range s.queries {
		text := []byte(qu.Text)
		start := time.Now()
		got := s.art.TopK(text, serveTopK)
		topkUS = append(topkUS, us(time.Since(start)))
		if len(got) != len(s.refs[q]) {
			return fmt.Errorf("topk: query %d: %d matches, reference %d", q, len(got), len(s.refs[q]))
		}
	}
	log.end(id)
	out.set("serve.topk_us", median(topkUS))

	// JSON alone: decode one request body, encode one full answer.
	var jsonUS []float64
	answer := serve.QueryResponse{Index: indexName, Version: 1, Matches: make([]serve.QueryMatch, serveTopK)}
	for i := range answer.Matches {
		answer.Matches[i] = serve.QueryMatch{Doc: 1000 + i, Name: "mix/0001000.txt", Score: 0.123456789 / float64(i+1), Cluster: int32(i % textK)}
	}
	id = log.begin("serve.json", parent, 0)
	for q := range s.queries {
		var req serve.QueryRequest
		start := time.Now()
		if err := json.Unmarshal(s.bodies[q], &req); err != nil {
			return err
		}
		if _, err := json.Marshal(&answer); err != nil {
			return err
		}
		jsonUS = append(jsonUS, us(time.Since(start)))
	}
	log.end(id)
	out.set("serve.json_us", median(jsonUS))

	// Shed requests, from the server's own counter.
	var stats serve.ServerStats
	resp, err := s.conns[0].Get(s.url + "/v1/stats")
	if err != nil {
		return err
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		return err
	}
	out.set("serve.rejected", float64(stats.QueriesShed))

	// The layers under the index: the corpus through the text front end
	// (what set-up pays), the vectorizer, the searcher on ready vectors.
	src, err := corpus.OpenDir(filepath.Join(s.w.dir, s.name(), "data", "corpus"), nil)
	if err != nil {
		return err
	}
	opts := textOptions
	res, _, err := textLayers(log, parent, src, s.w.pool, opts, out)
	if err != nil {
		return err
	}
	vecs, err := vectorizeLayer(log, parent, res, opts, s.queries, out)
	if err != nil {
		return err
	}
	var ix *simsearch.Index
	d := log.timed("simsearch.build", parent, func() { ix, err = simsearch.Build(res.Vectors, res.Dim(), s.w.pool) })
	if err != nil {
		return err
	}
	out.set("simsearch.build_ms", ms(d))
	out.set("simsearch.index_mb", float64(ix.MemBytes())/mb)
	searcher := simsearch.NewSearcher(ix)
	var searchUS []float64
	var postings int
	id = log.begin("simsearch.topk", parent, 0)
	for q := range vecs {
		start := time.Now()
		got := searcher.TopK(&vecs[q], serveTopK)
		searchUS = append(searchUS, us(time.Since(start)))
		if !slices.Equal(got, s.refs[q]) {
			return fmt.Errorf("simsearch: query %d differs from the served reference", q)
		}
		for _, t := range vecs[q].Idx {
			postings += ix.PostingLen(t)
		}
	}
	log.end(id)
	out.set("simsearch.topk_us", median(searchUS))
	out.set("simsearch.postings_per_query", float64(postings)/float64(len(vecs)))
	// The plan that published the index also clustered it (K=8).
	return kmeansLayers(log, parent, res, s.w.pool, s.w.single, kmeans.Options{K: textK, Seed: s.w.seed}, 0, out)
}
