package workflow

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"hpa/internal/corpus"
	"hpa/internal/dict"
	"hpa/internal/kmeans"
	"hpa/internal/obs"
	"hpa/internal/par"
	"hpa/internal/tfidf"
)

// tracedTFKM runs the merged sharded TF/IDF→K-Means workflow with a tracer
// attached and returns the snapshot.
func tracedTFKM(t *testing.T, backend Backend, scratch string) *obs.Trace {
	t.Helper()
	src := diskCorpus(t)
	pool := par.NewPool(4)
	defer pool.Close()
	ctx := NewContext(pool)
	ctx.ScratchDir = scratch
	ctx.Backend = backend
	ctx.Tracer = obs.NewTracer()
	_, err := RunTFKM(src, ctx, TFKMConfig{
		Mode:   Merged,
		Shards: 4,
		TFIDF:  tfidf.Options{Normalize: true},
		KMeans: kmeans.Options{K: 8, Seed: 1},
	})
	if err != nil {
		t.Fatalf("RunTFKM(backend=%s): %v", backend.Name(), err)
	}
	return ctx.Tracer.Snapshot()
}

// spanKey is a span's backend-independent identity.
func spanKey(s *obs.Span) string {
	return fmt.Sprintf("%s|%s|%s|%s|%d|%d", s.Node, s.Op, s.Kind, s.Phase, s.Shard, s.Iter)
}

// TestCrossBackendSpanParity: local and RPC runs of the same plan must
// schedule the same task set — identical (node, op, kind, phase, shard,
// iter) multisets, differing only in worker lanes and wire annotations.
func TestCrossBackendSpanParity(t *testing.T) {
	scratch := t.TempDir()
	local := tracedTFKM(t, LocalBackend{}, scratch)
	remote := tracedTFKM(t, pipeBackend(t, 2), scratch)

	keys := func(tr *obs.Trace) []string {
		out := make([]string, len(tr.Spans))
		for i := range tr.Spans {
			out[i] = spanKey(&tr.Spans[i])
		}
		sort.Strings(out)
		return out
	}
	lk, rk := keys(local), keys(remote)
	if len(lk) != len(rk) {
		t.Fatalf("span counts differ: local %d, rpc %d\nlocal: %v\nrpc: %v", len(lk), len(rk), lk, rk)
	}
	for i := range lk {
		if lk[i] != rk[i] {
			t.Fatalf("span sets diverge at %d: local %q, rpc %q", i, lk[i], rk[i])
		}
	}

	// The local run must not claim worker lanes; the RPC run must use some.
	if got := len(local.Workers()); got != 0 {
		t.Errorf("local run recorded %d worker lanes", got)
	}
	if got := len(remote.Workers()); got == 0 {
		t.Error("RPC run recorded no worker lanes")
	}
	// Remote shard tasks must carry wire accounting.
	var shipped int64
	for i := range remote.Spans {
		shipped += remote.Spans[i].BytesOut + remote.Spans[i].BytesIn
	}
	if shipped == 0 {
		t.Error("RPC run recorded no wire bytes")
	}
}

// TestTraceCoversEveryTask: span fields are complete — every span has a
// node, op, kind, backend and a coherent Queued<=Start<=End timeline, loop
// shard spans carry iterations starting at 0, the K-Means++ seeding rounds
// appear as prepare-wave spans (one per shard per round plus the round's
// draw barrier) with matching per-round events, and the K-Means loop
// emitted per-iteration events.
func TestTraceCoversEveryTask(t *testing.T) {
	tr := tracedTFKM(t, LocalBackend{}, t.TempDir())
	if len(tr.Spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	// tracedTFKM clusters with K=8 over 4 shards: K-Means++ runs K-1 seed
	// rounds, each scanning every shard before the coordinator draws.
	const wantRounds, wantShards = 7, 4
	iters := map[int]bool{}
	prepShards, prepEnds := map[int]int{}, map[int]int{}
	for i := range tr.Spans {
		s := &tr.Spans[i]
		if s.Node == "" || s.Op == "" || s.Kind == "" || s.Backend == "" {
			t.Fatalf("span %d incomplete: %+v", i, s)
		}
		if s.Queued.After(s.Start) || s.Start.After(s.End) {
			t.Fatalf("span %d has an incoherent timeline: %+v", i, s)
		}
		switch s.Kind {
		case "loop-shard":
			if s.Iter < 0 {
				t.Fatalf("loop-shard span without iteration: %+v", s)
			}
			iters[s.Iter] = true
		case "loop-prep":
			if s.Iter < 0 {
				t.Fatalf("loop-prep span without round: %+v", s)
			}
			prepShards[s.Iter]++
		case "loop-prep-end":
			if s.Iter < 0 {
				t.Fatalf("loop-prep-end span without round: %+v", s)
			}
			prepEnds[s.Iter]++
		case "run":
			if s.Iter != -1 {
				t.Fatalf("non-loop span claims iteration %d: %+v", s.Iter, s)
			}
		}
	}
	if !iters[0] {
		t.Errorf("loop iterations do not start at 0: %v", iters)
	}
	if len(prepShards) != wantRounds || len(prepEnds) != wantRounds {
		t.Errorf("seed rounds traced: %d prep waves, %d barriers, want %d of each",
			len(prepShards), len(prepEnds), wantRounds)
	}
	for round := 0; round < wantRounds; round++ {
		if prepShards[round] != wantShards {
			t.Errorf("seed round %d traced %d shard scans, want %d", round, prepShards[round], wantShards)
		}
		if prepEnds[round] != 1 {
			t.Errorf("seed round %d traced %d draw barriers, want 1", round, prepEnds[round])
		}
	}
	var kmEvents, seedEvents int
	for _, e := range tr.Events {
		switch {
		case e.Cat == "kmeans" && e.Name == "iteration":
			kmEvents++
			// The label ends with how many of the 8 centroids the update
			// rewrote: every cluster that gained its first members in
			// iteration 1, none once no document moves.
			var iter, n, k int
			var inertia float64
			if _, err := fmt.Sscanf(e.Label, "iter=%d inertia=%g recomputed=%d/%d", &iter, &inertia, &n, &k); err != nil {
				t.Fatalf("iteration event label %q: %v", e.Label, err)
			}
			if k != 8 || n < 0 || n > k || iter == 1 && n == 0 || e.Value == 0 && n != 0 {
				t.Errorf("iteration %d moved %d documents and reports recomputed=%d/%d", iter, e.Value, n, k)
			}
		case e.Cat == "kmeans" && e.Name == "seed-round":
			seedEvents++
		}
	}
	if kmEvents != len(iters) {
		t.Errorf("kmeans iteration events %d != loop iterations %d", kmEvents, len(iters))
	}
	if seedEvents != wantRounds {
		t.Errorf("kmeans seed-round events %d != seed rounds %d", seedEvents, wantRounds)
	}
}

// BenchmarkTracingOverhead measures the cost of the tracing hooks over the
// full iterative plan: nil tracer (production default) versus an attached
// collector. The nil case must stay within noise of the untraced run; this
// benchmark makes the comparison reproducible.
func BenchmarkTracingOverhead(b *testing.B) {
	c := corpus.Generate(corpus.Mix().Scaled(0.05), nil)
	for _, bc := range []struct {
		name   string
		traced bool
	}{{"nil-tracer", false}, {"traced", true}} {
		b.Run(bc.name, func(b *testing.B) {
			pool := par.NewPool(runtime.GOMAXPROCS(0))
			defer pool.Close()
			b.SetBytes(c.Bytes())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan := NewPlan().
					Add("scan", &SourceOp{Src: c.Source(nil)}).
					Add("tfidf", &TFIDFOp{Opts: tfidf.Options{DictKind: dict.Tree, Normalize: true}}).
					Add("kmeans", &KMeansOp{Opts: kmeans.Options{K: 8, Seed: 42}}).
					Connect("scan", "tfidf").
					Connect("tfidf", "kmeans").
					Apply(PartitionRule(0))
				ctx := NewContext(pool)
				if bc.traced {
					ctx.Tracer = obs.NewTracer()
				}
				if _, err := plan.Run(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// serialTrace runs plan on a pool of the given size with Serial set and a
// tracer attached, and returns the spans ordered by start.
func serialTrace(t *testing.T, plan *Plan, workers int) []obs.Span {
	t.Helper()
	ctx := testCtx(t, workers)
	ctx.Serial = true
	ctx.Tracer = obs.NewTracer()
	if _, err := plan.Run(ctx); err != nil {
		t.Fatal(err)
	}
	spans := ctx.Tracer.Snapshot().Spans
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	return spans
}

// TestSerialRunSpansAreDisjoint: under Context.Serial no two tasks
// overlap, even where the plan branches and the pool has workers to run
// the branches side by side.
func TestSerialRunSpansAreDisjoint(t *testing.T) {
	spans := serialTrace(t, branchingPlan(testCorpus().Source(nil)), 4)
	if len(spans) < 2 {
		t.Fatalf("%d spans", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if prev, s := &spans[i-1], &spans[i]; s.Start.Before(prev.End) {
			t.Fatalf("%s/%d [%s] starts before %s/%d [%s] ends", s.Node, s.Shard, s.Kind, prev.Node, prev.Shard, prev.Kind)
		}
	}
}

// TestSerialSpansCoverAllPhases: the spans of a serial discrete run name
// every Figure 3 phase, and the disk traffic of reads, the ARFF pair and
// the output rides on the spans that caused it.
func TestSerialSpansCoverAllPhases(t *testing.T) {
	c := testCorpus()
	spans := serialTrace(t, TFKMPlan(c.Source(nil), baseCfg(Discrete)), 1)
	io := map[string]int64{}
	for i := range spans {
		io[spans[i].Phase] += spans[i].IOBytes
	}
	for _, ph := range []string{tfidf.PhaseInputWC, tfidf.PhaseTransform, tfidf.PhaseOutput, "kmeans-input", kmeans.PhaseKMeans, PhaseOutput} {
		if _, ok := io[ph]; !ok {
			t.Errorf("no span carries phase %q", ph)
		}
	}
	for _, ph := range []string{tfidf.PhaseInputWC, tfidf.PhaseOutput, "kmeans-input", PhaseOutput} {
		if io[ph] == 0 {
			t.Errorf("phase %q moved no disk bytes", ph)
		}
	}
	if want := c.Source(nil).TotalBytes(); io[tfidf.PhaseInputWC] != want {
		t.Errorf("input spans read %d bytes, the corpus holds %d", io[tfidf.PhaseInputWC], want)
	}
	if io[tfidf.PhaseOutput] != io["kmeans-input"] {
		t.Errorf("ARFF written %d bytes, read %d", io[tfidf.PhaseOutput], io["kmeans-input"])
	}
}

// TestRecordingIsPassive: a recording run — traced, Serial, one pool
// worker, a pinned shard count — computes exactly what an untraced run on
// four workers at auto shards does, so the figures are simulated from the
// code that production runs.
func TestRecordingIsPassive(t *testing.T) {
	c := testCorpus()
	run := func(workers, shards int, record bool) uint64 {
		ctx := testCtx(t, workers)
		cfg := baseCfg(Discrete)
		cfg.Shards = shards
		if record {
			ctx.Serial = true
			ctx.Tracer = obs.NewTracer()
		}
		rep, err := RunTFKM(c.Source(nil), ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return clusteringDigest(rep.Clustering.Result)
	}
	recorded, plain := run(1, 8, true), run(4, 0, false)
	if recorded != plain {
		t.Fatalf("recorded run digest %#016x, untraced run %#016x", recorded, plain)
	}
}

// TestBreakdownIsTheSpanRollUp: the Breakdown is the spans rolled up, not a
// second record. For every phase, Breakdown.Get equals the sum over nodes
// of the node's extent (last span end − first span start) over its spans
// in that phase, exactly; and the phases never sum past the run's wall.
func TestBreakdownIsTheSpanRollUp(t *testing.T) {
	c := testCorpus()
	for _, mode := range []Mode{Merged, Discrete} {
		for _, shards := range []int{1, 3, 8} {
			for _, serial := range []bool{false, true} {
				name := fmt.Sprintf("%s/shards=%d/serial=%t", mode, shards, serial)
				t.Run(name, func(t *testing.T) {
					cfg := baseCfg(mode)
					cfg.Shards = shards
					ctx := testCtx(t, 2)
					ctx.Serial = serial
					ctx.Tracer = obs.NewTracer()
					plan := TFKMPlan(c.Source(nil), cfg)
					start := time.Now()
					if _, err := plan.Run(ctx); err != nil {
						t.Fatal(err)
					}
					wall := time.Since(start)

					type extent struct{ first, last time.Time }
					extents := map[[2]string]*extent{} // by (node, phase)
					for _, s := range ctx.Tracer.Snapshot().Spans {
						if s.Phase == "" {
							continue
						}
						k := [2]string{s.Node, s.Phase}
						e := extents[k]
						if e == nil {
							extents[k] = &extent{s.Start, s.End}
							continue
						}
						if s.Start.Before(e.first) {
							e.first = s.Start
						}
						if s.End.After(e.last) {
							e.last = s.End
						}
					}
					want := map[string]time.Duration{}
					for k, e := range extents {
						want[k[1]] += e.last.Sub(e.first)
					}
					bd := ctx.Breakdown
					if got := bd.Phases(); len(got) != len(want) {
						t.Fatalf("breakdown phases %v, spans carry %d phases", got, len(want))
					}
					for ph, d := range want {
						if got := bd.Get(ph); got != d {
							t.Errorf("phase %q: breakdown %v, span roll-up %v", ph, got, d)
						}
					}
					if total := bd.Total(); total > wall {
						t.Errorf("phases sum to %v, more than the run's wall %v", total, wall)
					}
				})
			}
		}
	}
}
