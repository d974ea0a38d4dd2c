package workflow

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
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
// node, op, kind, backend and a coherent Queued<=Start<=End timeline — and
// the K-Means loop traces one wave per barrier: its K-Means++ seed rounds
// first, then its iterations, numbered from 0 without gaps, each wave one
// shard span per loop shard plus one barrier span, and one typed event per
// wave (a seed-round or an iteration event). The node table counts the
// waves exactly.
func TestTraceCoversEveryTask(t *testing.T) {
	tr := tracedTFKM(t, LocalBackend{}, t.TempDir())
	if len(tr.Spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	// tracedTFKM clusters with K=8 over 4 shards: K-Means++ runs K-1 seed
	// rounds, each scanning every shard before the coordinator draws.
	const wantRounds, wantShards = 7, 4
	shards, ends := map[int]int{}, map[int]int{}
	loopNode := ""
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
				t.Fatalf("loop-shard span without wave: %+v", s)
			}
			shards[s.Iter]++
			loopNode = s.Node
		case "loop-end":
			if s.Iter < 0 {
				t.Fatalf("loop-end span without wave: %+v", s)
			}
			ends[s.Iter]++
		case "run":
			if s.Iter != -1 {
				t.Fatalf("non-loop span claims wave %d: %+v", s.Iter, s)
			}
		}
	}
	waves := len(shards)
	if len(ends) != waves {
		t.Errorf("%d waves traced shard spans, %d traced barriers", waves, len(ends))
	}
	for w := 0; w < waves; w++ {
		if shards[w] != wantShards {
			t.Errorf("wave %d traced %d shard spans, want %d", w, shards[w], wantShards)
		}
		if ends[w] != 1 {
			t.Errorf("wave %d traced %d barriers, want 1", w, ends[w])
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
	if seedEvents != wantRounds {
		t.Errorf("kmeans seed-round events %d != seed rounds %d", seedEvents, wantRounds)
	}
	if kmEvents == 0 || seedEvents+kmEvents != waves {
		t.Errorf("%d seed-round + %d iteration events for %d waves", seedEvents, kmEvents, waves)
	}
	// The node table's waves column reads the seed rounds plus the
	// iterations.
	table := obs.NodeTable(tr)
	lines := strings.Split(table, "\n")
	col := slices.Index(strings.Fields(lines[0]), "waves")
	if col < 0 {
		t.Fatalf("node table has no waves column:\n%s", table)
	}
	got := ""
	for _, line := range lines[2:] {
		if f := strings.Fields(line); len(f) > col && f[0] == loopNode {
			got = f[col]
		}
	}
	if want := fmt.Sprint(wantRounds + kmEvents); got != want {
		t.Errorf("node table reads %q waves for %s, want %s:\n%s", got, loopNode, want, table)
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
// second record. Each node's extent (first span start to last span end)
// is swept: every instant is split evenly over the extents covering it.
// For every phase, Breakdown.Get equals its nodes' shares, exactly; and the
// phases never sum past the run's wall.
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
					// The sweep: every interval between two consecutive
					// extent ends is split evenly over the extents covering it.
					var cuts []time.Time
					for _, e := range extents {
						cuts = append(cuts, e.first, e.last)
					}
					slices.SortFunc(cuts, time.Time.Compare)
					want := map[string]time.Duration{}
					for k := range extents {
						want[k[1]] += 0
					}
					for c := 1; c < len(cuts); c++ {
						var on [][2]string
						for k, e := range extents {
							if !e.first.After(cuts[c-1]) && !e.last.Before(cuts[c]) {
								on = append(on, k)
							}
						}
						for _, k := range on {
							want[k[1]] += cuts[c].Sub(cuts[c-1]) / time.Duration(len(on))
						}
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
