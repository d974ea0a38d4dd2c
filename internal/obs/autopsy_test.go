package obs

import (
	"strings"
	"testing"
	"time"

	"hpa/internal/metrics"
)

// fakePlan implements PlanLike with canned annotations in the optimizer's
// exact note formats.
type fakePlan struct {
	explain string
	nodes   []string
	notes   map[string]string
}

func (p *fakePlan) Explain() string               { return p.explain }
func (p *fakePlan) Nodes() []string               { return p.nodes }
func (p *fakePlan) Annotation(node string) string { return p.notes[node] }

func autopsyFixture() (*fakePlan, *Trace) {
	notes := map[string]string{
		"tfidf.map":     "dict=u-map (est input+wc 100ms + transform 20ms = 120ms; map-arena 945ms)",
		"kmeans.assign": "loop shards=4 (est 40ms; ~14 iterations × 2ms assign/iter)",
	}
	plan := &fakePlan{
		nodes: []string{"scan", "tfidf.map", "kmeans.assign"},
		notes: notes,
		explain: strings.Join([]string{
			"scan -[x4]-> tfidf.map",
			"tfidf.map ~[x4]~> kmeans.assign",
			"# tfidf.map: " + notes["tfidf.map"],
			"# kmeans.assign: " + notes["kmeans.assign"],
		}, "\n"),
	}
	base := time.Unix(1000, 0).UTC()
	at := func(ms int64) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	tr := &Trace{Start: base, Spans: []Span{
		{Node: "tfidf.map", Kind: "run", Shard: 0, Iter: -1, Start: at(0), End: at(60), BytesOut: 1 << 20},
		{Node: "tfidf.map", Kind: "run", Shard: 1, Iter: -1, Start: at(0), End: at(96)},
		{Node: "kmeans.assign", Kind: "loop-shard", Shard: 0, Iter: 0, Start: at(100), End: at(120)},
		{Node: "kmeans.assign", Kind: "loop-shard", Shard: 0, Iter: 1, Start: at(120), End: at(148)},
		{Node: "output", Kind: "run", Shard: 0, Iter: -1, Start: at(150), End: at(151)},
	}}
	return plan, tr
}

// TestAutopsyPredictedVsMeasured: each annotated node gets an autopsy line
// with the predicted figure recovered from the note text, the measured
// wall-clock, and their ratio.
func TestAutopsyPredictedVsMeasured(t *testing.T) {
	plan, tr := autopsyFixture()
	out := Autopsy(plan, tr, nil)

	// tfidf.map: predicted 120ms, measured 96ms (spans 0..96ms) → 0.80×.
	if !strings.Contains(out, "# autopsy tfidf.map: predicted 120ms / measured 96ms (0.80×), 2 tasks") {
		t.Errorf("tfidf.map autopsy line missing or wrong:\n%s", out)
	}
	// kmeans.assign: predicted 40ms, measured 48ms (100..148ms) → 1.20×,
	// with the iteration count from the loop-shard spans.
	if !strings.Contains(out, "# autopsy kmeans.assign: predicted 40ms / measured 48ms (1.20×), 2 tasks, 2 iterations") {
		t.Errorf("kmeans.assign autopsy line missing or wrong:\n%s", out)
	}
	// Traced but unannotated nodes still report their measurement.
	if !strings.Contains(out, "# autopsy output: measured 1ms, 1 tasks") {
		t.Errorf("unannotated node lacks measurement:\n%s", out)
	}
	// Each autopsy line directly follows its annotation line.
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "# tfidf.map: ") {
			if i+1 >= len(lines) || !strings.HasPrefix(lines[i+1], "# autopsy tfidf.map:") {
				t.Errorf("autopsy line does not follow annotation:\n%s", out)
			}
		}
	}
	// Shipped bytes surface.
	if !strings.Contains(out, "1.0 MB shipped") {
		t.Errorf("shipped bytes missing:\n%s", out)
	}
}

// TestAutopsyCostTerms: with a phase breakdown, the per-term cost-model
// comparison renders the input+wc, transform and kmeans terms.
func TestAutopsyCostTerms(t *testing.T) {
	plan, tr := autopsyFixture()
	bd := metrics.NewBreakdown()
	bd.Add("input+wc", 150*time.Millisecond)
	bd.Add("transform", 10*time.Millisecond)
	bd.Add("kmeans", 48*time.Millisecond)
	out := Autopsy(plan, tr, bd)

	if !strings.Contains(out, "# cost-model terms (predicted / measured):") {
		t.Fatalf("cost-model section missing:\n%s", out)
	}
	for _, want := range []string{
		"input+wc:  100ms / 150ms (1.50×)",
		"transform: 20ms / 10ms (0.50×)",
		"kmeans:    40ms / 48ms (1.20×)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("cost-model term %q missing:\n%s", want, out)
		}
	}
}

// TestAutopsyWithoutTrace: an empty trace must leave Explain unchanged
// except for the absent autopsy lines — no panics, no stray sections.
func TestAutopsyWithoutTrace(t *testing.T) {
	plan, _ := autopsyFixture()
	out := Autopsy(plan, &Trace{}, nil)
	if strings.Contains(out, "# autopsy") {
		t.Errorf("autopsy lines appeared for an empty trace:\n%s", out)
	}
	if !strings.Contains(out, "# tfidf.map: ") {
		t.Errorf("original Explain content lost:\n%s", out)
	}
}

func TestPredictedParsing(t *testing.T) {
	cases := []struct {
		note string
		want time.Duration
		ok   bool
	}{
		{"dict=u-map (est input+wc 205.16ms + transform 22.5ms = 227.66ms; map-arena 945.46ms)", 227660 * time.Microsecond, true},
		{"shards=4 (est 85.82ms; work 170ms over 2 slots)", 85820 * time.Microsecond, true},
		{"shards=3 (est 90ms; pinned by explicit override)", 90 * time.Millisecond, true},
		{"loop shards=4 (est 41.43ms); backend=rpc×2 (+1.2ms ship/task)", 41430 * time.Microsecond, true},
		{"pinned by explicit override", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, ok := predicted(c.note)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("predicted(%q) = %v, %v; want %v, %v", c.note, got, ok, c.want, c.ok)
		}
	}
}
