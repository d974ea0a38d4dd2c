package obs

import (
	"strings"
	"testing"
	"time"

	"hpa/internal/metrics"
)

// fakePlan implements PlanLike: Explain prose, node order and predictions
// are independent, so a test can pair any prose with any predictions.
type fakePlan struct {
	explain   string
	nodes     []string
	predicted *metrics.Breakdown
}

func (p *fakePlan) Explain() string               { return p.explain }
func (p *fakePlan) Nodes() []string               { return p.nodes }
func (p *fakePlan) Predicted() *metrics.Breakdown { return p.predicted }

// predictions builds a predicted breakdown from alternating phase names and
// durations, in that order.
func predictions(phases ...any) *metrics.Breakdown {
	bd := metrics.NewBreakdown()
	for i := 0; i < len(phases); i += 2 {
		bd.Add(phases[i].(string), phases[i+1].(time.Duration))
	}
	return bd
}

func autopsyFixture() (*fakePlan, *Trace) {
	plan := &fakePlan{
		nodes: []string{"scan", "tfidf.map", "kmeans.assign"},
		explain: strings.Join([]string{
			"scan -[x4]-> tfidf.map",
			"tfidf.map ~[x4]~> kmeans.assign",
			"# tfidf.map: dict=u-map (est input+wc 100ms + transform 20ms = 120ms; map-arena 945ms)",
			"# kmeans.assign: loop shards=4 (est 40ms; ~14 iterations × 2ms assign/iter)",
		}, "\n"),
		predicted: predictions(
			"input+wc", 100*time.Millisecond,
			"transform", 20*time.Millisecond,
			"kmeans", 40*time.Millisecond),
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

func measured() *metrics.Breakdown {
	return predictions(
		"input+wc", 150*time.Millisecond,
		"transform", 10*time.Millisecond,
		"kmeans", 48*time.Millisecond)
}

// TestAutopsyPredictedVsMeasured: Explain comes first and verbatim, then a
// measurement line per traced node in plan order (traced nodes the plan
// does not name last), then one predicted/measured line per predicted
// phase.
func TestAutopsyPredictedVsMeasured(t *testing.T) {
	plan, tr := autopsyFixture()
	out := Autopsy(plan, tr, measured())

	want := plan.Explain() + "\n" + strings.Join([]string{
		"# autopsy tfidf.map: 96ms wall, 2 tasks, 1.0 MB shipped",
		"# autopsy kmeans.assign: 48ms wall, 2 tasks, 2 waves",
		"# autopsy output: 1ms wall, 1 tasks",
		"# cost model by phase (predicted / measured):",
		"#   input+wc:  100ms / 150ms (1.50×)",
		"#   transform: 20ms / 10ms (0.50×)",
		"#   kmeans:    40ms / 48ms (1.20×)",
	}, "\n")
	if out != want {
		t.Errorf("autopsy:\n%s\nwant:\n%s", out, want)
	}
}

// TestAutopsyCostTerms: the phase block needs both predictions and a
// measured breakdown; a predicted phase the run never recorded reads as
// measured zero.
func TestAutopsyCostTerms(t *testing.T) {
	plan, tr := autopsyFixture()
	if out := Autopsy(plan, tr, nil); strings.Contains(out, "# cost model") {
		t.Errorf("phase block without a measured breakdown:\n%s", out)
	}
	plan.predicted = predictions("tfidf-output", 5*time.Millisecond)
	out := Autopsy(plan, tr, measured())
	if !strings.HasSuffix(out, "# cost model by phase (predicted / measured):\n#   tfidf-output: 5ms / 0s (0.00×)") {
		t.Errorf("unmeasured predicted phase:\n%s", out)
	}
}

// TestAutopsyIgnoresProse: annotation text full of estimates predicts
// nothing — only Predicted() does — so no phase block is printed.
func TestAutopsyIgnoresProse(t *testing.T) {
	plan, tr := autopsyFixture()
	plan.predicted = nil
	out := Autopsy(plan, tr, measured())
	if strings.Contains(out, "predicted") || strings.Contains(out, "# cost model") {
		t.Errorf("predictions recovered from prose:\n%s", out)
	}
	if !strings.HasPrefix(out, plan.Explain()+"\n# autopsy tfidf.map: ") {
		t.Errorf("Explain not printed verbatim ahead of the measurements:\n%s", out)
	}
}

// TestAutopsyPredictionsWithoutProse: predictions print every phase even
// when no annotation mentions a number.
func TestAutopsyPredictionsWithoutProse(t *testing.T) {
	plan, tr := autopsyFixture()
	plan.explain = "scan -[x4]-> tfidf.map\ntfidf.map ~[x4]~> kmeans.assign\n# tfidf.map: dict=u-map"
	out := Autopsy(plan, tr, measured())
	for _, want := range []string{
		"#   input+wc:  100ms / 150ms (1.50×)",
		"#   transform: 20ms / 10ms (0.50×)",
		"#   kmeans:    40ms / 48ms (1.20×)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("phase line %q missing:\n%s", want, out)
		}
	}
}

// TestAutopsyWithoutTrace: an empty trace leaves Explain unchanged — no
// measurement lines, no panics.
func TestAutopsyWithoutTrace(t *testing.T) {
	plan, _ := autopsyFixture()
	out := Autopsy(plan, &Trace{}, nil)
	if out != plan.Explain() {
		t.Errorf("empty trace changed Explain:\n%s", out)
	}
}
