package obs

import (
	"fmt"
	"regexp"
	"strings"
	"time"

	"hpa/internal/metrics"
)

// Plan autopsy: after a traced run, re-render the plan's Explain output
// with measured wall-clock, task counts and wire bytes next to each
// optimizer annotation, and compare the cost model's per-term predictions
// (input+wc, transform, kmeans) against the measured phase breakdown. The
// optimizer's fmtNS always renders time.ParseDuration-compatible tokens, so
// predictions are recovered from the annotation text itself — no second
// channel between optimizer and tracer.

// PlanLike is the slice of *workflow.Plan the autopsy needs. It is a local
// interface so obs does not import workflow (workflow imports obs).
type PlanLike interface {
	Explain() string
	Nodes() []string
	Annotation(node string) string
}

var (
	// "est input+wc 120ms + transform 80ms = 200ms; ..." (tfidf dict note).
	reTermSum = regexp.MustCompile(`est input\+wc ([^ ]+) \+ transform ([^ ]+) = ([^;)]+)[;)]`)
	// "(est 120ms; ..." (shards and loop notes).
	reEst = regexp.MustCompile(`\(est ([^ ;)]+)[ ;)]`)
)

func parseDur(tok string) (time.Duration, bool) {
	d, err := time.ParseDuration(strings.TrimSpace(tok))
	return d, err == nil && d > 0
}

// predicted extracts the total predicted duration from one node annotation.
func predicted(note string) (time.Duration, bool) {
	if m := reTermSum.FindStringSubmatch(note); m != nil {
		return parseDur(m[3])
	}
	if m := reEst.FindStringSubmatch(note); m != nil {
		return parseDur(m[1])
	}
	return 0, false
}

func ratio(measured, pred time.Duration) string {
	if pred <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f×", float64(measured)/float64(pred))
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return d.String()
	case d < time.Second:
		return d.Round(10 * time.Microsecond).String()
	default:
		return metrics.FormatDuration(d)
	}
}

// Autopsy renders plan.Explain() with one extra comment line per traced
// node — predicted versus measured wall-clock (with the ratio), task count
// and shipped bytes — followed by a per-term cost-model comparison against
// the run's phase breakdown (bd may be nil). Nodes without spans pass
// through unchanged; nodes without predictions report measurement only.
func Autopsy(plan PlanLike, tr *Trace, bd *metrics.Breakdown) string {
	aggs := aggregate(tr)
	var sb strings.Builder

	line := func(node string) string {
		a := aggs[node]
		if a == nil {
			return ""
		}
		var parts []string
		if pred, ok := predicted(plan.Annotation(node)); ok {
			parts = append(parts, fmt.Sprintf("predicted %s / measured %s (%s)",
				fmtDur(pred), fmtDur(a.wall()), ratio(a.wall(), pred)))
		} else {
			parts = append(parts, fmt.Sprintf("measured %s", fmtDur(a.wall())))
		}
		parts = append(parts, fmt.Sprintf("%d tasks", a.tasks))
		if a.iters > 0 {
			parts = append(parts, fmt.Sprintf("%d iterations", a.iters))
		}
		if ship := a.out + a.in; ship > 0 {
			parts = append(parts, fmt.Sprintf("%s shipped", metrics.FormatBytes(ship)))
		}
		if a.resends > 0 {
			parts = append(parts, fmt.Sprintf("%d resends", a.resends))
		}
		if a.errs > 0 {
			parts = append(parts, fmt.Sprintf("%d errors", a.errs))
		}
		return fmt.Sprintf("# autopsy %s: %s", node, strings.Join(parts, ", "))
	}

	// Interleave: each "# node: annotation" line is followed by its autopsy.
	done := make(map[string]bool)
	for _, l := range strings.Split(plan.Explain(), "\n") {
		sb.WriteString(l)
		sb.WriteByte('\n')
		for _, node := range plan.Nodes() {
			if !done[node] && strings.HasPrefix(l, "# "+node+": ") {
				if al := line(node); al != "" {
					sb.WriteString(al)
					sb.WriteByte('\n')
				}
				done[node] = true
			}
		}
	}
	// Traced nodes without an annotation line still get their measurement.
	for _, node := range tr.Nodes() {
		if !done[node] {
			if al := line(node); al != "" {
				sb.WriteString(al)
				sb.WriteByte('\n')
			}
			done[node] = true
		}
	}

	if terms := costTerms(plan, bd); terms != "" {
		sb.WriteString(terms)
	}
	return strings.TrimRight(sb.String(), "\n")
}

// costTerms renders the model-vs-measured comparison per cost-model term.
// Predictions come from the annotations (the tfidf note carries the
// input+wc and transform terms; the kmeans/loop note carries the kmeans
// term); measurements come from the phase breakdown.
func costTerms(plan PlanLike, bd *metrics.Breakdown) string {
	if bd == nil {
		return ""
	}
	type term struct {
		name string
		pred time.Duration
	}
	var terms []term
	for _, node := range plan.Nodes() {
		note := plan.Annotation(node)
		if note == "" {
			continue
		}
		if m := reTermSum.FindStringSubmatch(note); m != nil {
			if d, ok := parseDur(m[1]); ok {
				terms = append(terms, term{"input+wc", d})
			}
			if d, ok := parseDur(m[2]); ok {
				terms = append(terms, term{"transform", d})
			}
		}
		if strings.Contains(note, "loop shards=") {
			if m := reEst.FindStringSubmatch(note); m != nil {
				if d, ok := parseDur(m[1]); ok {
					terms = append(terms, term{"kmeans", d})
				}
			}
		}
	}
	if len(terms) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("# cost-model terms (predicted / measured):\n")
	for _, t := range terms {
		meas := bd.Get(t.name)
		fmt.Fprintf(&sb, "#   %-10s %s / %s (%s)\n",
			t.name+":", fmtDur(t.pred), fmtDur(meas), ratio(meas, t.pred))
	}
	return sb.String()
}
