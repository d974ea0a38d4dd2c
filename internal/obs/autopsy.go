package obs

import (
	"fmt"
	"strings"

	"hpa/internal/metrics"
)

// Plan autopsy: after a traced run, print the plan's Explain output as it
// is, one measurement line per traced node, and the optimizer's predicted
// time per phase against the run's measured phase breakdown. Predictions
// arrive as data (PlanLike.Predicted), keyed by the phase each estimate
// priced, so the autopsy never reads the annotation prose and a ratio
// always pairs an estimate with the phase it priced.

// PlanLike is the slice of *workflow.Plan the autopsy needs. It is a local
// interface so obs does not import workflow (workflow imports obs).
type PlanLike interface {
	Explain() string
	Nodes() []string
	// Predicted returns the optimizer's estimated time per phase, or nil
	// when nothing was predicted.
	Predicted() *metrics.Breakdown
}

// Autopsy renders plan.Explain() verbatim, then a measurement line per
// traced node — wall-clock, task count, loop waves, shipped bytes,
// resends and errors — in plan order (traced nodes the plan does not name
// follow in trace order), then a predicted-versus-measured line per
// predicted phase against the run's breakdown bd. The phase block is left
// out when the plan predicts nothing or bd is nil.
func Autopsy(plan PlanLike, tr *Trace, bd *metrics.Breakdown) string {
	var sb strings.Builder
	sb.WriteString(plan.Explain())
	sb.WriteByte('\n')

	aggs := aggregate(tr)
	done := make(map[string]bool)
	for _, node := range append(plan.Nodes(), tr.Nodes()...) {
		a := aggs[node]
		if a == nil || done[node] {
			continue
		}
		done[node] = true
		fmt.Fprintf(&sb, "# autopsy %s: %s wall, %d tasks", node, metrics.FormatEstimate(a.wall()), a.tasks)
		if a.waves > 0 {
			fmt.Fprintf(&sb, ", %d waves", a.waves)
		}
		if ship := a.out + a.in; ship > 0 {
			fmt.Fprintf(&sb, ", %s shipped", metrics.FormatBytes(ship))
		}
		if a.resends > 0 {
			fmt.Fprintf(&sb, ", %d resends", a.resends)
		}
		if a.errs > 0 {
			fmt.Fprintf(&sb, ", %d errors", a.errs)
		}
		sb.WriteByte('\n')
	}

	if pred := plan.Predicted(); pred != nil && bd != nil && len(pred.Phases()) > 0 {
		sb.WriteString("# cost model by phase (predicted / measured):\n")
		for _, phase := range pred.Phases() {
			p, m := pred.Get(phase), bd.Get(phase)
			ratio := "n/a"
			if p > 0 {
				ratio = fmt.Sprintf("%.2f×", float64(m)/float64(p))
			}
			fmt.Fprintf(&sb, "#   %-10s %s / %s (%s)\n",
				phase+":", metrics.FormatEstimate(p), metrics.FormatEstimate(m), ratio)
		}
	}
	return strings.TrimRight(sb.String(), "\n")
}
