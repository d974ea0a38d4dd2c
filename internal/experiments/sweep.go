package experiments

import (
	"fmt"
	"slices"
	"time"

	"hpa/internal/metrics"
	"hpa/internal/par"
	"hpa/internal/simsched"
)

// traceRunner records a workload (Config.recordTFKM) and returns the
// phases to replay on the virtual node.
type traceRunner func() ([]simsched.Phase, error)

// realRunner executes a workload on the given pool and returns its
// wall-clock duration.
type realRunner func(pool *par.Pool) (time.Duration, error)

// sweep produces a time-vs-threads series for a workload, in the config's
// effective mode.
func (c Config) sweep(name string, tr traceRunner, rr realRunner) (*metrics.SpeedupSeries, error) {
	s := metrics.NewSpeedupSeries(name)
	switch c.effectiveMode() {
	case Real:
		for _, n := range c.Threads {
			pool := par.NewPool(n)
			d, err := rr(pool)
			pool.Close()
			if err != nil {
				return nil, err
			}
			c.logf("sweep %s: %d threads -> %v (real)", name, n, d)
			s.Record(n, d)
		}
	default: // Sim
		start := time.Now()
		phases, err := tr()
		if err != nil {
			return nil, err
		}
		c.logf("sweep %s: %d trace run(s) recorded in %v (%d phases)",
			name, c.repeats(), time.Since(start), len(phases))
		for _, n := range c.Threads {
			_, total := simsched.Simulate(simsched.Machine{Workers: n, Disk: &c.Disk}, phases)
			s.Record(n, total)
		}
	}
	return s, nil
}

// simBreakdowns simulates recorded phases at every thread count, for
// experiments that need per-phase times (Figures 3 and 4); a variant may
// replay a filtered recording (merged = discrete minus the I/O phases).
func (c Config) simBreakdowns(phases []simsched.Phase) map[int]*metrics.Breakdown {
	out := make(map[int]*metrics.Breakdown, len(c.Threads))
	for _, n := range c.Threads {
		bd, _ := simsched.Simulate(simsched.Machine{Workers: n, Disk: &c.Disk}, phases)
		out[n] = bd
	}
	return out
}

// filterPhases returns the phases whose names are not in drop — how the
// merged workflow's trace is derived from the discrete one (the compute
// phases are identical by construction; only the materialization differs).
func filterPhases(phases []simsched.Phase, drop ...string) []simsched.Phase {
	return slices.DeleteFunc(slices.Clone(phases), func(p simsched.Phase) bool { return slices.Contains(drop, p.Name) })
}

// speedupTable renders thread-vs-speedup series side by side.
func speedupTable(series []*metrics.SpeedupSeries, threads []int) string {
	return speedupTableData(series, threads).String()
}

// speedupTableData builds the thread-vs-speedup table.
func speedupTableData(series []*metrics.SpeedupSeries, threads []int) *metrics.Table {
	header := []string{"Threads"}
	for _, s := range series {
		header = append(header, s.Name()+" time", s.Name()+" speedup")
	}
	t := metrics.NewTable(header...)
	for _, n := range threads {
		row := []string{fmt.Sprintf("%d", n)}
		for _, s := range series {
			d, ok := s.Time(n)
			if !ok {
				row = append(row, "-", "-")
				continue
			}
			sp, _ := s.Speedup(n)
			row = append(row, metrics.FormatDuration(d), metrics.FormatSpeedup(sp))
		}
		t.AddRow(row...)
	}
	return t
}
