// Package metrics provides the measurement harness used to regenerate the
// paper's figures: named phase timers that decompose a workflow run into the
// stacked-bar segments of Figures 3 and 4, speedup series for the
// scalability curves of Figures 1 and 2, and plain-text table rendering.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Breakdown accumulates wall-clock time per named phase, in first-recorded
// order. It mirrors the stacked bars of the paper's Figures 3 and 4, whose
// segments are "input+wc", "tfidf-output", "kmeans-input", "transform",
// "kmeans" and "output".
//
// A Breakdown is not safe for concurrent use; phases in this library are
// sequential sections of the workflow (the parallelism is inside a phase).
// The partitioned executor times every task itself and, after the run,
// adds each plan node's wall-clock extent under the phase its operator
// declares, from one goroutine: a sharded phase counts once, not once per
// shard. The single-goroutine invariant is checked, not just documented:
// every mutating method asserts (via an atomic guard) that no other
// goroutine is mutating concurrently, and panics on a violation instead of
// silently corrupting the map.
type Breakdown struct {
	order []string
	times map[string]time.Duration
	// busy is the concurrent-mutation guard: mutators CAS it 0→1 for the
	// duration of the map update and panic when the CAS fails — a cheap,
	// always-on assertion of the single-goroutine contract above.
	busy int32
}

// enter marks a mutation in progress, panicking if one already is.
func (b *Breakdown) enter() {
	if !atomic.CompareAndSwapInt32(&b.busy, 0, 1) {
		panic("metrics: concurrent Breakdown mutation (a Breakdown is not safe for concurrent use)")
	}
}

// exit ends the mutation window opened by enter.
func (b *Breakdown) exit() { atomic.StoreInt32(&b.busy, 0) }

// NewBreakdown returns an empty breakdown.
func NewBreakdown() *Breakdown {
	return &Breakdown{times: make(map[string]time.Duration)}
}

// Add accumulates d into the named phase.
func (b *Breakdown) Add(phase string, d time.Duration) {
	b.enter()
	defer b.exit()
	if _, ok := b.times[phase]; !ok {
		b.order = append(b.order, phase)
	}
	b.times[phase] += d
}

// Time runs fn and accounts its wall-clock duration to the named phase.
func (b *Breakdown) Time(phase string, fn func()) {
	start := time.Now()
	fn()
	b.Add(phase, time.Since(start))
}

// TimeErr is Time for functions that can fail; the duration is recorded
// either way.
func (b *Breakdown) TimeErr(phase string, fn func() error) error {
	start := time.Now()
	err := fn()
	b.Add(phase, time.Since(start))
	return err
}

// Get returns the accumulated duration for a phase (zero if absent).
func (b *Breakdown) Get(phase string) time.Duration { return b.times[phase] }

// Phases returns the phase names in first-recorded order.
func (b *Breakdown) Phases() []string {
	out := make([]string, len(b.order))
	copy(out, b.order)
	return out
}

// Total returns the sum over all phases.
func (b *Breakdown) Total() time.Duration {
	var t time.Duration
	for _, p := range b.order {
		t += b.times[p]
	}
	return t
}

// Merge adds every duration of other into b, zero-duration phases
// included, so other's recording order carries over.
func (b *Breakdown) Merge(other *Breakdown) {
	for _, p := range other.order {
		b.Add(p, other.times[p])
	}
}

// String renders the breakdown as "phase=dur phase=dur ... total=dur".
func (b *Breakdown) String() string {
	var sb strings.Builder
	for i, p := range b.order {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%s", p, b.Get(p).Round(time.Millisecond))
	}
	fmt.Fprintf(&sb, " total=%s", b.Total().Round(time.Millisecond))
	return sb.String()
}

// SpeedupSeries records execution time as a function of thread count and
// derives self-relative speedups, the y-axis of Figures 1 and 2. Self-
// relative means relative to the same code at one thread, exactly as the
// paper defines it.
type SpeedupSeries struct {
	name    string
	threads []int
	times   []time.Duration
}

// NewSpeedupSeries creates a series labelled name (e.g. a dataset name).
func NewSpeedupSeries(name string) *SpeedupSeries {
	return &SpeedupSeries{name: name}
}

// Name returns the series label.
func (s *SpeedupSeries) Name() string { return s.name }

// Record adds one (threads, time) observation. Re-recording a thread count
// overwrites the previous observation.
func (s *SpeedupSeries) Record(threads int, d time.Duration) {
	for i, t := range s.threads {
		if t == threads {
			s.times[i] = d
			return
		}
	}
	s.threads = append(s.threads, threads)
	s.times = append(s.times, d)
	// Keep sorted by thread count for rendering.
	sort.Sort(byThreads{s})
}

type byThreads struct{ s *SpeedupSeries }

func (b byThreads) Len() int           { return len(b.s.threads) }
func (b byThreads) Less(i, j int) bool { return b.s.threads[i] < b.s.threads[j] }
func (b byThreads) Swap(i, j int) {
	b.s.threads[i], b.s.threads[j] = b.s.threads[j], b.s.threads[i]
	b.s.times[i], b.s.times[j] = b.s.times[j], b.s.times[i]
}

// Threads returns the recorded thread counts in increasing order.
func (s *SpeedupSeries) Threads() []int {
	out := make([]int, len(s.threads))
	copy(out, s.threads)
	return out
}

// Time returns the recorded duration at the given thread count.
func (s *SpeedupSeries) Time(threads int) (time.Duration, bool) {
	for i, t := range s.threads {
		if t == threads {
			return s.times[i], true
		}
	}
	return 0, false
}

// Speedup returns the self-relative speedup at the given thread count:
// time(1 thread) / time(threads). It returns false if either observation is
// missing.
func (s *SpeedupSeries) Speedup(threads int) (float64, bool) {
	base, ok := s.Time(1)
	if !ok || base <= 0 {
		return 0, false
	}
	t, ok := s.Time(threads)
	if !ok || t <= 0 {
		return 0, false
	}
	return float64(base) / float64(t), true
}

// MaxSpeedup returns the largest speedup across recorded thread counts.
func (s *SpeedupSeries) MaxSpeedup() float64 {
	best := 0.0
	for _, t := range s.threads {
		if sp, ok := s.Speedup(t); ok && sp > best {
			best = sp
		}
	}
	return best
}

// Table is a minimal aligned-column plain-text table used by the report
// tool to print figure data.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// String renders the table with space-aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}

// FormatDuration renders a duration with millisecond resolution, fixed
// format for table cells.
func FormatDuration(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}

// FormatEstimate renders a duration at the resolution it deserves: Go's
// native form below a millisecond, so microsecond overheads stay legible,
// rounded to 10 µs below a second, and FormatDuration above. The
// optimizer's annotations and the plan autopsy print estimates and
// measurements with it.
func FormatEstimate(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return d.String()
	case d < time.Second:
		return d.Round(10 * time.Microsecond).String()
	}
	return FormatDuration(d)
}

// FormatSpeedup renders a speedup factor as "N.NNx".
func FormatSpeedup(s float64) string {
	return fmt.Sprintf("%.2fx", s)
}

// FormatBytes renders a byte count in human units (MB with one decimal
// above 1 MB, matching the paper's Table 1 style).
func FormatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// CSV renders the table as RFC-4180-ish comma-separated values (cells with
// commas or quotes are quoted), for feeding the regenerated figures into
// plotting tools.
func (t *Table) CSV() string {
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				sb.WriteByte('"')
				sb.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				sb.WriteByte('"')
			} else {
				sb.WriteString(c)
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.header)
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}
