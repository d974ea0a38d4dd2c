package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// rounds is how many times a run sets a workload up and times a window of
// it. Three set-ups give setup_s a median; three windows spread the timed
// ops over the box's minute-scale drift.
const rounds = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

// endToEnd names the four end-to-end metrics, identical on every workload.
var endToEnd = []struct{ name, unit string }{
	{"op_wall_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"setup_s", "s"},
}

// window is one timed closed-loop window of one round.
type window struct {
	walls []float64 // ms, verified ops only, all clients
	// byClient holds the same samples per client in issue order; with no
	// failed op, sample j of client c is op index first+j.
	byClient  [][]float64
	elapsed   time.Duration
	cpu       time.Duration
	setup     time.Duration
	attempted int
	failed    int
	firstErr  error
}

// opStats pools a workload's windows.
type opStats struct {
	windows []window
}

func (s *opStats) walls() []float64 {
	var all []float64
	for _, w := range s.windows {
		all = append(all, w.walls...)
	}
	return all
}

func (s *opStats) counts() (attempted, failed int, firstErr error) {
	for _, w := range s.windows {
		attempted += w.attempted
		failed += w.failed
		if firstErr == nil {
			firstErr = w.firstErr
		}
	}
	return
}

// endToEndMetrics reduces the windows to the four end-to-end metrics.
// op_wall_ms is the median over the pooled op samples. ops_per_s and
// cpu_ms_per_op are ratios of sums within a window, and setup_s is one
// number per round; each is reported as the median of the per-round values
// so one disturbed round cannot move it.
func (s *opStats) endToEndMetrics() metricSet {
	var perS, cpuPer, setups []float64
	for _, w := range s.windows {
		if ok := len(w.walls); ok > 0 {
			perS = append(perS, float64(ok)/w.elapsed.Seconds())
			cpuPer = append(cpuPer, ms(w.cpu)/float64(ok))
		}
		setups = append(setups, w.setup.Seconds())
	}
	values := map[string]float64{
		"op_wall_ms":    median(s.walls()),
		"ops_per_s":     median(perS),
		"cpu_ms_per_op": median(cpuPer),
		"setup_s":       median(setups),
	}
	out := metricSet{}
	for _, e := range endToEnd {
		out[e.name] = metric{values[e.name], e.unit}
	}
	return out
}

// runWindow drives the workload's closed-loop clients for d: each client
// issues its next op only when the previous one has completed, and an op
// that starts inside the window runs to completion. A failed, refused or
// wrong-answer op counts as failed and is left out of the timing. first
// offsets the per-client op index so successive windows continue through
// the workload's inputs instead of replaying the same prefix. maxOps > 0
// ends each client after that many ops whatever the clock says (the quick
// path: one op per client).
func runWindow(wl workload, d time.Duration, first, maxOps int) window {
	n := wl.clients()
	per := make([]window, n)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	client := func(c int) {
		w := &per[c]
		for i := first; maxOps <= 0 || i < first+maxOps; i++ {
			t0 := time.Now()
			if maxOps <= 0 && !t0.Before(deadline) {
				return
			}
			err := wl.op(c, i)
			wall := time.Since(t0)
			w.attempted++
			if err != nil {
				w.failed++
				if w.firstErr == nil {
					w.firstErr = err
				}
				continue
			}
			w.walls = append(w.walls, ms(wall))
		}
	}
	if n == 1 {
		client(0) // a single client needs no goroutine
	} else {
		var wg sync.WaitGroup
		for c := 0; c < n; c++ {
			wg.Add(1)
			go func() { defer wg.Done(); client(c) }()
		}
		wg.Wait()
	}
	out := window{elapsed: time.Since(start), cpu: cpuTime() - cpu0}
	for _, w := range per {
		out.walls = append(out.walls, w.walls...)
		out.byClient = append(out.byClient, w.walls)
		out.attempted += w.attempted
		out.failed += w.failed
		if out.firstErr == nil {
			out.firstErr = w.firstErr
		}
	}
	return out
}

// runOps runs exactly count ops spread over the workload's clients (the
// warm-up, and the quick path) and returns the first failure.
func runOps(wl workload, count int) error {
	n := wl.clients()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i*n+c < count; i++ {
				if err := wl.op(c, i); err != nil {
					errs[c] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// setUpAndWarm is one complete set-up: stage, build, reference, and the
// warm-up ops (none on the quick path).
func setUpAndWarm(wl workload, w *world, log *spanLog, parent, warmOps int) (time.Duration, error) {
	start := time.Now()
	if err := wl.setUp(w, log, parent); err != nil {
		return 0, fmt.Errorf("%s: set-up: %w", wl.name(), err)
	}
	var err error
	log.timed("setup.warmup", parent, func() { err = runOps(wl, warmOps) })
	if err != nil {
		return 0, fmt.Errorf("%s: warm-up: %w", wl.name(), err)
	}
	return time.Since(start), nil
}

// tearDown drops the workload's state and collects it, so the next
// workload (or round) starts from an empty heap.
func tearDown(wl workload) {
	wl.tearDown()
	runtime.GC()
}

// runEndToEnd runs rounds × (set-up, warm-up, timed window, tear-down) for
// every named workload, interleaved: round r of every workload runs before
// round r+1 of any, so drift lands on all of them alike. quick runs one
// round of one op per client with no warm-up. It returns the pooled stats
// and the last round's sizes per workload.
func runEndToEnd(names []string, w *world, seconds float64, quick bool) (map[string]*opStats, map[string]map[string]any, error) {
	stats := make(map[string]*opStats)
	sizes := make(map[string]map[string]any)
	n, maxOps := rounds, 0
	if quick {
		n, maxOps = 1, 1
	}
	per := time.Duration(seconds / float64(n) * float64(time.Second))
	for _, name := range names {
		stats[name] = &opStats{}
	}
	next := make(map[string]int) // per-client op index the next window starts at
	for r := 0; r < n; r++ {
		for _, name := range names {
			wl, err := newWorkload(name)
			if err != nil {
				return nil, nil, err
			}
			warm := int(w.scale(float64(wl.warmupOps())))
			if quick {
				warm = 0
			}
			setup, err := setUpAndWarm(wl, w, nil, -1, warm)
			if err != nil {
				tearDown(wl)
				return nil, nil, err
			}
			win := runWindow(wl, per, next[name], maxOps)
			win.setup = setup
			next[name] += win.attempted / wl.clients()
			stats[name].windows = append(stats[name].windows, win)
			sizes[name] = wl.sizes()
			tearDown(wl)
		}
	}
	return stats, sizes, nil
}

// outDir is where the benchmark writes inside the checkout: its build
// directory, which .gitignore names.
func outDir(root string) string { return filepath.Join(root, ".bench_build", "hpa-bench") }

// workDir creates the process's scratch directory under outDir, so the
// benchmark writes nothing outside its checkout.
func workDir(root string) (string, error) {
	dir := filepath.Join(outDir(root), fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}
