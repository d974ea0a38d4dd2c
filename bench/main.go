// Command bench is the repository's benchmark: four workloads, four
// end-to-end metrics each, and an outside-in per-layer budget measured by
// timing calls into each layer's exported functions. See README.md.
//
//	go run ./bench -workload text-e2e -seed 1 -seconds 15 -trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics. With -trace 0 the metrics are the end-to-end ones; with
// -trace 1 they are the per-layer ones, and the benchmark's spans are
// written as Chrome trace JSON next to layers.json under
// .bench_build/hpa-bench/trace/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"hpa/internal/par"
)

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: "+strings.Join(workloadOrder, ", ")+", or all (interleaved rounds)")
		seed    = flag.Uint64("seed", 1, "drives corpus generation, query selection and K-Means seeding")
		seconds = flag.Float64("seconds", 15, "timed seconds per workload, split over the rounds")
		trace   = flag.Int("trace", 0, "1: run the traced per-layer mode instead of the end-to-end rounds")
		quick   = flag.Bool("quick", false, "one round of one op per client per workload, no warm-up (smoke test)")
		aa      = flag.Int("aa", 0, "run two sets of N end-to-end runs per workload in child processes and print the A/A table")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *quick, *aa); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, trace int, quick bool, aa int) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if seconds <= 0 || trace < 0 || trace > 1 || aa < 0 {
		return fmt.Errorf("want -seconds > 0, -trace 0 or 1, -aa >= 0")
	}
	names := workloadOrder
	if name != "all" {
		if _, err := newWorkload(name); err != nil {
			return err
		}
		names = []string{name}
	}
	root, err := checkoutRoot()
	if err != nil {
		return err
	}
	if aa > 0 {
		return runAA(root, names, aa, seconds)
	}

	dir, err := workDir(root)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	pool := par.NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	single := par.NewPool(1)
	defer single.Close()
	w := &world{pool: pool, single: single, dir: dir, seed: seed}
	env := recordEnv(seed)

	var res result
	if trace == 1 {
		res, err = runTraced(names, w, seconds, env, filepath.Join(outDir(root), "trace"))
	} else {
		res, err = runUntraced(names, w, seconds, quick, env)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.Failed > 0 {
		return fmt.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
	}
	return nil
}

// result is the contract's last line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// add merges one workload's metrics and counts into the result. A run of
// one workload reports bare metric names; a run of all prefixes each name
// with its workload.
func (r *result) add(workload string, prefix bool, m metricSet, attempted, failed int) {
	if r.Metrics == nil {
		r.Metrics = metricSet{}
		r.Correct = true
	}
	for k, v := range m {
		if prefix {
			k = workload + "/" + k
		}
		r.Metrics[k] = v
	}
	r.Attempted += attempted
	r.Failed += failed
	r.Correct = r.Correct && failed == 0
}

func runUntraced(names []string, w *world, seconds float64, quick bool, env map[string]any) (result, error) {
	stats, sizes, err := runEndToEnd(names, w, seconds, quick)
	if err != nil {
		return result{}, err
	}
	env["loadavg_after"] = loadavg()
	printEnv(env)
	var res result
	for _, name := range names {
		st := stats[name]
		m := st.endToEndMetrics()
		attempted, failed, firstErr := st.counts()
		asc := sorted(st.walls())
		p, v := tail(asc)
		fmt.Printf("\n%s  sizes %s\n", name, compactJSON(sizes[name]))
		fmt.Printf("  ops attempted %d, failed %d, timed samples %d, op wall p%.0f %.4f ms\n",
			attempted, failed, len(asc), p*100, v)
		if firstErr != nil {
			fmt.Printf("  first failure: %v\n", firstErr)
		}
		fmt.Printf("  op wall quartiles %.4f / %.4f / %.4f ms\n", quantile(asc, 0.25), quantile(asc, 0.5), quantile(asc, 0.75))
		for _, e := range endToEnd {
			fmt.Printf("  %-16s %14.4f %s\n", e.name, m[e.name].Value, e.unit)
		}
		res.add(name, len(names) > 1, m, attempted, failed)
	}
	return res, nil
}

// checkoutRoot finds the checkout: the working directory or its nearest
// ancestor that holds BENCHMARK.json (go test ./bench starts in bench/).
func checkoutRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// recordEnv captures what a reader needs to compare two outputs.
func recordEnv(seed uint64) map[string]any {
	return map[string]any{
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"cpu_model":      cpuModel(),
		"loadavg_before": loadavg(),
		"seed":           seed,
		"rounds":         rounds,
	}
}

func printEnv(env map[string]any) {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Print("env")
	for _, k := range keys {
		fmt.Printf("  %s=%v", k, env[k])
	}
	fmt.Println()
}

func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	return strings.Join(strings.Fields(string(b))[:3], " ")
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func compactJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprint(v)
	}
	return string(b)
}
