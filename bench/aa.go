package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the A/A check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAA measures the benchmark against itself the way the acceptance
// driver does: two sets of n runs per workload, every run a fresh child
// process with its own seed, workloads interleaved within a set so drift
// lands on all of them. Per workload × end-to-end metric it prints each
// set's median and spread (interquartile range over median), how much
// worse the second median is than the first, and whether both stay inside
// the bound BENCHMARK.json declares; then per metric the bound ISSUE 13's
// rule would give (max(0.05, 2 × the largest |Δ median|)), and every run's
// op_wall_ms in run order, which is where a change of the box's state
// shows. It returns an error if any pair fails.
func runAA(root string, names []string, n int, seconds float64) error {
	raw, err := os.ReadFile(root + "/BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// values[set][workload][metric] = one value per run
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = make(map[string]map[string][]float64)
		for run := 0; run < n; run++ {
			seed := 1 + set*n + run
			for _, name := range names {
				m, err := childRun(self, name, seed, seconds)
				if err != nil {
					return fmt.Errorf("set %d run %d %s: %w", set+1, run+1, name, err)
				}
				if values[set][name] == nil {
					values[set][name] = make(map[string][]float64)
				}
				for k, v := range m {
					values[set][name][k] = append(values[set][name][k], v.Value)
				}
				fmt.Fprintf(os.Stderr, "set %d run %d/%d %s seed %d done\n", set+1, run+1, n, name, seed)
			}
		}
	}
	fmt.Printf("A/A: 2 sets × %d runs × %g s, seeds 1..%d; load %s\n\n", n, seconds, 2*n, loadavg())
	fmt.Println("| workload | metric | median A | median B | spread A | spread B | B worse by | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	failed := 0
	shift := make(map[string]float64)  // metric → largest |Δ median| over the workloads
	widest := make(map[string]float64) // metric → largest spread
	for _, name := range names {
		for _, e := range bf.EndToEnd {
			a, b := values[0][name][e.Name], values[1][name][e.Name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if e.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(a), spread(b)
			shift[e.Name] = max(shift[e.Name], math.Abs(worse))
			widest[e.Name] = max(widest[e.Name], sa, sb)
			verdict := "pass"
			// setup_s is held to the median shift only, like the driver.
			if worse > e.Bound || (e.Name != "setup_s" && math.Max(sa, sb) > e.Bound) {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("| %s | %s | %.4f | %.4f | %.3f | %.3f | %+.3f | %.2f | %s |\n",
				name, e.Name, ma, mb, sa, sb, worse, e.Bound, verdict)
		}
	}
	fmt.Println("\n| metric | largest shift of a median | largest spread | max(0.05, 2 × shift) | declared bound |")
	fmt.Println("|---|---|---|---|---|")
	for _, e := range bf.EndToEnd {
		fmt.Printf("| %s | %.3f | %.3f | %.2f | %.2f |\n", e.Name, shift[e.Name], widest[e.Name], max(0.05, 2*shift[e.Name]), e.Bound)
	}
	fmt.Println("\nop_wall_ms of every run, in run order:")
	for _, name := range names {
		for set, label := range []string{"A", "B"} {
			fmt.Printf("%s %s:", name, label)
			for _, v := range values[set][name]["op_wall_ms"] {
				fmt.Printf(" %.4g", v)
			}
			fmt.Println()
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d workload × metric pairs outside their bound", failed)
	}
	return nil
}

// childRun runs one end-to-end run of one workload in a child process and
// parses the last line of its standard output.
func childRun(self, name string, seed int, seconds float64) (metricSet, error) {
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.Itoa(seed),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to exit
	if err != nil {
		return nil, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = bytes.Clone(sc.Bytes())
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("child's last line is not a result: %w", err)
	}
	if !res.Correct || res.Failed > 0 {
		return nil, fmt.Errorf("child reported %d failed of %d ops", res.Failed, res.Attempted)
	}
	return res.Metrics, nil
}
