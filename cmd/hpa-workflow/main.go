// Command hpa-workflow runs the paper's TF/IDF→K-Means workflow over a
// corpus directory, either discrete (operators communicate through an ARFF
// file on disk, DIR/tfidf.arff under -scratch DIR) or merged (fused,
// in-memory), and prints the phase breakdown of Figures 3 and 4. Given an
// ARFF file instead of a directory, it runs the K-Means half alone: load
// the file, cluster it, and write the assignments (documents are named
// doc0000000, doc0000001, … in file order, as ARFF stores no names).
//
// Usage:
//
//	hpa-workflow -in CORPUSDIR|FILE.arff [-mode merged|discrete] [-threads N]
//	             [-shards 0] [-dict map|u-map|map-arena] [-presize 0]
//	             [-k 8] [-seed 1] [-scratch DIR] [-disksim off|hdd]
//	             [-sweep 1,4,8,12,16] [-explain] [-optimize]
//	             [-workers addr,addr] [-trace out.json]
//	hpa-workflow -worker ADDR
//
// Every plan runs partitioned: the corpus scan is split into document
// shards that flow through per-shard map kernels and explicit reductions,
// and K-Means runs as an iterative shard loop (per-shard assignment tasks
// behind a per-iteration reduction barrier; rendered by -explain as
// kmeans.assign ~[xN]~> kmeans.reduce). -shards sets the shard count: 0 =
// auto, N >= 1 pins N shards; negative values are rejected. Without
// -optimize, auto means 2×GOMAXPROCS shards so work stealing can rebalance
// stragglers. Scores, seeds and assignments are bit-identical at any shard
// count. Single runs also report the measured iteration count and
// the mean assign+reduce span per iteration (the loop node's wall-clock
// extent is the single "kmeans" phase of the Figure 3/4 breakdown).
//
// -optimize derives the physical configuration from a calibrated cost
// model instead of the flags: it measures the machine once (cached as
// hpa-costmodel-*.json under the scratch directory — pass -scratch to
// persist the cache across runs, delete the file to force
// re-calibration), samples the corpus, and chooses the dictionary kind,
// the fusion decision and the shard count by estimated cost. An ARFF file
// input has no corpus to sample, so -optimize rejects it.
//
// Precedence of -optimize vs. the manual flags: a flag left at its
// default cedes the decision to the optimizer; a flag set explicitly on
// the command line pins it. Concretely, -optimize alone picks the
// dictionary kind per operator and decides fusion itself; an explicit
// -dict pins the dictionary kind for every operator, an explicit -mode
// pins the fusion decision (merged pins fused, discrete pins the
// materialized ARFF hand-off), and an explicit -shards N (N >= 1) pins
// the shard count. Only flags at their defaults are optimized; pinned
// decisions are annotated in -explain output as "pinned by explicit
// override". Passing a flag explicitly at its
// default value (e.g. -dict u-map) also pins — explicitness, not the
// value, is what's detected.
//
// -worker ADDR turns the binary into a task worker: it listens on ADDR
// (e.g. ":7070", or ":0" to pick a free port — the bound address is
// printed as "worker listening on HOST:PORT"), serves the kernel registry
// (TF/IDF count and transform shards, K-Means seeding scans and assignment
// iterations) as length-prefixed flat frames (internal/workflow/rpc.go), and
// never runs a workflow itself. Workers read corpus
// shards by path, so they need the same filesystem view as the
// coordinator.
//
// -workers addr,addr makes the run ship its serializable shard tasks to
// those workers (round-robin, with loop shards pinned to one worker so
// their cached documents stay put; K-Means++ seeding scan rounds reuse
// the same pinned sessions). Splits, reductions, seed draws and output
// always stay on the coordinator, and every merge is shard-index-ordered,
// so results are bit-identical to a local run — at any shard count. Tasks without a serializable form (in-memory sources,
// custom stopwords, scans throttled by -disksim — the simulator's
// contention state is per-process) quietly run locally. With -optimize, the cost model
// prices the per-task ship cost and the extra worker slots into the shard
// count decisions; with -explain, the plan is annotated with where tasks
// run.
//
// -trace FILE records one span per scheduled task (queue wait, run time,
// backend, worker lane, wire bytes, worker run time) plus wire and K-Means loop
// events, and writes them as Chrome trace-event JSON loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing: pid 1 is the coordinator, each RPC
// worker gets its own pid lane. A per-node summary table and a plan autopsy
// are printed to stderr: the -explain output verbatim, one measurement line
// per traced node (wall-clock, tasks, iterations, bytes shipped), and the
// optimizer's predicted time per phase (input+wc, kmeans) next
// to the measured one. Tracing is per-run, so -trace cannot be combined
// with -sweep.
//
// Distributed runs persist the measured per-task ship time as an EWMA file
// (hpa-ship-ewma.json, next to the cost-model cache in the scratch
// directory), and later -optimize runs price remote plans with that
// measured figure instead of the model's RPCShipNS (the calibration's plan
// recorded on an in-process pipe worker, no network in it); -explain shows
// which one priced the plan as "ship=measured" vs "ship=loopback-bound".
// Delete the file to price with RPCShipNS again. As with the cost-model
// cache, the feedback only survives across runs when -scratch points at a
// persistent directory.
//
// With -sweep, the workflow runs once per thread count and prints a
// Figure 3-style table. With -explain, the validated plan DAG is printed
// (materialize/load edges marked =[arff]=>, shard edges -[xN]->, optimizer
// decisions as "#" lines) and the workflow itself does not run; note that
// -optimize -explain still calibrates and samples first (about a second on
// a cold scratch dir) because the printed decisions come from the model.
package main

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hpa/internal/corpus"
	"hpa/internal/dict"
	"hpa/internal/kmeans"
	"hpa/internal/metrics"
	"hpa/internal/obs"
	"hpa/internal/optimizer"
	"hpa/internal/par"
	"hpa/internal/pario"
	"hpa/internal/tfidf"
	"hpa/internal/workflow"
)

var phaseOrder = []string{
	tfidf.PhaseInputWC, tfidf.PhaseOutput, workflow.PhaseKMeansInput,
	tfidf.PhaseTransform, kmeans.PhaseKMeans, workflow.PhaseOutput,
}

func main() {
	var (
		in       = flag.String("in", "", "corpus directory, or an ARFF file to cluster (required)")
		mode     = flag.String("mode", "merged", "workflow mode: merged or discrete")
		threads  = flag.Int("threads", runtime.NumCPU(), "worker threads")
		shards   = flag.Int("shards", 0, "shards of the corpus scan and the K-Means loop (0 = auto, N >= 1 pins N; with -optimize, an explicit N pins the optimizer's choice)")
		dictKind = flag.String("dict", dict.Kind(0).String(), "dictionary: map, u-map, map-arena")
		presize  = flag.Int("presize", 0, "per-document dictionary presize")
		k        = flag.Int("k", 8, "number of clusters")
		seed     = flag.Uint64("seed", 1, "seeding RNG")
		scratch  = flag.String("scratch", "", "scratch directory (default: temp)")
		diskSim  = flag.String("disksim", "off", "storage model: off or hdd")
		sweep    = flag.String("sweep", "", "comma-separated thread counts for a Figure 3-style sweep")
		explain  = flag.Bool("explain", false, "print the validated plan DAG and exit")
		optimize = flag.Bool("optimize", false, "derive dict kind, fusion and shard count from a calibrated cost model (explicitly-set -dict/-mode/-shards pin the corresponding decision)")
		worker   = flag.String("worker", "", "run as a task worker listening on this address (e.g. :7070; :0 picks a port) instead of running a workflow")
		workers  = flag.String("workers", "", "comma-separated worker addresses to ship shard tasks to (started with -worker)")
		trace    = flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file (load in Perfetto); also prints a per-node table and a predicted-vs-measured plan autopsy to stderr")
	)
	flag.Parse()
	// Explicitly-set flags pin optimizer decisions (see the precedence
	// paragraph in the package doc).
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if *worker != "" {
		ready := make(chan string, 1)
		errc := make(chan error, 1)
		go func() { errc <- workflow.ListenAndServeWorker(*worker, ready) }()
		select {
		case addr := <-ready:
			fmt.Printf("worker listening on %s\n", addr)
			fatal(<-errc)
		case err := <-errc:
			fatal(err)
		}
		return
	}
	if *in == "" {
		fmt.Fprintln(os.Stderr, "hpa-workflow: -in is required")
		os.Exit(2)
	}
	fi, err := os.Stat(*in)
	if err != nil {
		fatal(err)
	}
	arffIn := fi.Mode().IsRegular()
	if arffIn && *optimize {
		fmt.Fprintf(os.Stderr, "hpa-workflow: -optimize samples a corpus directory; -in %s is a file\n", *in)
		os.Exit(2)
	}

	var backend workflow.Backend = workflow.LocalBackend{}
	var rpcBackend *workflow.RPCBackend
	workerCount := 0
	if *workers != "" {
		addrs := strings.Split(*workers, ",")
		for i := range addrs {
			addrs[i] = strings.TrimSpace(addrs[i])
		}
		rb, err := workflow.NewRPCBackend(addrs)
		if err != nil {
			fatal(err)
		}
		defer rb.Close()
		backend = rb
		rpcBackend = rb
		workerCount = rb.Workers()
	}
	if *shards < 0 {
		fmt.Fprintf(os.Stderr, "hpa-workflow: -shards %d is invalid (want N >= 1, or 0 for auto)\n", *shards)
		os.Exit(2)
	}
	var wmode workflow.Mode
	switch *mode {
	case "merged":
		wmode = workflow.Merged
	case "discrete":
		wmode = workflow.Discrete
	default:
		fmt.Fprintf(os.Stderr, "hpa-workflow: unknown -mode %q\n", *mode)
		os.Exit(2)
	}
	kind, err := dict.ParseKind(*dictKind)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hpa-workflow: %v\n", err)
		os.Exit(2)
	}

	scratchDir := *scratch
	if scratchDir == "" {
		dir, err := os.MkdirTemp("", "hpa-workflow-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
		scratchDir = dir
	} else if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		// Before anything runs: the cost-model cache, the ship EWMA and
		// every output file live here.
		fatal(err)
	}

	cfg := workflow.TFKMConfig{
		Mode:   wmode,
		Shards: *shards,
		TFIDF: tfidf.Options{
			DictKind:   kind,
			DocPresize: *presize,
			Normalize:  true,
		},
		KMeans: kmeans.Options{K: *k, Seed: *seed},
	}

	// buildPlan constructs the (possibly optimized) plan for one run at the
	// given worker parallelism, reading its input through disk. Under
	// -optimize the corpus statistics and the calibrated cost model are
	// gathered once and reused; the base plan is the discrete logical plan
	// so the optimizer owns the fusion and sharding decisions, with an
	// explicit -shards pinning its choice.
	var (
		stats *optimizer.Stats
		model *optimizer.CostModel
	)
	buildPlan := func(disk *pario.DiskSim, procs int) (*workflow.Plan, error) {
		if arffIn {
			return workflow.NewPlan().
				Add("arff", arffSource(*in)).
				Add("load-arff", &workflow.LoadARFF{}).
				Add("kmeans", &workflow.KMeansOp{Opts: cfg.KMeans}).
				Add("output", &workflow.WriteAssignments{}).
				Connect("arff", "load-arff").
				Connect("load-arff", "kmeans").
				Connect("kmeans", "output").
				Apply(workflow.PartitionRule(cfg.Shards)), nil
		}
		src, err := corpus.OpenDir(*in, disk)
		if err != nil {
			return nil, err
		}
		if !*optimize {
			return workflow.TFKMPlan(src, cfg), nil
		}
		if stats == nil {
			// Sample through an unthrottled source: input statistics are
			// independent of the storage model, and reading 256 documents
			// through a simulated disk would stall the pre-pass for
			// seconds of artificial latency.
			statSrc, err := corpus.OpenDir(*in, nil)
			if err != nil {
				return nil, err
			}
			if stats, err = optimizer.Collect(statSrc, 0); err != nil {
				return nil, err
			}
			if model, err = optimizer.LoadOrCalibrate(scratchDir, optimizer.CalibrationOptions{}); err != nil {
				return nil, err
			}
		}
		base := cfg
		base.Mode = workflow.Discrete
		profile := optimizer.LocalProfile()
		if workerCount > 0 {
			profile = optimizer.RPCProfileFrom(workerCount, model, scratchDir)
		}
		opts := optimizer.Options{Procs: procs, Shards: *shards, Backend: profile}
		if explicit["dict"] {
			opts.Dict = optimizer.PinDict(kind)
		}
		if explicit["mode"] {
			if wmode == workflow.Merged {
				opts.Fusion = optimizer.FusionFuse
			} else {
				opts.Fusion = optimizer.FusionMaterialize
			}
		}
		plan := workflow.LogicalTFKMPlan(src, base)
		return plan.Apply(optimizer.Rule(stats, model, opts)), nil
	}

	if *explain {
		plan, err := buildPlan(nil, *threads)
		if err != nil {
			fatal(err)
		}
		if err := plan.Validate(); err != nil {
			fatal(err)
		}
		workflow.AnnotateBackend(plan, backend)
		fmt.Println(plan.Explain())
		return
	}

	threadList := []int{*threads}
	if *sweep != "" {
		threadList = nil
		for _, part := range strings.Split(*sweep, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "hpa-workflow: bad -sweep entry %q\n", part)
				os.Exit(2)
			}
			threadList = append(threadList, n)
		}
	}
	if *trace != "" && len(threadList) > 1 {
		fmt.Fprintln(os.Stderr, "hpa-workflow: -trace records a single run and cannot be combined with -sweep")
		os.Exit(2)
	}

	header := append([]string{"Threads", "Mode", "Dict"}, phaseOrder...)
	header = append(header, "total")
	table := metrics.NewTable(header...)

	for _, n := range threadList {
		var disk *pario.DiskSim
		if *diskSim == "hdd" {
			disk = pario.HDD2016()
		}
		plan, err := buildPlan(disk, n)
		if err != nil {
			fatal(err)
		}
		pool := par.NewPool(n)
		ctx := workflow.NewContext(pool)
		ctx.ScratchDir = scratchDir
		ctx.Disk = disk
		ctx.Backend = backend
		var tracer *obs.Tracer
		if *trace != "" {
			tracer = obs.NewTracer()
			ctx.Tracer = tracer
		}
		rep, err := workflow.RunTFKMPlan(plan, ctx)
		pool.Close()
		if err != nil {
			fatal(err)
		}
		modeLabel, dictLabel := wmode.String(), kind.String()
		switch {
		case *optimize:
			modeLabel, dictLabel = "optimized", "auto"
		case arffIn:
			modeLabel, dictLabel = "arff", "-"
		}
		row := []string{fmt.Sprintf("%d", n), modeLabel, dictLabel}
		for _, ph := range phaseOrder {
			if d := rep.Breakdown.Get(ph); d > 0 {
				row = append(row, metrics.FormatDuration(d))
			} else {
				row = append(row, "-")
			}
		}
		row = append(row, metrics.FormatDuration(rep.Breakdown.Total()))
		table.AddRow(row...)

		if len(threadList) == 1 {
			fmt.Fprintf(os.Stderr, "clusters: %v\n", rep.Clustering.Result.Counts)
			if !arffIn {
				fmt.Fprintf(os.Stderr, "dictionary footprint: %s\n", metrics.FormatBytes(rep.DictFootprint))
			}
			// Per-iteration view of the iterative phase: the "kmeans"
			// phase is the loop node's extent over every seed, assign and
			// reduce task; dividing by the iteration count surfaces the
			// mean assign+reduce span per iteration.
			if iters := rep.Clustering.Result.Iterations; iters > 0 {
				span := rep.Breakdown.Get(kmeans.PhaseKMeans)
				fmt.Fprintf(os.Stderr, "kmeans: %d iterations, mean %s per iteration (assign+reduce)\n",
					iters, (span / time.Duration(iters)).Round(time.Microsecond))
			}
			if sw := rep.Clustering.Result.SeedWall; sw > 0 {
				fmt.Fprintf(os.Stderr, "kmeans seeding: %s wall (K-Means++ scan rounds run as shard tasks)\n",
					sw.Round(time.Microsecond))
			}
		}
		if tracer != nil {
			tr := tracer.Snapshot()
			f, err := os.Create(*trace)
			if err != nil {
				fatal(err)
			}
			if err := obs.WriteChromeTrace(f, tr); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "trace: %d spans, %d events -> %s (load in ui.perfetto.dev)\n",
				len(tr.Spans), len(tr.Events), *trace)
			fmt.Fprint(os.Stderr, obs.NodeTable(tr))
			fmt.Fprintln(os.Stderr, obs.Autopsy(plan, tr, rep.Breakdown))
		}
	}
	// Close the optimizer feedback loop on distributed runs: report what
	// shipping a task actually cost next to the model's pipe-recorded ship
	// cost, so stale or unrepresentative models are visible.
	if rpcBackend != nil {
		if ns, samples := rpcBackend.MeasuredShipNS(); samples > 0 {
			line := fmt.Sprintf("rpc ship: measured %s/task (EWMA over %d tasks)",
				time.Duration(ns).Round(time.Microsecond), samples)
			if model != nil {
				line += fmt.Sprintf(" vs model RPCShipNS %s/task (recorded on a pipe worker)",
					time.Duration(model.RPCShipNS).Round(time.Microsecond))
			}
			fmt.Fprintln(os.Stderr, line)
			// Persist the measurement so the next -optimize run prices
			// remote shards with real ship times (ship=measured in
			// -explain), like the cost-model cache.
			path := optimizer.ShipEWMAFile(scratchDir)
			prev, _ := optimizer.LoadShipEWMA(path)
			prev.Observe(ns, samples)
			if err := prev.Save(path); err != nil {
				fmt.Fprintf(os.Stderr, "hpa-workflow: persist ship EWMA: %v\n", err)
			}
		}
	}
	fmt.Print(table.String())
}

// arffSource is the source node of a run over an ARFF file: it emits the
// file's reference for LoadARFF.
type arffSource string

func (s arffSource) Name() string           { return "arff" }
func (s arffSource) Inputs() []reflect.Type { return nil }
func (s arffSource) Output() reflect.Type   { return reflect.TypeOf((*workflow.ARFFRef)(nil)) }
func (s arffSource) Run(*workflow.Context, workflow.Value) (workflow.Value, error) {
	return &workflow.ARFFRef{Path: string(s)}, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "hpa-workflow: %v\n", err)
	os.Exit(1)
}
