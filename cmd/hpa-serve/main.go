// Command hpa-serve runs the resident analytics service: one long-lived
// process holding the worker pool, a calibrated cost model with cached
// corpus statistics, and a registry of named, versioned in-memory indexes,
// serving plan submissions and top-k similarity queries over HTTP.
//
// Usage:
//
//	hpa-serve -data DIR [-addr :8080] [-threads N] [-scratch DIR]
//	          [-costmodel] [-max-plans 2] [-max-queued 8]
//	          [-max-queries 256] [-workers addr,addr]
//
// -data is the corpus root: plan submissions name corpora by path relative
// to it and may not escape it. -costmodel calibrates (or loads a cached)
// cost model at boot so submissions may set "optimize": true. -max-plans
// and -max-queued bound the plan admission queue — beyond them submissions
// are shed with 429 and a Retry-After estimate; -max-queries bounds the
// in-flight query count on the hot path (shed immediately, no queue).
// -workers ships shard tasks of admitted plans to hpa-workflow -worker
// processes, exactly as in the batch CLI. SIGINT or SIGTERM stops
// accepting connections and lets in-flight requests finish for up to 30 s
// (closing the rest cancels their plans), then releases the pool, the
// backend and a temp scratch directory and exits 0.
//
// # Walkthrough
//
// Boot the service over a corpus root:
//
//	hpa-serve -data /corpora -addr :8080 -costmodel
//
// Submit a workflow over data/abstracts, let the optimizer pick the
// physical plan, and publish the TF/IDF output as the resident index
// "abstracts" (the response carries the report and the Explain text):
//
//	curl -s localhost:8080/v1/plans -d '{
//	  "corpus": "abstracts", "k": 8, "seed": 1,
//	  "optimize": true, "publish": "abstracts"
//	}'
//
// Inspect what is resident:
//
//	curl -s localhost:8080/v1/indexes
//	curl -s localhost:8080/v1/indexes/abstracts
//
// Query the hot path — the text is vectorized through the resident
// dictionary and IDF weights, scored against the resident index, and
// answered without touching the corpus (scores are bit-identical to the
// batch simsearch path over the same run's vectors):
//
//	curl -s localhost:8080/v1/indexes/abstracts/query \
//	     -d '{"text": "parallel text analytics workflows", "k": 5}'
//
// Republishing under the same name bumps the version atomically;
// in-flight queries finish on the version they started on:
//
//	curl -s localhost:8080/v1/plans -d '{
//	  "corpus": "abstracts", "k": 12, "publish": "abstracts"
//	}'
//
// Tenants are named by the "tenant" field or the X-HPA-Tenant header;
// queued plan submissions are dispatched round-robin across tenants. When
// the queue budget is exhausted the service sheds instead of queueing:
//
//	curl -si localhost:8080/v1/plans -H 'X-HPA-Tenant: batch-team' \
//	     -d '{"corpus": "abstracts"}'
//	# HTTP/1.1 429 Too Many Requests
//	# Retry-After: 3
//
// Service health and counters:
//
//	curl -s localhost:8080/v1/healthz
//	curl -s localhost:8080/v1/stats
//
// /v1/stats is a JSON snapshot: plan admission counters, query-gate
// served/shed/in-flight, registry index count, per-index versions and
// resident index bytes. The same numbers
// are exported in Prometheus text exposition — plus latency histograms for
// the query and plan paths — for scraping:
//
//	curl -s localhost:8080/metrics
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"hpa/internal/optimizer"
	"hpa/internal/par"
	"hpa/internal/serve"
	"hpa/internal/workflow"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "hpa-serve: %v\n", err)
		os.Exit(1)
	}
}

// drainTimeout bounds the shutdown: requests still running past it — a
// long plan — have their connections closed, which cancels their runs.
const drainTimeout = 30 * time.Second

// run serves until the listener fails or SIGINT/SIGTERM arrives, then
// drains in-flight requests for up to drainTimeout. It returns, rather
// than exiting, so the temp scratch dir, the backend and the pool are
// released on every path.
func run() error {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		data       = flag.String("data", "", "corpus root directory (required); plan submissions name corpora relative to it")
		threads    = flag.Int("threads", runtime.NumCPU(), "worker threads shared by all admitted plans")
		scratch    = flag.String("scratch", "", "scratch directory for run intermediates and the cost-model cache (default: temp)")
		costmodel  = flag.Bool("costmodel", false, "calibrate (or load a cached) cost model at boot; enables \"optimize\": true submissions")
		maxPlans   = flag.Int("max-plans", 2, "plans executing concurrently")
		maxQueued  = flag.Int("max-queued", 8, "plan submissions queued beyond that before shedding with 429")
		maxQueries = flag.Int("max-queries", 256, "in-flight top-k queries before the hot path sheds")
		workers    = flag.String("workers", "", "comma-separated hpa-workflow -worker addresses to ship shard tasks to")
	)
	flag.Parse()
	if *data == "" {
		fmt.Fprintln(os.Stderr, "hpa-serve: -data is required")
		os.Exit(2)
	}
	if fi, err := os.Stat(*data); err != nil || !fi.IsDir() {
		fmt.Fprintf(os.Stderr, "hpa-serve: -data %q is not a directory\n", *data)
		os.Exit(2)
	}

	scratchDir := *scratch
	if scratchDir == "" {
		dir, err := os.MkdirTemp("", "hpa-serve-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		scratchDir = dir
	}

	pool := par.NewPool(*threads)
	defer pool.Close()
	env := workflow.NewEnv(pool)
	env.ScratchDir = scratchDir

	if *workers != "" {
		addrs := strings.Split(*workers, ",")
		for i := range addrs {
			addrs[i] = strings.TrimSpace(addrs[i])
		}
		rb, err := workflow.NewRPCBackend(addrs)
		if err != nil {
			return err
		}
		defer rb.Close()
		env.Backend = rb
		fmt.Printf("hpa-serve: shipping shard tasks to %d workers\n", rb.Workers())
	}

	var planner *optimizer.Planner
	if *costmodel {
		model, err := optimizer.LoadOrCalibrate(scratchDir, optimizer.CalibrationOptions{})
		if err != nil {
			return err
		}
		planner = optimizer.NewPlanner(model, optimizer.Options{Procs: *threads})
		fmt.Println("hpa-serve: cost model ready; optimize enabled")
	}

	srv, err := serve.New(serve.Config{
		Env:                env,
		Planner:            planner,
		DataDir:            *data,
		MaxConcurrentPlans: *maxPlans,
		MaxQueuedPlans:     *maxQueued,
		MaxInflightQueries: *maxQueries,
	})
	if err != nil {
		return err
	}
	fmt.Printf("hpa-serve: listening on %s (data root %s, %d threads)\n", *addr, *data, *threads)
	hs := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// A client that trickles its headers or body, or never reads its
		// answer, cannot hold a connection forever. Request bodies are
		// capped separately (serve.MaxBodyBytes). A plan answers only
		// once its run finishes, so the write deadline is generous.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      30 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	sig, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	served := make(chan error, 1)
	go func() { served <- hs.ListenAndServe() }()
	select {
	case err := <-served:
		return err
	case <-sig.Done():
	}
	stop() // a second signal kills the process outright
	fmt.Println("hpa-serve: shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		hs.Close()
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}
