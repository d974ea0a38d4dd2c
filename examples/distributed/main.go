// Example distributed demonstrates the pluggable execution backends: the
// same partitioned TF/IDF→K-Means plan runs once on the in-process
// LocalBackend and once on an RPCBackend shipping shard tasks to two
// worker processes, and the results are verified to be bit-identical.
//
// The example spawns the two workers by re-executing itself with -serve
// (each worker listens on a free loopback port and prints it); a real
// deployment runs `hpa-workflow -worker :7070` on each machine instead and
// passes the addresses via -workers. Workers read corpus shards by path,
// so coordinator and workers must share a filesystem view.
//
// Run with:
//
//	go run ./examples/distributed
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"time"

	"hpa"
)

func main() {
	serve := flag.Bool("serve", false, "run as a task worker (internal; the parent process passes this)")
	flag.Parse()
	if *serve {
		runWorker()
		return
	}

	pool := hpa.NewPool(4)
	defer pool.Close()

	// The corpus must live on disk: remote shard tasks describe their input
	// as file paths, not document bytes.
	dir, err := os.MkdirTemp("", "hpa-distributed-*")
	check(err)
	defer os.RemoveAll(dir)
	corpusDir := filepath.Join(dir, "corpus")
	corpus := hpa.GenerateCorpus(hpa.CalibrationCorpusSpec(), pool)
	check(corpus.WriteDir(corpusDir, 256))
	fmt.Printf("corpus: %d documents under %s\n", corpus.Len(), corpusDir)

	// Spawn two workers (this binary with -serve) and collect their ports.
	var addrs []string
	for i := 0; i < 2; i++ {
		addr, kill := spawnWorker()
		defer kill()
		addrs = append(addrs, addr)
		fmt.Printf("worker %d listening on %s\n", i, addr)
	}
	backend, err := hpa.NewRPCBackend(addrs)
	check(err)
	defer backend.Close()

	cfg := hpa.TFKMConfig{
		Mode:   hpa.Merged,
		Shards: 4,
		TFIDF:  hpa.TFIDFOptions{Normalize: true},
		KMeans: hpa.KMeansOptions{K: 8, Seed: 1},
	}

	run := func(b hpa.Backend) (*hpa.TFKMReport, time.Duration) {
		src, err := hpa.OpenCorpusDir(corpusDir, nil)
		check(err)
		ctx := hpa.NewWorkflowContext(pool)
		ctx.ScratchDir = dir
		ctx.Backend = b
		start := time.Now()
		rep, err := hpa.RunTFIDFKMeans(src, ctx, cfg)
		check(err)
		return rep, time.Since(start)
	}

	fmt.Println("\nrunning on the local backend ...")
	local, localTime := run(hpa.LocalBackend{})
	fmt.Printf("local: %v in %v\n", local.Clustering.Result.Counts, localTime.Round(time.Millisecond))

	fmt.Println("running on the rpc backend (2 workers) ...")
	remote, remoteTime := run(backend)
	fmt.Printf("rpc:   %v in %v\n", remote.Clustering.Result.Counts, remoteTime.Round(time.Millisecond))

	// The contract: bit-identical results, wherever the tasks ran.
	lr, rr := local.Clustering.Result, remote.Clustering.Result
	switch {
	case !reflect.DeepEqual(lr.Assign, rr.Assign):
		fail("cluster assignments differ across backends")
	case lr.Iterations != rr.Iterations:
		fail("iteration counts differ across backends")
	case lr.Inertia != rr.Inertia:
		fail("inertia differs across backends")
	}
	fmt.Printf("\nbit-identical across backends: %d documents, %d iterations, inertia %.6f\n",
		len(lr.Assign), lr.Iterations, lr.Inertia)
	fmt.Printf("rpc overhead on this machine: %+.1f%% (expected: every task pays the frame ship cost;\n"+
		"the win appears when workers add real cores on other machines)\n",
		100*(remoteTime.Seconds()/localTime.Seconds()-1))

	// Where did the tasks run? AnnotateBackend records placement on the
	// plan for Explain.
	src, err := hpa.OpenCorpusDir(corpusDir, nil)
	check(err)
	plan := hpa.NewTFKMPlan(src, cfg)
	check(plan.Validate())
	hpa.AnnotateBackend(plan, backend)
	fmt.Println("\nplan with backend placement:")
	fmt.Println(plan.Explain())
}

// runWorker is the -serve mode: listen on a free loopback port, print it
// for the parent, serve tasks until killed.
func runWorker() {
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() { errc <- hpa.ServeWorkerOn("127.0.0.1:0", ready) }()
	select {
	case addr := <-ready:
		fmt.Println(addr) // the parent reads this line
		check(<-errc)
	case err := <-errc:
		check(err)
	}
}

// spawnWorker re-executes this binary in -serve mode and returns the
// worker's address and a kill function.
func spawnWorker() (addr string, kill func()) {
	exe, err := os.Executable()
	check(err)
	cmd := exec.Command(exe, "-serve")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	check(err)
	check(cmd.Start())
	line, err := bufio.NewReader(out).ReadString('\n')
	check(err)
	return line[:len(line)-1], func() {
		cmd.Process.Kill()
		cmd.Wait()
	}
}

func check(err error) {
	if err != nil {
		fail(err.Error())
	}
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "distributed example:", msg)
	os.Exit(1)
}
