// Example serve demonstrates the resident analytics service end to end
// over real HTTP: boot hpa-serve's server on a loopback port, submit a
// TF/IDF→K-Means plan that publishes its output as a resident index, run
// top-k similarity queries against the hot path, and verify the served
// answers are bit-identical to the batch path (the same run's vectors
// queried through the in-process simsearch kernels). It then republishes
// a second version and shows the atomic swap.
//
// Run with:
//
//	go run ./examples/serve
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"hpa"
)

func main() {
	pool := hpa.NewPool(4)
	defer pool.Close()

	// A corpus on disk under the server's data root.
	root, err := os.MkdirTemp("", "hpa-serve-example-*")
	check(err)
	defer os.RemoveAll(root)
	dataDir := filepath.Join(root, "data")
	corpus := hpa.GenerateCorpus(hpa.MixSpec().Scaled(0.01), pool)
	check(corpus.WriteDir(filepath.Join(dataDir, "abstracts"), 256))
	fmt.Printf("corpus: %d documents under %s\n", corpus.Len(), filepath.Join(dataDir, "abstracts"))

	// Boot the service on a free loopback port.
	env := hpa.NewWorkflowEnv(pool)
	env.ScratchDir = filepath.Join(root, "scratch")
	check(os.MkdirAll(env.ScratchDir, 0o755))
	srv, err := hpa.NewServer(hpa.ServeConfig{Env: env, DataDir: dataDir})
	check(err)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("hpa-serve listening on %s\n\n", base)

	// Submit the workflow and publish its TF/IDF output as the resident
	// index "abstracts".
	var plan hpa.ServePlanResponse
	postJSON(base+"/v1/plans", hpa.ServePlanRequest{
		Corpus: "abstracts", K: 8, Seed: 1, Publish: "abstracts",
	}, &plan)
	fmt.Printf("plan ran in %.1f ms: %d documents, %d iterations, inertia %.6f\n",
		plan.RanMS, plan.Docs, plan.Iterations, plan.Inertia)
	fmt.Printf("published %q version %d (%d docs, %d terms)\n\n",
		plan.Published.Name, plan.Published.Version, plan.Published.Docs, plan.Published.Dim)

	// The batch reference: the same configuration through the plan engine
	// in-process, vectors queried with the batch simsearch kernels.
	src, err := hpa.OpenCorpusDir(filepath.Join(dataDir, "abstracts"), nil)
	check(err)
	cfg := hpa.TFKMConfig{
		Mode:   hpa.Merged,
		TFIDF:  hpa.TFIDFOptions{DictKind: hpa.TreeDict, Normalize: true},
		KMeans: hpa.KMeansOptions{K: 8, Seed: 1},
	}
	ctx := env.NewRun(nil)
	ctx.ScratchDir = root
	rep, err := hpa.RunTFKMPlan(hpa.NewTFKMPlan(src, cfg), ctx)
	check(err)
	if rep.Clustering.Result.Inertia != plan.Inertia {
		fail(fmt.Sprintf("served inertia %v != batch %v", plan.Inertia, rep.Clustering.Result.Inertia))
	}
	vocab, err := hpa.NewQueryVocab(rep.Clustering.TFIDF, cfg.TFIDF)
	check(err)
	vec := vocab.NewVectorizer()

	// Query the hot path and assert bit-equality with the batch answers.
	// Queries are the opening words of three corpus documents (the corpus
	// vocabulary is synthetic), so the top hit should be the document
	// itself — the self-retrieval sanity check.
	var queries []string
	for _, i := range []int{0, 57, 198} {
		doc := corpus.Docs[i]
		if len(doc) > 60 {
			doc = doc[:60]
		}
		queries = append(queries, string(doc))
	}
	for _, q := range queries {
		start := time.Now()
		var qr hpa.ServeQueryResponse
		postJSON(base+"/v1/indexes/abstracts/query", hpa.ServeQueryRequest{Text: q, K: 3}, &qr)
		lat := time.Since(start)

		var qv hpa.Vector
		vec.Vectorize([]byte(q), &qv)
		want := hpa.BruteForceTopK(rep.Clustering.TFIDF.Vectors, &qv, 3)
		if len(qr.Matches) != len(want) {
			fail(fmt.Sprintf("query %q: %d matches, want %d", q, len(qr.Matches), len(want)))
		}
		fmt.Printf("query %-42q -> %d matches in %v\n", q, len(qr.Matches), lat.Round(time.Microsecond))
		for i, m := range qr.Matches {
			if m.Doc != want[i].Doc || m.Score != want[i].Score {
				fail(fmt.Sprintf("query %q match %d: served (%d, %v) != batch (%d, %v)",
					q, i, m.Doc, m.Score, want[i].Doc, want[i].Score))
			}
			fmt.Printf("  #%d %-28s score %.6f cluster %d\n", i+1, m.Name, m.Score, m.Cluster)
		}
	}
	fmt.Println("\nserved answers bit-identical to the batch path")

	// Republish: the version bumps atomically; queries never block.
	postJSON(base+"/v1/plans", hpa.ServePlanRequest{
		Corpus: "abstracts", K: 12, Seed: 2, Publish: "abstracts",
	}, &plan)
	var info hpa.ServeIndexInfo
	getJSON(base+"/v1/indexes/abstracts", &info)
	fmt.Printf("republished: %q now at version %d (%d clusters requested)\n",
		info.Name, info.Version, 12)
	if info.Version != 2 {
		fail(fmt.Sprintf("expected version 2 after republish, got %d", info.Version))
	}
}

func postJSON(url string, req, resp any) {
	body, err := json.Marshal(req)
	check(err)
	r, err := http.Post(url, "application/json", bytes.NewReader(body))
	check(err)
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		fail(fmt.Sprintf("POST %s: %d %s", url, r.StatusCode, buf.String()))
	}
	check(json.NewDecoder(r.Body).Decode(resp))
}

func getJSON(url string, resp any) {
	r, err := http.Get(url)
	check(err)
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		fail(fmt.Sprintf("GET %s: %d", url, r.StatusCode))
	}
	check(json.NewDecoder(r.Body).Decode(resp))
}

func check(err error) {
	if err != nil {
		fail(err.Error())
	}
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "serve example:", msg)
	os.Exit(1)
}
