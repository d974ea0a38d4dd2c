package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"

	"hpa/internal/corpus"
	"hpa/internal/kmeans"
	"hpa/internal/metrics"
	"hpa/internal/obs"
	"hpa/internal/par"
	"hpa/internal/serve"
	"hpa/internal/simsearch"
	"hpa/internal/tfidf"
	"hpa/internal/workflow"
)

// world is what one benchmark process shares across rounds and workloads.
type world struct {
	pool *par.Pool
	// single is a one-worker pool: reference answers are computed on it.
	single *par.Pool
	// dir is the work directory, inside the checkout; each workload stages
	// under dir/<name> and removes it on tear-down.
	dir  string
	seed uint64
	// small shrinks every input so that one op of every workload fits a
	// unit test; measurements never set it.
	small bool
}

// scale returns an input size, shrunk under small.
func (w *world) scale(size float64) float64 {
	if w.small {
		return size / 10
	}
	return size
}

// A workload is one set of inputs the benchmark runs. setUp stages inputs,
// builds whatever the workload holds resident and computes the reference
// answer; op runs and verifies one operation for a closed-loop client;
// tearDown drops every reference so nothing of this workload is live while
// another is timed.
type workload interface {
	name() string
	clients() int
	// warmupOps is a fixed count, not a duration: set-up time must grow
	// when an op gets slower, or setup_s would hide work moved into it.
	warmupOps() int
	setUp(w *world, log *spanLog, parent int) error
	op(client, i int) error
	tearDown()
	// sizes reports corpus/vector/index sizes and resolved shard counts.
	sizes() map[string]any
	// layers replays each layer on the workload's data (traced mode only,
	// after setUp) and fills every per-layer metric that applies.
	layers(log *spanLog, parent int, ref *opStats, out metricSet) error
}

var workloadOrder = []string{"text-e2e", "cluster-local", "cluster-rpc", "serve-query"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "text-e2e":
		return &textWorkload{}, nil
	case "cluster-local":
		return &clusterWorkload{}, nil
	case "cluster-rpc":
		return &clusterWorkload{rpc: true}, nil
	case "serve-query":
		return &serveWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", name, workloadOrder)
}

// textOptions is how every workload runs TF/IDF: the library defaults
// (zero-value DictKind) with the paper's unit-normalized scores. serve's
// plan submission uses the same.
var textOptions = tfidf.Options{Normalize: true}

// autoShards is what Shards<0 and PartitionRule(0) resolve to at run time.
func autoShards() int {
	if p := runtime.GOMAXPROCS(0); p > 1 {
		return 2 * p
	}
	return 1
}

// ---- text-e2e ----------------------------------------------------------

const (
	textScale = 0.05 // corpus.Mix() share: 1 172 documents, 3.3 MB
	textK     = 8
)

type textWorkload struct {
	w       *world
	dir     string // corpus on disk
	scratch string // the output node writes here
	cfg     workflow.TFKMConfig
	ref     uint64
	docs    int
	bytes   int64
}

func (t *textWorkload) name() string   { return "text-e2e" }
func (t *textWorkload) clients() int   { return 1 }
func (t *textWorkload) warmupOps() int { return 6 }

func (t *textWorkload) setUp(w *world, log *spanLog, parent int) error {
	t.w = w
	t.dir = filepath.Join(w.dir, t.name(), "corpus")
	t.scratch = filepath.Join(w.dir, t.name(), "scratch")
	if err := os.MkdirAll(t.scratch, 0o755); err != nil {
		return err
	}
	spec := corpus.Mix().Scaled(w.scale(textScale))
	spec.Seed ^= w.seed
	var err error
	log.timed("setup.generate", parent, func() {
		c := corpus.Generate(spec, w.pool)
		t.docs, t.bytes = c.Len(), c.Bytes()
		err = c.WriteDir(t.dir, 256)
	})
	if err != nil {
		return err
	}
	// The library/CLI defaults: merged, shards auto, zero-value DictKind.
	t.cfg = workflow.TFKMConfig{
		Mode:   workflow.Merged,
		Shards: -1,
		TFIDF:  textOptions,
		KMeans: kmeans.Options{K: textK, Seed: w.seed},
	}
	// Reference: the same plan on one worker. The repo's invariant is
	// bit-identity across schedules, backends, prune modes and block widths
	// at one shard count (and 1e-12 against other shard counts), so the
	// reference keeps the op's shard count and changes who runs the shards.
	log.timed("setup.reference", parent, func() {
		var rep *workflow.TFKMReport
		if rep, err = t.run(w.single, nil); err == nil {
			t.ref = clusteringHash(rep.Clustering.Result)
		}
	})
	return err
}

// run executes the workflow once from the files on disk.
func (t *textWorkload) run(pool *par.Pool, tracer *obs.Tracer) (*workflow.TFKMReport, error) {
	src, err := corpus.OpenDir(t.dir, nil)
	if err != nil {
		return nil, err
	}
	ctx := workflow.NewContext(pool)
	ctx.ScratchDir = t.scratch
	ctx.Tracer = tracer
	return workflow.RunTFKM(src, ctx, t.cfg)
}

func (t *textWorkload) op(_, _ int) error {
	rep, err := t.run(t.w.pool, nil)
	if err != nil {
		return err
	}
	return checkClustering(rep.Clustering.Result, t.ref)
}

func (t *textWorkload) tearDown() {
	os.RemoveAll(filepath.Join(t.w.dir, t.name()))
	*t = textWorkload{}
}

func (t *textWorkload) sizes() map[string]any {
	return map[string]any{
		"corpus_docs": t.docs, "corpus_mb": float64(t.bytes) / (1 << 20),
		"k": textK, "shards": autoShards(),
	}
}

// ---- cluster-local / cluster-rpc ----------------------------------------

const (
	clusterK       = 16
	clusterMaxIter = 20
	rpcWorkers     = 2
)

// valueOp feeds a prebuilt dataset into a plan: the clustering workloads
// vectorize once at set-up so an op is K-Means and nothing else.
type valueOp struct{ v workflow.Value }

func (o *valueOp) Name() string                                                  { return "vectors" }
func (o *valueOp) Run(*workflow.Context, workflow.Value) (workflow.Value, error) { return o.v, nil }
func (o *valueOp) Inputs() []reflect.Type                                        { return nil }
func (o *valueOp) Output() reflect.Type                                          { return reflect.TypeOf(o.v) }

type clusterWorkload struct {
	rpc  bool
	w    *world
	docs *corpus.Corpus
	res  *tfidf.Result
	opts kmeans.Options
	ref  uint64
	// iterations is how many the reference ran: the ops repeat exactly it.
	iterations int

	listeners []*countingListener
	served    chan error
	backend   *workflow.RPCBackend
}

func (c *clusterWorkload) name() string {
	if c.rpc {
		return "cluster-rpc"
	}
	return "cluster-local"
}
func (c *clusterWorkload) clients() int { return 1 }
func (c *clusterWorkload) warmupOps() int {
	if c.rpc {
		return 7
	}
	return 22
}

func (c *clusterWorkload) setUp(w *world, log *spanLog, parent int) error {
	c.w = w
	var err error
	spec := clusterSpec
	spec.Docs = int(w.scale(float64(spec.Docs)))
	log.timed("setup.generate", parent, func() { c.docs = generateTopical(spec, w.seed) })
	log.timed("setup.vectorize", parent, func() {
		c.res, err = tfidf.Run(c.docs.Source(nil), w.pool, textOptions, nil)
	})
	if err != nil {
		return err
	}
	c.opts = kmeans.Options{K: clusterK, MaxIter: clusterMaxIter, Seed: clusterSpec.Structure}
	// Reference: the same plan in-process on one worker; see textWorkload.
	var ref *kmeans.Result
	log.timed("setup.reference", parent, func() {
		ref, _, err = c.run(w.single, workflow.LocalBackend{}, nil)
	})
	if err != nil {
		return err
	}
	c.ref, c.iterations = clusteringHash(ref), ref.Iterations
	if !c.rpc {
		return nil
	}
	var addrs []string
	c.served = make(chan error, rpcWorkers) // one send per worker
	for i := 0; i < rpcWorkers; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		cl := &countingListener{Listener: lis}
		c.listeners = append(c.listeners, cl)
		addrs = append(addrs, lis.Addr().String())
		go func() { c.served <- workflow.ServeWorker(cl) }()
	}
	c.backend, err = workflow.NewRPCBackend(addrs)
	return err
}

func (c *clusterWorkload) plan() *workflow.Plan {
	return workflow.NewPlan().
		Add("vectors", &valueOp{v: c.res}).
		Add("kmeans", &workflow.KMeansOp{Opts: c.opts}).
		Connect("vectors", "kmeans").
		Apply(workflow.PartitionRule(0))
}

// run executes the K-Means plan once on the given pool and backend.
func (c *clusterWorkload) run(pool *par.Pool, backend workflow.Backend, tracer *obs.Tracer) (*kmeans.Result, *metrics.Breakdown, error) {
	ctx := workflow.NewContext(pool)
	ctx.Backend = backend
	ctx.Tracer = tracer
	outs, err := c.plan().Run(ctx)
	if err != nil {
		return nil, nil, err
	}
	cl, ok := outs["kmeans.reduce"].(*workflow.Clustering)
	if !ok {
		return nil, nil, fmt.Errorf("plan produced no clustering (sinks %v)", reflect.ValueOf(outs).MapKeys())
	}
	return cl.Result, ctx.Breakdown, nil
}

func (c *clusterWorkload) opBackend() workflow.Backend {
	if c.rpc {
		return c.backend
	}
	return workflow.LocalBackend{}
}

func (c *clusterWorkload) op(_, _ int) error {
	res, _, err := c.run(c.w.pool, c.opBackend(), nil)
	if err != nil {
		return err
	}
	return checkClustering(res, c.ref)
}

func (c *clusterWorkload) tearDown() {
	if c.backend != nil {
		c.backend.Close()
	}
	for _, l := range c.listeners {
		l.Close()
	}
	for range c.listeners {
		<-c.served // ServeWorker returns once its listener is closed
	}
	*c = clusterWorkload{rpc: c.rpc}
}

func (c *clusterWorkload) sizes() map[string]any {
	var nnz int
	for i := range c.res.Vectors {
		nnz += c.res.Vectors[i].NNZ()
	}
	return map[string]any{
		"docs": len(c.res.Vectors), "dim": c.res.Dim(), "nnz": nnz,
		"vector_mb": float64(nnz*12) / (1 << 20),
		"k":         clusterK, "iterations": c.iterations, "shards": autoShards(),
	}
}

// ---- serve-query --------------------------------------------------------

const (
	serveScale = 0.3 // corpus.Mix() share: ≈7 000 documents
	serveTopK  = 10
	indexName  = "bench"
)

// servedMatch is the part of a served hit the reference pins.
type servedMatch struct {
	Doc   int     `json:"doc"`
	Score float64 `json:"score"`
}

type serveWorkload struct {
	w       *world
	srv     *serve.Server
	hs      *http.Server
	served  chan error
	url     string
	art     *serve.IndexArtifact
	queries []query
	bodies  [][]byte // pre-encoded request bodies, one per query
	refs    [][]simsearch.Match
	conns   []*http.Client // one keep-alive connection per client
	docs    int
	bytes   int64
}

func (s *serveWorkload) name() string { return "serve-query" }

// Two keep-alive clients: one per CPU, so the server is saturated without a
// queue building in front of it.
func (s *serveWorkload) clients() int   { return 2 }
func (s *serveWorkload) warmupOps() int { return 4000 }

func (s *serveWorkload) setUp(w *world, log *spanLog, parent int) error {
	s.w = w
	root := filepath.Join(w.dir, s.name())
	dataDir := filepath.Join(root, "data")
	scratch := filepath.Join(root, "scratch")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	spec := corpus.Mix().Scaled(w.scale(serveScale))
	spec.Seed ^= w.seed
	var err error
	log.timed("setup.generate", parent, func() {
		c := corpus.Generate(spec, w.pool)
		s.docs, s.bytes = c.Len(), c.Bytes()
		s.queries = pickQueries(c.Docs, w.seed)
		err = c.WriteDir(filepath.Join(dataDir, "corpus"), 256)
	})
	if err != nil {
		return err
	}
	env := workflow.NewEnv(w.pool)
	env.ScratchDir = scratch
	if s.srv, err = serve.New(serve.Config{Env: env, DataDir: dataDir}); err != nil {
		return err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(lis) }()
	s.url = "http://" + lis.Addr().String()
	for i := 0; i < s.clients(); i++ {
		s.conns = append(s.conns, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
	}

	log.timed("setup.publish", parent, func() {
		body, _ := json.Marshal(serve.PlanRequest{Corpus: "corpus", K: textK, Seed: w.seed, Publish: indexName})
		var resp serve.PlanResponse
		err = s.post(0, "/v1/plans", body, &resp)
	})
	if err != nil {
		return err
	}
	var ok bool
	if s.art, ok = s.srv.Registry().Get(indexName); !ok {
		return fmt.Errorf("plan did not publish index %q", indexName)
	}
	log.timed("setup.reference", parent, func() {
		s.bodies = make([][]byte, len(s.queries))
		s.refs = make([][]simsearch.Match, len(s.queries))
		for i, q := range s.queries {
			s.bodies[i], _ = json.Marshal(serve.QueryRequest{Text: q.Text, K: serveTopK})
			// TopK's result is scratch the next call reuses: copy it.
			s.refs[i] = append([]simsearch.Match(nil), s.art.TopK([]byte(q.Text), serveTopK)...)
		}
	})
	return nil
}

// post sends one JSON request on client's connection and decodes a 200
// answer into out; any other status is an error.
func (s *serveWorkload) post(client int, path string, body []byte, out any) error {
	resp, err := s.conns[client].Post(s.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

const queryPath = "/v1/indexes/" + indexName + "/query"

// queryOf is the query client sends as its i-th op: every client walks the
// whole set in order, each from its own offset, so each sees the full 90/10
// mix of short and long queries and no two send the same query at once.
func (s *serveWorkload) queryOf(client, i int) int {
	n := len(s.queries)
	return (i + client*n/s.clients()) % n
}

func (s *serveWorkload) op(client, i int) error { return s.query(client, s.queryOf(client, i)) }

// query sends query q on client's connection and compares the decoded
// answer with the reference.
func (s *serveWorkload) query(client, q int) error {
	var resp struct {
		Matches []servedMatch `json:"matches"`
	}
	if err := s.post(client, queryPath, s.bodies[q], &resp); err != nil {
		return err
	}
	if !sameMatches(resp.Matches, s.refs[q]) {
		return fmt.Errorf("query %d: served matches differ from the reference", q)
	}
	return nil
}

func (s *serveWorkload) tearDown() {
	for _, c := range s.conns {
		c.CloseIdleConnections()
	}
	if s.hs != nil {
		s.hs.Close()
		<-s.served
	}
	os.RemoveAll(filepath.Join(s.w.dir, s.name()))
	*s = serveWorkload{}
}

func (s *serveWorkload) sizes() map[string]any {
	return map[string]any{
		"corpus_docs": s.docs, "corpus_mb": float64(s.bytes) / (1 << 20),
		"index_docs": s.art.Docs(), "index_dim": s.art.Dim(),
		"index_mb": float64(s.art.MemBytes()) / (1 << 20),
		"queries":  len(s.queries), "top_k": serveTopK, "shards": autoShards(),
	}
}
