// Package serve implements hpa-serve: a resident multi-tenant analytics
// service wrapping the plan engine. One process holds the long-lived
// execution environment (pool, backend, scratch space), a cost-model
// planner, and a registry of named, versioned resident index artifacts,
// and exposes two request classes over HTTP:
//
//   - plan submission (POST /v1/plans): a JSON description of a TF/IDF→
//     K-Means workflow is built (optionally through the cost-based
//     optimizer), admitted through a bounded fair queue, executed on the
//     shared pool/backend, and answered with the report and the plan's
//     Explain text. A submission may publish its TF/IDF output as a
//     resident index. Past the queue budget, submissions are shed with
//     429 and a Retry-After estimate instead of queueing unboundedly.
//   - the hot query path (POST /v1/indexes/{name}/query): top-k cosine
//     similarity against a resident index. Query text is vectorized
//     through the resident dictionary and IDF weights (no corpus access),
//     the index is read lock-free, and a concurrent index publish swaps
//     versions atomically without blocking or corrupting in-flight
//     queries.
//
// Batch and served answers are bit-identical: the same kernels vectorize,
// index and score in both paths.
//
// Observability: GET /v1/stats returns a JSON snapshot (admission counters,
// query-gate served/shed/in-flight, registry index count, versions and
// resident bytes) and GET /metrics exposes the
// same numbers in Prometheus text exposition — counters for plans
// admitted/completed/shed and queries served/shed, gauges for queue depth,
// in-flight queries and resident index size, and latency histograms for
// the query and plan paths.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hpa/internal/corpus"
	"hpa/internal/dict"
	"hpa/internal/kmeans"
	"hpa/internal/metrics"
	"hpa/internal/obs"
	"hpa/internal/optimizer"
	"hpa/internal/simsearch"
	"hpa/internal/tfidf"
	"hpa/internal/workflow"
)

// Config configures a Server.
type Config struct {
	// Env is the resident execution environment shared by every admitted
	// plan (required). Its ScratchDir hosts per-run scratch subdirectories.
	Env *workflow.Env
	// Planner, when non-nil, enables "optimize": true plan submissions
	// (resident cost model + cached corpus statistics).
	Planner *optimizer.Planner
	// DataDir is the root directory plan submissions may read corpora
	// from; corpus paths are resolved under it and may not escape it
	// (required for plan submission).
	DataDir string
	// MaxConcurrentPlans bounds plans executing at once (0 selects 2).
	MaxConcurrentPlans int
	// MaxQueuedPlans bounds the admission queue (0 selects 8).
	MaxQueuedPlans int
	// MaxInflightQueries bounds concurrent top-k queries (0 selects 256).
	MaxInflightQueries int
}

// Server is the resident service. Create with New, mount Handler on any
// http.Server.
type Server struct {
	env     *workflow.Env
	planner *optimizer.Planner
	dataDir string
	reg     *Registry
	adm     *Admission
	gate    *queryGate
	mux     *http.ServeMux
	runSeq  atomic.Uint64

	// prom serves GET /metrics (Prometheus text exposition); queryLat and
	// planLat are its latency histograms, observed on the serving paths.
	prom     *obs.Registry
	queryLat *obs.Histogram
	planLat  *obs.Histogram
}

// New validates cfg and returns a server.
func New(cfg Config) (*Server, error) {
	if cfg.Env == nil || cfg.Env.Pool == nil {
		return nil, fmt.Errorf("serve: Config.Env with a pool is required")
	}
	if cfg.MaxConcurrentPlans <= 0 {
		cfg.MaxConcurrentPlans = 2
	}
	if cfg.MaxQueuedPlans <= 0 {
		cfg.MaxQueuedPlans = 8
	}
	if cfg.MaxInflightQueries <= 0 {
		cfg.MaxInflightQueries = 256
	}
	s := &Server{
		env:     cfg.Env,
		planner: cfg.Planner,
		dataDir: cfg.DataDir,
		reg:     NewRegistry(),
		adm:     NewAdmission(cfg.MaxConcurrentPlans, cfg.MaxQueuedPlans),
		gate:    newQueryGate(cfg.MaxInflightQueries),
	}
	s.initMetrics()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/indexes", s.handleListIndexes)
	mux.HandleFunc("GET /v1/indexes/{name}", s.handleGetIndex)
	mux.HandleFunc("DELETE /v1/indexes/{name}", s.handleDropIndex)
	mux.HandleFunc("POST /v1/indexes/{name}/query", s.handleQuery)
	mux.HandleFunc("POST /v1/plans", s.handlePlan)
	s.mux = mux
	return s, nil
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the artifact registry (for embedding processes that
// publish indexes directly).
func (s *Server) Registry() *Registry { return s.reg }

// PlanRequest is the JSON body of POST /v1/plans. Zero values select the
// documented defaults; Shards follows the library and CLI convention (0
// auto, N pins).
type PlanRequest struct {
	// Tenant buckets the submission for fair scheduling ("" = "default";
	// the X-HPA-Tenant header is used when the field is empty).
	Tenant string `json:"tenant,omitempty"`
	// Corpus is the corpus directory, relative to the server's data root.
	Corpus string `json:"corpus"`
	// Mode is "merged" (default) or "discrete"; ignored under Optimize
	// unless PinMode is set.
	Mode string `json:"mode,omitempty"`
	// Dict is the dictionary kind ("map", "u-map", "map-arena"); empty is
	// the library default, the zero-value dict.Kind. Under Optimize it pins
	// the choice only with PinDict.
	Dict string `json:"dict,omitempty"`
	// Shards: 0 auto, N > 0 pins the shard count; negative is rejected.
	Shards int `json:"shards,omitempty"`
	// K is the cluster count (default 8); Seed the seeding RNG (default 1).
	K    int    `json:"k,omitempty"`
	Seed uint64 `json:"seed,omitempty"`
	// Optimize derives dictionary kind, fusion and shard counts from the
	// server's resident cost model and cached corpus statistics.
	Optimize bool `json:"optimize,omitempty"`
	// PinDict/PinMode make the explicit Dict/Mode choices override the
	// optimizer (mirroring the CLI's explicit-flag pinning).
	PinDict bool `json:"pin_dict,omitempty"`
	PinMode bool `json:"pin_mode,omitempty"`
	// ExplainOnly validates and plans but does not execute.
	ExplainOnly bool `json:"explain_only,omitempty"`
	// Publish names the resident index to publish the run's TF/IDF output
	// under (requires a fused run; the server pins fusion when set).
	Publish string `json:"publish,omitempty"`
}

// IndexInfo describes one registry entry on the wire.
type IndexInfo struct {
	Name        string    `json:"name"`
	Version     uint64    `json:"version"`
	Docs        int       `json:"docs"`
	Dim         int       `json:"dim"`
	HasClusters bool      `json:"has_clusters"`
	BuiltAt     time.Time `json:"built_at"`
}

// PlanResponse is the JSON answer of POST /v1/plans.
type PlanResponse struct {
	Tenant     string            `json:"tenant"`
	Explain    string            `json:"explain"`
	Docs       int               `json:"docs,omitempty"`
	Dim        int               `json:"dim,omitempty"`
	Clusters   []int64           `json:"clusters,omitempty"`
	Iterations int               `json:"iterations,omitempty"`
	Inertia    float64           `json:"inertia,omitempty"`
	Converged  bool              `json:"converged,omitempty"`
	Phases     map[string]string `json:"phases,omitempty"`
	QueuedMS   float64           `json:"queued_ms"`
	RanMS      float64           `json:"ran_ms,omitempty"`
	Published  *IndexInfo        `json:"published,omitempty"`
}

// QueryRequest is the JSON body of POST /v1/indexes/{name}/query.
type QueryRequest struct {
	// Text is the query text, vectorized through the resident dictionary.
	Text string `json:"text"`
	// K is the number of matches wanted (default 10).
	K int `json:"k,omitempty"`
}

// QueryMatch is one hit.
type QueryMatch struct {
	Doc     int     `json:"doc"`
	Name    string  `json:"name,omitempty"`
	Score   float64 `json:"score"`
	Cluster int32   `json:"cluster,omitempty"`
}

// QueryResponse is the JSON answer of the query path.
type QueryResponse struct {
	Index   string       `json:"index"`
	Version uint64       `json:"version"`
	Matches []QueryMatch `json:"matches"`
}

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// MaxBodyBytes caps a plan or query request body; a larger body is
// answered 413 before it is decoded.
const MaxBodyBytes = 1 << 20

// decodeBody decodes the JSON request body into v, reading at most
// MaxBodyBytes; past the cap it answers 413, on malformed JSON 400. It
// reports whether the handler may go on.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		writeErr(w, http.StatusRequestEntityTooLarge, "%s body exceeds %d bytes", what, tooBig.Limit)
	default:
		writeErr(w, http.StatusBadRequest, "bad %s body: %v", what, err)
	}
	return false
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// ServerStats is the /v1/stats payload.
type ServerStats struct {
	Plans           AdmissionStats    `json:"plans"`
	QueriesServed   int64             `json:"queries_served"`
	QueriesShed     int64             `json:"queries_shed"`
	QueriesInflight int               `json:"queries_inflight"`
	Indexes         int               `json:"indexes"`
	IndexVersions   map[string]uint64 `json:"index_versions,omitempty"`
	IndexMemBytes   int64             `json:"index_mem_bytes"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := ServerStats{
		Plans:           s.adm.Stats(),
		QueriesServed:   s.gate.served.Load(),
		QueriesShed:     s.gate.shed.Load(),
		QueriesInflight: s.gate.inflight(),
		Indexes:         s.reg.Len(),
	}
	if arts := s.reg.List(); len(arts) > 0 {
		st.IndexVersions = make(map[string]uint64, len(arts))
		for _, a := range arts {
			st.IndexVersions[a.Name] = a.Version
			st.IndexMemBytes += a.MemBytes()
		}
	}
	writeJSON(w, http.StatusOK, st)
}

// initMetrics registers the Prometheus-text metric set behind GET /metrics.
// Counters and gauges read the same counters /v1/stats reports; the two
// endpoints are views over one set of numbers, JSON vs text exposition.
func (s *Server) initMetrics() {
	r := obs.NewRegistry()
	r.CounterFunc("hpa_plans_admitted_total", "Plans admitted for execution.",
		func() int64 { return s.adm.admitted.Load() })
	r.CounterFunc("hpa_plans_completed_total", "Plans that finished executing.",
		func() int64 { return s.adm.completed.Load() })
	r.CounterFunc("hpa_plans_shed_total", "Plan submissions shed past the queue budget.",
		func() int64 { return s.adm.shed.Load() })
	r.CounterFunc("hpa_queries_served_total", "Top-k queries admitted through the gate.",
		func() int64 { return s.gate.served.Load() })
	r.CounterFunc("hpa_queries_shed_total", "Top-k queries shed past the in-flight budget.",
		func() int64 { return s.gate.shed.Load() })
	r.GaugeFunc("hpa_plans_running", "Plans executing right now.",
		func() float64 { return float64(s.adm.Stats().Running) })
	r.GaugeFunc("hpa_plan_queue_depth", "Plan submissions waiting in the admission queue.",
		func() float64 { return float64(s.adm.Stats().Queued) })
	r.GaugeFunc("hpa_queries_inflight", "Top-k queries holding a gate slot.",
		func() float64 { return float64(s.gate.inflight()) })
	r.GaugeFunc("hpa_index_count", "Resident index artifacts in the registry.",
		func() float64 { return float64(s.reg.Len()) })
	r.GaugeFunc("hpa_index_mem_bytes", "Estimated resident bytes across all index artifacts.",
		func() float64 {
			var n int64
			for _, a := range s.reg.List() {
				n += a.MemBytes()
			}
			return float64(n)
		})
	r.LabeledGaugeFunc("hpa_index_version", "Current version of each resident index.", "index",
		func() []obs.LabeledValue {
			arts := s.reg.List()
			out := make([]obs.LabeledValue, len(arts))
			for i, a := range arts {
				out[i] = obs.LabeledValue{Label: a.Name, Value: float64(a.Version)}
			}
			return out
		})
	s.queryLat = r.NewHistogram("hpa_query_seconds", "Latency of served top-k queries.", obs.DefLatencyBuckets)
	s.planLat = r.NewHistogram("hpa_plan_seconds", "Execution time of completed plans (excluding queueing).", obs.DefLatencyBuckets)
	s.prom = r
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.prom.WritePrometheus(w)
}

func indexInfo(a *IndexArtifact) IndexInfo {
	return IndexInfo{
		Name:        a.Name,
		Version:     a.Version,
		Docs:        a.Docs(),
		Dim:         a.Dim(),
		HasClusters: a.Clusters != nil,
		BuiltAt:     a.BuiltAt,
	}
}

func (s *Server) handleListIndexes(w http.ResponseWriter, _ *http.Request) {
	arts := s.reg.List()
	out := make([]IndexInfo, len(arts))
	for i, a := range arts {
		out[i] = indexInfo(a)
	}
	writeJSON(w, http.StatusOK, map[string][]IndexInfo{"indexes": out})
}

func (s *Server) handleGetIndex(w http.ResponseWriter, r *http.Request) {
	a, ok := s.reg.Get(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no index %q", r.PathValue("name"))
		return
	}
	writeJSON(w, http.StatusOK, indexInfo(a))
}

func (s *Server) handleDropIndex(w http.ResponseWriter, r *http.Request) {
	if !s.reg.Drop(r.PathValue("name")) {
		writeErr(w, http.StatusNotFound, "no index %q", r.PathValue("name"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleQuery is the hot path: bounded by the query gate (shed fast with
// 429 when past budget), lock-free registry read, resident vectorization,
// top-k against the artifact the request loaded — a concurrent publish
// cannot affect it.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	release, ok := s.gate.tryAcquire()
	if !ok {
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, "query budget exhausted, retry")
		return
	}
	defer release()
	start := time.Now()
	defer func() { s.queryLat.Observe(time.Since(start).Seconds()) }()
	art, ok := s.reg.Get(r.PathValue("name"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no index %q", r.PathValue("name"))
		return
	}
	var req QueryRequest
	if !decodeBody(w, r, "query", &req) {
		return
	}
	if req.K <= 0 {
		req.K = 10
	}
	matches := art.TopK([]byte(req.Text), req.K)
	out := QueryResponse{Index: art.Name, Version: art.Version, Matches: make([]QueryMatch, len(matches))}
	for i, m := range matches {
		qm := QueryMatch{Doc: m.Doc, Score: m.Score}
		if m.Doc < len(art.DocNames) {
			qm.Name = art.DocNames[m.Doc]
		}
		if art.Clusters != nil && m.Doc < len(art.Clusters.Assign) {
			qm.Cluster = art.Clusters.Assign[m.Doc]
		}
		out.Matches[i] = qm
	}
	writeJSON(w, http.StatusOK, out)
}

// resolveCorpus resolves a request's corpus path under the data root,
// rejecting escapes.
func (s *Server) resolveCorpus(p string) (string, error) {
	if s.dataDir == "" {
		return "", fmt.Errorf("server has no data root; plan submission is disabled")
	}
	if p == "" {
		return "", fmt.Errorf("corpus is required")
	}
	full := filepath.Join(s.dataDir, filepath.FromSlash(p))
	rel, err := filepath.Rel(s.dataDir, full)
	if err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("corpus %q escapes the data root", p)
	}
	if fi, err := os.Stat(full); err != nil || !fi.IsDir() {
		return "", fmt.Errorf("corpus %q is not a directory under the data root", p)
	}
	return full, nil
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req PlanRequest
	if !decodeBody(w, r, "plan", &req) {
		return
	}
	if req.Tenant == "" {
		req.Tenant = r.Header.Get("X-HPA-Tenant")
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	corpusDir, err := s.resolveCorpus(req.Corpus)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	cfg, mode, kind, err := planConfig(&req)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Optimize && s.planner == nil {
		writeErr(w, http.StatusBadRequest, "server booted without a cost model; optimize is unavailable")
		return
	}

	// Admission: bounded fair queue over the shared pool/backend.
	queuedAt := time.Now()
	release, err := s.adm.Acquire(r.Context(), req.Tenant)
	if err != nil {
		var over *OverloadError
		if errors.As(err, &over) {
			w.Header().Set("Retry-After", strconv.Itoa(int(over.RetryAfter.Seconds()+0.5)))
			writeErr(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		writeErr(w, http.StatusRequestTimeout, "gave up while queued: %v", err)
		return
	}
	defer release()
	queued := time.Since(queuedAt)

	resp, status := s.runPlan(r, &req, corpusDir, cfg, mode, kind, queued)
	writeJSON(w, status, resp)
}

// planConfig translates the wire request into a workflow config.
func planConfig(req *PlanRequest) (workflow.TFKMConfig, workflow.Mode, dict.Kind, error) {
	mode := workflow.Merged
	switch req.Mode {
	case "", "merged":
	case "discrete":
		mode = workflow.Discrete
	default:
		return workflow.TFKMConfig{}, 0, 0, fmt.Errorf("unknown mode %q (want merged or discrete)", req.Mode)
	}
	var kind dict.Kind // zero value: the library default
	if req.Dict != "" {
		var err error
		if kind, err = dict.ParseKind(req.Dict); err != nil {
			return workflow.TFKMConfig{}, 0, 0, err
		}
	}
	k := req.K
	if k <= 0 {
		k = 8
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	if req.Shards < 0 {
		return workflow.TFKMConfig{}, 0, 0, fmt.Errorf("shards=%d is invalid (want N >= 1, or 0 for auto)", req.Shards)
	}
	cfg := workflow.TFKMConfig{
		Mode:   mode,
		Shards: req.Shards,
		TFIDF:  tfidf.Options{DictKind: kind, Normalize: true},
		KMeans: kmeans.Options{K: k, Seed: seed},
	}
	if req.Publish != "" {
		// Publishing needs the TF/IDF result in memory: force the fused
		// plan (the optimizer path pins fusion instead).
		cfg.Mode = workflow.Merged
	}
	return cfg, mode, kind, nil
}

// runPlan builds, optionally optimizes, executes and (optionally)
// publishes one admitted plan.
func (s *Server) runPlan(r *http.Request, req *PlanRequest, corpusDir string,
	cfg workflow.TFKMConfig, mode workflow.Mode, kind dict.Kind, queued time.Duration) (*PlanResponse, int) {
	resp := &PlanResponse{Tenant: req.Tenant, QueuedMS: float64(queued.Microseconds()) / 1e3}

	src, err := corpus.OpenDir(corpusDir, s.env.Disk)
	if err != nil {
		resp.Explain = err.Error()
		return resp, http.StatusBadRequest
	}

	var plan *workflow.Plan
	if req.Optimize {
		st, err := s.planner.StatsFor(corpusDir, src)
		if err != nil {
			resp.Explain = err.Error()
			return resp, http.StatusInternalServerError
		}
		opts := s.planner.Options()
		opts.Shards = req.Shards
		if req.PinDict {
			opts.Dict = optimizer.PinDict(kind)
		}
		if req.PinMode {
			if mode == workflow.Merged {
				opts.Fusion = optimizer.FusionFuse
			} else {
				opts.Fusion = optimizer.FusionMaterialize
			}
		}
		if req.Publish != "" {
			opts.Fusion = optimizer.FusionFuse
		}
		plan = s.planner.PlanTFKMWith(src, cfg, st, opts)
	} else {
		plan = workflow.TFKMPlan(src, cfg)
	}
	if err := plan.Validate(); err != nil {
		resp.Explain = err.Error()
		return resp, http.StatusBadRequest
	}
	if s.env.Backend != nil {
		workflow.AnnotateBackend(plan, s.env.Backend)
	}
	resp.Explain = plan.Explain()
	if req.ExplainOnly {
		return resp, http.StatusOK
	}

	// Per-run session state over the shared environment: fresh breakdown,
	// request-scoped cancellation, private scratch subdirectory.
	runCtx := s.env.NewRun(r.Context())
	scratch := filepath.Join(s.env.ScratchDir, fmt.Sprintf("run-%d", s.runSeq.Add(1)))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		resp.Explain = err.Error()
		return resp, http.StatusInternalServerError
	}
	defer os.RemoveAll(scratch)
	runCtx.ScratchDir = scratch

	start := time.Now()
	rep, err := workflow.RunTFKMPlan(plan, runCtx)
	resp.RanMS = float64(time.Since(start).Microseconds()) / 1e3
	s.planLat.Observe(time.Since(start).Seconds())
	if err != nil {
		resp.Explain = err.Error()
		return resp, http.StatusInternalServerError
	}
	res := rep.Clustering.Result
	resp.Clusters = res.Counts
	resp.Iterations = res.Iterations
	resp.Inertia = res.Inertia
	resp.Converged = res.Converged
	resp.Docs = len(res.Assign)
	resp.Phases = make(map[string]string)
	for _, ph := range rep.Breakdown.Phases() {
		resp.Phases[ph] = metrics.FormatDuration(rep.Breakdown.Get(ph))
	}
	if tf := rep.Clustering.TFIDF; tf != nil {
		resp.Dim = tf.Dim()
	}

	if req.Publish != "" {
		info, err := s.publish(req.Publish, rep, cfg.TFIDF)
		if err != nil {
			resp.Explain = err.Error()
			return resp, http.StatusInternalServerError
		}
		resp.Published = info
	}
	return resp, http.StatusOK
}

// publish turns a fused run's TF/IDF output into a resident index
// artifact and swaps it into the registry.
func (s *Server) publish(name string, rep *workflow.TFKMReport, opts tfidf.Options) (*IndexInfo, error) {
	tf := rep.Clustering.TFIDF
	if tf == nil {
		return nil, fmt.Errorf("serve: publish %q: plan did not keep the TF/IDF result in memory (run fused)", name)
	}
	vocab, err := tfidf.NewQueryVocab(tf, opts)
	if err != nil {
		return nil, err
	}
	ix, err := simsearch.Build(tf.Vectors, tf.Dim(), s.env.Pool)
	if err != nil {
		return nil, err
	}
	art, err := s.reg.Publish(&IndexArtifact{
		Name:     name,
		Vocab:    vocab,
		Index:    ix,
		Clusters: rep.Clustering.Result,
		DocNames: tf.DocNames,
	})
	if err != nil {
		return nil, err
	}
	info := indexInfo(art)
	return &info, nil
}
