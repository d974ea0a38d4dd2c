package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hpa/internal/corpus"
	"hpa/internal/dict"
	"hpa/internal/kmeans"
	"hpa/internal/optimizer"
	"hpa/internal/simsearch"
	"hpa/internal/sparse"
	"hpa/internal/tfidf"
	"hpa/internal/workflow"
)

// testServerModel is a fixed cost model (no calibration in tests): hash
// dictionaries cheap, fusion attractive.
func testServerModel() *optimizer.CostModel {
	return &optimizer.CostModel{
		Version: optimizer.ModelVersion,
		Procs:   4,
		Dicts: map[string]optimizer.DictCost{
			dict.Tree.String(): {Points: []optimizer.DictPoint{
				{Cardinality: 1 << 10, InsertNS: 200, LookupNS: 120},
				{Cardinality: 1 << 16, InsertNS: 600, LookupNS: 360},
			}},
			dict.Hash.String(): {Points: []optimizer.DictPoint{
				{Cardinality: 1 << 10, InsertNS: 80, LookupNS: 30},
				{Cardinality: 1 << 16, InsertNS: 120, LookupNS: 40},
			}},
			dict.NodeTree.String(): {Points: []optimizer.DictPoint{
				{Cardinality: 1 << 10, InsertNS: 300, LookupNS: 200},
				{Cardinality: 1 << 16, InsertNS: 900, LookupNS: 500},
			}},
		},
		TokenizeNSPerByte: 5,
		ARFFWriteBPS:      150e6,
		ARFFReadBPS:       150e6,
		ShardTaskNS:       20_000,
		KMeansAssignNS:    2,
	}
}

type testServer struct {
	srv  *Server
	http *httptest.Server
	data string
}

// newTestServer boots a server over a temp data root holding one written
// corpus named "abstracts".
func newTestServer(t *testing.T, cfg Config) *testServer {
	t.Helper()
	data := t.TempDir()
	c := corpus.Generate(corpus.Mix().Scaled(0.002), nil)
	if err := c.WriteDir(filepath.Join(data, "abstracts"), 0); err != nil {
		t.Fatal(err)
	}
	env := workflow.NewEnv(servePool(t))
	env.ScratchDir = t.TempDir()
	cfg.Env = env
	cfg.DataDir = data
	if cfg.Planner == nil {
		cfg.Planner = optimizer.NewPlanner(testServerModel(), optimizer.Options{Procs: 2})
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return &testServer{srv: srv, http: hs, data: data}
}

func (ts *testServer) postJSON(t *testing.T, path string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.http.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func decode[T any](t *testing.T, raw []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
	return v
}

func TestServerHealthAndStats(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.http.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.http.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Indexes != 0 || st.Plans.Admitted != 0 {
		t.Fatalf("fresh stats: %+v", st)
	}
}

// TestServerPlanPublishQueryBitIdentical is the end-to-end contract: a plan
// submitted over HTTP that publishes an index must answer queries
// bit-identically to the batch path run in-process with the same
// configuration.
func TestServerPlanPublishQueryBitIdentical(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, raw := ts.postJSON(t, "/v1/plans", PlanRequest{
		Corpus:  "abstracts",
		K:       4,
		Seed:    7,
		Publish: "abstracts",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan: %d %s", resp.StatusCode, raw)
	}
	pr := decode[PlanResponse](t, raw)
	if pr.Published == nil || pr.Published.Version != 1 || pr.Published.Docs == 0 {
		t.Fatalf("publish info: %+v", pr.Published)
	}
	if pr.Docs == 0 || pr.Iterations == 0 {
		t.Fatalf("plan response missing run outputs: %+v", pr)
	}

	// Batch reference: same config through the plan engine directly.
	batch := runBatch(t, ts, workflow.TFKMConfig{
		Mode:   workflow.Merged,
		TFIDF:  tfidf.Options{DictKind: dict.Tree, Normalize: true},
		KMeans: kmeans.Options{K: 4, Seed: 7},
	})
	if got, want := pr.Inertia, batch.Clustering.Result.Inertia; got != want {
		t.Fatalf("served inertia %v != batch %v", got, want)
	}

	// Served queries vs brute force over the batch vectors — bit equality
	// on docs and scores.
	vocab, err := tfidf.NewQueryVocab(batch.Clustering.TFIDF, tfidf.Options{DictKind: dict.Tree, Normalize: true})
	if err != nil {
		t.Fatal(err)
	}
	vec := vocab.NewVectorizer()
	for _, q := range []string{"the analysis of data", "new methods for the study", "results"} {
		resp, raw := ts.postJSON(t, "/v1/indexes/abstracts/query", QueryRequest{Text: q, K: 5})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query: %d %s", resp.StatusCode, raw)
		}
		qr := decode[QueryResponse](t, raw)
		var qv sparse.Vector
		vec.Vectorize([]byte(q), &qv)
		want := simsearch.BruteForceTopK(batch.Clustering.TFIDF.Vectors, &qv, 5)
		if len(qr.Matches) != len(want) {
			t.Fatalf("query %q: %d matches, want %d", q, len(qr.Matches), len(want))
		}
		for i, m := range want {
			got := qr.Matches[i]
			if got.Doc != m.Doc || got.Score != m.Score {
				t.Fatalf("query %q match %d: served (%d, %v) != batch (%d, %v)",
					q, i, got.Doc, got.Score, m.Doc, m.Score)
			}
			if got.Name != batch.Clustering.TFIDF.DocNames[m.Doc] {
				t.Fatalf("query %q match %d: name %q", q, i, got.Name)
			}
		}
	}

	// The registry listing must report the published index.
	resp2, err := http.Get(ts.http.URL + "/v1/indexes/abstracts")
	if err != nil {
		t.Fatal(err)
	}
	var info IndexInfo
	if err := json.NewDecoder(resp2.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if info.Version != 1 || info.Docs != pr.Published.Docs || !info.HasClusters {
		t.Fatalf("index info: %+v", info)
	}
}

func runBatch(t *testing.T, ts *testServer, cfg workflow.TFKMConfig) *workflow.TFKMReport {
	t.Helper()
	src, err := corpus.OpenDir(filepath.Join(ts.data, "abstracts"), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := ts.srv.env.NewRun(context.Background())
	ctx.ScratchDir = t.TempDir()
	rep, err := workflow.RunTFKMPlan(workflow.TFKMPlan(src, cfg), ctx)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestServerPlanExplainOnly(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, raw := ts.postJSON(t, "/v1/plans", PlanRequest{Corpus: "abstracts", ExplainOnly: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: %d %s", resp.StatusCode, raw)
	}
	pr := decode[PlanResponse](t, raw)
	if pr.Explain == "" || pr.Docs != 0 {
		t.Fatalf("explain-only ran the plan: %+v", pr)
	}
	if ts.srv.Registry().Len() != 0 {
		t.Fatal("explain-only published an index")
	}
}

func TestServerPlanOptimizePins(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, raw := ts.postJSON(t, "/v1/plans", PlanRequest{
		Corpus:      "abstracts",
		Optimize:    true,
		Dict:        "map",
		PinDict:     true,
		Mode:        "discrete",
		PinMode:     true,
		ExplainOnly: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize: %d %s", resp.StatusCode, raw)
	}
	pr := decode[PlanResponse](t, raw)
	for _, want := range []string{"pinned by explicit override", "fusion: kept materialized"} {
		if !bytes.Contains([]byte(pr.Explain), []byte(want)) {
			t.Fatalf("explain missing %q:\n%s", want, pr.Explain)
		}
	}
}

func TestServerPlanRejectsBadRequests(t *testing.T) {
	ts := newTestServer(t, Config{})
	cases := []PlanRequest{
		{},                                   // no corpus
		{Corpus: "../escape"},                // escapes data root
		{Corpus: "missing"},                  // not a directory
		{Corpus: "abstracts", Mode: "turbo"}, // unknown mode
		{Corpus: "abstracts", Dict: "radix-trie"}, // unknown dict
		{Corpus: "abstracts", Shards: -1},         // no negative shard count
	}
	for _, req := range cases {
		resp, raw := ts.postJSON(t, "/v1/plans", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("request %+v: status %d (%s), want 400", req, resp.StatusCode, raw)
		}
	}
}

// TestServerRejectsOversizedBodies: a plan or query body past
// MaxBodyBytes is answered 413 without being decoded.
func TestServerRejectsOversizedBodies(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, raw := ts.postJSON(t, "/v1/plans", PlanRequest{Corpus: "abstracts", K: 2, Publish: "abstracts"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("publish: %d %s", resp.StatusCode, raw)
	}
	huge := strings.Repeat("x", MaxBodyBytes)
	for path, body := range map[string]any{
		"/v1/plans":                   PlanRequest{Corpus: huge},
		"/v1/indexes/abstracts/query": QueryRequest{Text: huge},
	} {
		resp, raw := ts.postJSON(t, path, body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body: status %d (%s), want 413", path, MaxBodyBytes, resp.StatusCode, raw)
		}
	}
}

func TestServerQueryErrors(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, _ := ts.postJSON(t, "/v1/indexes/none/query", QueryRequest{Text: "x"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("query of absent index: %d", resp.StatusCode)
	}
	r2, err := http.Post(ts.http.URL+"/v1/indexes/none/query", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	// Absent index is checked before the body, so this is still a 404; a
	// bad body against a live index is exercised in the load test setup.
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("bad body: %d", r2.StatusCode)
	}
}

// TestServerPlanShedding pins the admission budget to one running plus one
// queued plan, fills both from the test, and asserts the next submission is
// shed with 429 and a Retry-After header — without waiting.
func TestServerPlanShedding(t *testing.T) {
	ts := newTestServer(t, Config{MaxConcurrentPlans: 1, MaxQueuedPlans: 1})

	// Occupy the run slot and the queue slot directly on the controller.
	release, err := ts.srv.adm.Acquire(context.Background(), "hog")
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() {
		rel, err := ts.srv.adm.Acquire(context.Background(), "hog")
		if err == nil {
			rel()
		}
		queued <- err
	}()
	for i := 0; ts.srv.adm.Stats().Queued < 1; i++ {
		if i > 1000 {
			t.Fatal("queue slot never filled")
		}
		time.Sleep(time.Millisecond)
	}

	resp, raw := ts.postJSON(t, "/v1/plans", PlanRequest{Corpus: "abstracts", Tenant: "victim"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("expected 429, got %d (%s)", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	var ae apiError
	if err := json.Unmarshal(raw, &ae); err != nil || ae.Error == "" {
		t.Fatalf("shed body: %s", raw)
	}

	release()
	if err := <-queued; err != nil {
		t.Fatalf("queued request failed after release: %v", err)
	}

	// With capacity back, the same submission succeeds.
	resp, raw = ts.postJSON(t, "/v1/plans", PlanRequest{Corpus: "abstracts", Tenant: "victim", ExplainOnly: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-shed submission: %d (%s)", resp.StatusCode, raw)
	}
	st := ts.srv.adm.Stats()
	if st.Shed != 1 {
		t.Fatalf("shed counter = %d, want 1", st.Shed)
	}
}
