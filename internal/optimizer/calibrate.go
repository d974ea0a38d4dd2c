package optimizer

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"time"

	"hpa/internal/corpus"
	"hpa/internal/dict"
	"hpa/internal/kmeans"
	"hpa/internal/obs"
	"hpa/internal/text"
	"hpa/internal/tfidf"
	"hpa/internal/workflow"
)

// CalibrationOptions bounds the two calibration probes that a plan
// recording cannot replace (the dictionary cost curves and the tokenizer
// throughput). The zero value selects defaults that complete in under a
// second; Quick shrinks them for tests and examples where a coarse model
// is enough. The plan recordings run at a fixed scale either way.
type CalibrationOptions struct {
	// Force makes LoadOrCalibrate ignore a cached model and re-measure.
	Force bool
	// DictCardinalities are the dictionary sizes to measure insert/lookup
	// costs at (default 1K, 8K, 64K — spanning per-document tables to
	// global vocabularies).
	DictCardinalities []int
	// DictPasses is the number of lookup passes per point (default 3).
	DictPasses int
	// TokenizeBytes is the volume of synthetic text to tokenize for the
	// throughput measurement (default 2 MiB).
	TokenizeBytes int64
}

// Quick returns options with the probe budgets shrunk (~200 ms total,
// most of it the two plan recordings): coarse but sufficient for tests and
// interactive walkthroughs.
func Quick() CalibrationOptions {
	return CalibrationOptions{
		DictCardinalities: []int{1 << 9, 1 << 12},
		DictPasses:        1,
		TokenizeBytes:     1 << 17,
	}
}

func (o *CalibrationOptions) defaults() {
	if len(o.DictCardinalities) == 0 {
		o.DictCardinalities = []int{1 << 10, 1 << 13, 1 << 16}
	}
	if o.DictPasses <= 0 {
		o.DictPasses = 3
	}
	if o.TokenizeBytes <= 0 {
		o.TokenizeBytes = 2 << 20
	}
}

// Calibrate measures this machine and returns a fresh CostModel, behind
// the paper's position that the right operator implementation is a
// property of the hardware and the phase, not of the code. The dictionary
// curves and the tokenizer rate come from probes; every plan-level term
// (ARFF bandwidths, task overhead, K-Means rate, ship cost) is fitted to
// recordings of the workflow itself (recordPlanTerms). Runtime is bounded
// by the options (under a second at defaults).
func Calibrate(opts CalibrationOptions) (*CostModel, error) {
	opts.defaults()
	m := &CostModel{
		Version: ModelVersion,
		Procs:   runtime.GOMAXPROCS(0),
		Dicts:   make(map[string]DictCost, len(dict.Kinds())),
	}
	for _, kind := range dict.Kinds() {
		curve := DictCost{}
		for _, card := range opts.DictCardinalities {
			curve.Points = append(curve.Points, calibrateDictPoint(kind, card, opts.DictPasses))
		}
		m.Dicts[kind.String()] = curve
	}
	m.TokenizeNSPerByte = calibrateTokenizer(opts.TokenizeBytes)
	if err := recordPlanTerms(m); err != nil {
		return nil, err
	}
	return m, nil
}

// calWords synthesizes n distinct pseudo-random words from a xorshift64
// sequence (calibration must be repeatable bit-for-bit across runs).
func calWords(n int) []string {
	words := make([]string, n)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range words {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		words[i] = fmt.Sprintf("w%x", x&0xffffffffff)
	}
	return words
}

// calibrateDictPoint measures one (kind, cardinality) operating point:
// amortized Ref cost while growing an empty dictionary to card keys, and
// Get cost over the full key set afterwards.
func calibrateDictPoint(kind dict.Kind, card, passes int) DictPoint {
	words := calWords(card)
	d := dict.New[uint32](kind, dict.Options{})
	start := time.Now()
	for _, w := range words {
		*d.Ref(w)++
	}
	insertNS := float64(time.Since(start).Nanoseconds()) / float64(card)

	var sink uint32
	start = time.Now()
	for p := 0; p < passes; p++ {
		for _, w := range words {
			if v, ok := d.Get(w); ok {
				sink += v
			}
		}
	}
	lookupNS := float64(time.Since(start).Nanoseconds()) / float64(card*passes)
	_ = sink
	return DictPoint{Cardinality: card, InsertNS: insertNS, LookupNS: lookupNS}
}

// calibrateTokenizer measures tokenizer cost per input byte over synthetic
// Zipfian text (the same generator the corpora use, so token length and
// word-boundary statistics match real runs).
func calibrateTokenizer(budget int64) float64 {
	c := corpus.Generate(corpus.Mix().Scaled(0.002), nil)
	tk := &text.Tokenizer{}
	var processed int64
	start := time.Now()
	for processed < budget {
		for _, doc := range c.Docs {
			tk.Tokens(doc, func([]byte) {})
			processed += int64(len(doc))
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(processed)
}

// recordScale is the fixed scale of corpus.Calibration() the plan
// recordings run over (Mix@0.005, 117 documents): large enough that every
// task does real work, small enough that generating it and both recordings
// take under 0.2 s on a 2-proc box.
const recordScale = 0.1

// recordConfig is the recorded plan: discrete, so the ARFF pair runs, on 4
// pinned shards, K = 8, seed 1.
var recordConfig = workflow.TFKMConfig{
	Mode:   workflow.Discrete,
	Shards: 4,
	TFIDF:  tfidf.Options{Normalize: true},
	KMeans: kmeans.Options{K: 8, Seed: 1},
}

// recordPlanTerms records the TF/IDF→K-Means plan twice — in process, and
// on a worker served over an in-process pipe, closed before it returns —
// and fits the model's plan-level terms to the two traces (fitPlanTerms).
func recordPlanTerms(m *CostModel) error {
	src := corpus.Generate(corpus.Calibration().Scaled(recordScale), nil).Source(nil)
	var nnz int64
	local, _, err := workflow.RecordTFKM(src, recordConfig, nil, func(_ workflow.Operator, out workflow.Value) {
		if r, ok := out.(*tfidf.Result); ok {
			for i := range r.Vectors {
				nnz += int64(len(r.Vectors[i].Idx))
			}
		}
	})
	if err != nil {
		return fmt.Errorf("optimizer: calibrate: record plan: %w", err)
	}
	coord, work := net.Pipe()
	served := make(chan struct{})
	go func() {
		workflow.ServeWorkerConn(work)
		close(served)
	}()
	backend := workflow.NewRPCBackendConns(coord)
	remote, _, err := workflow.RecordTFKM(src, recordConfig, backend, nil)
	backend.Close()
	<-served
	if err != nil {
		return fmt.Errorf("optimizer: calibrate: record plan on a pipe worker: %w", err)
	}
	return fitPlanTerms(m, local, remote, nnz, recordConfig.KMeans.K)
}

// fitPlanTerms sets the plan-level terms of m — ARFFWriteBPS, ARFFReadBPS,
// ShardTaskNS, KMeansAssignNS and RPCShipNS, each from the spans its
// CostModel field names — from two serial recordings of one plan, local
// in process and remote on a worker, whose K-Means loop runs at k over
// nnz non-zero components. A term no span prices is an error.
func fitPlanTerms(m *CostModel, local, remote *obs.Trace, nnz int64, k int) error {
	spans := local.Spans
	if len(spans) < 2 {
		return fmt.Errorf("optimizer: calibrate: %d spans recorded", len(spans))
	}
	first, last := spans[0].Start, spans[0].End
	var busy, iterTime time.Duration
	waves := 0
	for i := range spans {
		s := &spans[i]
		if s.Start.Before(first) {
			first = s.Start
		}
		if s.End.After(last) {
			last = s.End
		}
		busy += s.Dur()
		switch {
		case s.Node == "materialize-arff":
			m.ARFFWriteBPS = float64(s.IOBytes) / s.Dur().Seconds()
		case s.Node == "load-arff":
			m.ARFFReadBPS = float64(s.IOBytes) / s.Dur().Seconds()
		case (s.Kind == "loop-shard" || s.Kind == "loop-end") && s.Iter >= k-1:
			iterTime += s.Dur()
			waves = max(waves, s.Iter+1)
		}
	}
	m.ShardTaskNS = float64(last.Sub(first)-busy) / float64(len(spans)-1)
	m.KMeansAssignNS = float64(iterTime) / (float64(waves-(k-1)) * float64(nnz) * float64(k))
	var ship time.Duration
	shipped := 0
	for i := range remote.Spans {
		if s := &remote.Spans[i]; s.Worker != "" {
			ship += s.Dur() - s.WorkerRun
			shipped++
		}
	}
	m.RPCShipNS = float64(ship) / float64(shipped)
	// A term no span priced comes out 0/0 (NaN), x/0 (+Inf) or 0.
	for _, v := range []float64{m.ARFFWriteBPS, m.ARFFReadBPS, m.ShardTaskNS, m.KMeansAssignNS, m.RPCShipNS} {
		if !(v > 0) || math.IsInf(v, 1) {
			return fmt.Errorf("optimizer: calibrate: implausible fit: arff write %v B/s, read %v B/s, task %v ns, k-means %v ns, ship %v ns",
				m.ARFFWriteBPS, m.ARFFReadBPS, m.ShardTaskNS, m.KMeansAssignNS, m.RPCShipNS)
		}
	}
	return nil
}
