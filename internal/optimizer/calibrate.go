package optimizer

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"time"

	"hpa/internal/arff"
	"hpa/internal/corpus"
	"hpa/internal/dict"
	"hpa/internal/kmeans"
	"hpa/internal/par"
	"hpa/internal/sparse"
	"hpa/internal/text"
	"hpa/internal/workflow"
)

// CalibrationOptions bounds the calibration microbenchmarks. The zero
// value selects defaults that complete in roughly a second; Quick shrinks
// them for tests and examples where a coarse model is enough.
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
	// ARFFDocs and ARFFTermsPerDoc size the synthetic matrix for the
	// write/read bandwidth measurement (default 512 docs × 48 terms).
	ARFFDocs, ARFFTermsPerDoc int
	// ShardTasks is the number of trivial partition tasks timed for the
	// per-task overhead measurement (default 256).
	ShardTasks int
	// KMeansDocs and KMeansTermsPerDoc size the synthetic sparse matrix
	// for the K-Means assignment-kernel measurement (default 512 docs × 32
	// terms).
	KMeansDocs, KMeansTermsPerDoc int
	// RPCTasks is the number of loopback worker calls timed for the
	// per-task ship-cost measurement (default 64).
	RPCTasks int
	// ScratchDir hosts the temporary ARFF file (default os.TempDir()).
	ScratchDir string
}

// Quick returns options with every budget shrunk (~50 ms total): coarse
// but sufficient for tests and interactive walkthroughs.
func Quick() CalibrationOptions {
	return CalibrationOptions{
		DictCardinalities: []int{1 << 9, 1 << 12},
		DictPasses:        1,
		TokenizeBytes:     1 << 17,
		ARFFDocs:          64,
		ARFFTermsPerDoc:   32,
		ShardTasks:        64,
		KMeansDocs:        128,
		KMeansTermsPerDoc: 16,
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
	if o.ARFFDocs <= 0 {
		o.ARFFDocs = 512
	}
	if o.ARFFTermsPerDoc <= 0 {
		o.ARFFTermsPerDoc = 48
	}
	if o.ShardTasks <= 0 {
		o.ShardTasks = 256
	}
	if o.KMeansDocs <= 0 {
		o.KMeansDocs = 512
	}
	if o.KMeansTermsPerDoc <= 0 {
		o.KMeansTermsPerDoc = 32
	}
	if o.RPCTasks <= 0 {
		o.RPCTasks = 64
	}
	if o.ScratchDir == "" {
		o.ScratchDir = os.TempDir()
	}
}

// Calibrate measures this machine and returns a fresh CostModel: the
// microbenchmark suite behind the paper's position that the right operator
// implementation is a property of the hardware and the phase, not of the
// code. Runtime is bounded by the options (about a second at defaults).
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
	w, r, err := calibrateARFF(opts)
	if err != nil {
		return nil, err
	}
	m.ARFFWriteBPS, m.ARFFReadBPS = w, r
	m.ShardTaskNS = calibrateShardOverhead(opts.ShardTasks)
	m.KMeansAssignNS = calibrateKMeansAssign(opts)
	m.RPCShipNS = calibrateRPCShip(opts.RPCTasks)
	return m, nil
}

// xorshift64 advances the deterministic PRNG the calibration inputs are
// drawn from (calibration must be repeatable bit-for-bit across runs).
func xorshift64(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// calWords synthesizes n distinct pseudo-random words.
func calWords(n int) []string {
	words := make([]string, n)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range words {
		x = xorshift64(x)
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
	tokens := 0
	start := time.Now()
	for processed < budget {
		for _, doc := range c.Docs {
			tk.Tokens(doc, func([]byte) { tokens++ })
			processed += int64(len(doc))
		}
	}
	_ = tokens
	return float64(time.Since(start).Nanoseconds()) / float64(processed)
}

// calibrateARFF measures the sequential write and read bandwidth of the
// materialization boundary on a synthetic sparse matrix, in bytes/sec.
func calibrateARFF(opts CalibrationOptions) (writeBPS, readBPS float64, err error) {
	dim := opts.ARFFTermsPerDoc * 16
	header := arff.Header{Relation: "calibration", Attributes: make([]string, dim)}
	for i := range header.Attributes {
		header.Attributes[i] = fmt.Sprintf("t%05d", i)
	}
	rows := make([]sparse.Vector, opts.ARFFDocs)
	var b sparse.Builder
	x := uint64(1)
	for i := range rows {
		b.Reset()
		for j := 0; j < opts.ARFFTermsPerDoc; j++ {
			x = xorshift64(x)
			b.Add(uint32(x)%uint32(dim), float64(x%1000)/997.0+0.001)
		}
		b.Build(&rows[i])
	}
	path := filepath.Join(opts.ScratchDir, fmt.Sprintf("hpa-calibrate-%d.arff", os.Getpid()))
	defer os.Remove(path)

	start := time.Now()
	n, err := arff.WriteFile(path, header, rows, nil)
	if err != nil {
		return 0, 0, fmt.Errorf("optimizer: calibrate arff write: %w", err)
	}
	writeBPS = float64(n) / time.Since(start).Seconds()

	start = time.Now()
	if _, _, err = arff.ReadFile(path, nil); err != nil {
		return 0, 0, fmt.Errorf("optimizer: calibrate arff read: %w", err)
	}
	readBPS = float64(n) / time.Since(start).Seconds()
	return writeBPS, readBPS, nil
}

// Trivial partitioned operators for the shard-overhead measurement: a
// splitter emitting shard indices, one map kernel passing them through, and
// a reduction counting the gathered shards — the minimal plan exercising
// every scheduling path a real partition task takes.
type calSplit struct{ n int }

func (s *calSplit) Name() string           { return "cal-split" }
func (s *calSplit) Inputs() []reflect.Type { return nil }
func (s *calSplit) Output() reflect.Type   { return reflect.TypeOf(0) }
func (s *calSplit) PartitionCount() int    { return s.n }
func (s *calSplit) Split(_ *workflow.Context, _ []workflow.Value, idx, _ int) (workflow.Value, error) {
	return idx, nil
}

type calMap struct{}

func (*calMap) Name() string           { return "cal-map" }
func (*calMap) Inputs() []reflect.Type { return []reflect.Type{reflect.TypeOf(0)} }
func (*calMap) Output() reflect.Type   { return reflect.TypeOf(0) }
func (*calMap) RunPartition(_ *workflow.Context, ins []workflow.Value, _, _ int) (workflow.Value, error) {
	return ins[0], nil
}

type calReduce struct{}

func (*calReduce) Name() string { return "cal-reduce" }
func (*calReduce) Inputs() []reflect.Type {
	return []reflect.Type{reflect.TypeOf((*workflow.Partitions)(nil))}
}
func (*calReduce) Output() reflect.Type { return reflect.TypeOf(0) }
func (*calReduce) Run(_ *workflow.Context, in workflow.Value) (workflow.Value, error) {
	return len(in.(*workflow.Partitions).Parts), nil
}

// calKMeansMatrix synthesizes the (deterministic) sparse matrix the
// assignment-kernel calibration runs over.
func calKMeansMatrix(opts CalibrationOptions) ([]sparse.Vector, int) {
	docs := opts.KMeansDocs
	nnz := opts.KMeansTermsPerDoc
	dim := nnz * 16
	vecs := make([]sparse.Vector, docs)
	var b sparse.Builder
	x := uint64(0xfeedface)
	for i := range vecs {
		b.Reset()
		for j := 0; j < nnz; j++ {
			x = xorshift64(x)
			b.Add(uint32(x)%uint32(dim), float64(x%1000)/997.0+0.001)
		}
		b.Build(&vecs[i])
	}
	return vecs, dim
}

// calibrateKMeansAssign measures whole K-Means iterations — the
// assignment kernel (kmeans.AssignShard) and the centroid update
// (kmeans.EndIteration, which from the second pass on recomputes only the
// clusters whose members changed, as a real loop's does) — on a
// synthetic sparse matrix and returns their
// cost per (non-zero component × cluster) in nanoseconds, the unit the
// iterative-stage estimate scales by iterations × documents × mean
// non-zeros × k. It runs the real kernels on one worker, so it prices
// exactly the loop the executor dispatches.
func calibrateKMeansAssign(opts CalibrationOptions) float64 {
	const k = 8
	vecs, dim := calKMeansMatrix(opts)
	pool := par.NewPool(1)
	defer pool.Close()
	c, err := kmeans.New(vecs, dim, pool, kmeans.Options{K: k, Seed: 1})
	if err != nil {
		// Cannot happen with the synthetic matrix; conservative fallback.
		return 1.5
	}
	accs := []*kmeans.Accum{c.NewAccum()}
	const passes = 3
	start := time.Now()
	for p := 0; p < passes; p++ {
		accs[0].Reset()
		c.AssignShard(0, len(vecs), accs[0])
		c.EndIteration(accs)
	}
	var ops int64
	for i := range vecs {
		ops += int64(len(vecs[i].Idx)) * k
	}
	ops *= passes
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

// calibrateShardOverhead times a plan of empty partition tasks (split ->
// map -> gathered reduce) and attributes the wall time to the tasks evenly:
// the fixed price every shard pays for existing, which the shard-count
// decision weighs against the parallelism a shard buys.
func calibrateShardOverhead(shards int) float64 {
	pool := par.NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	plan := workflow.NewPlan().
		Add("split", &calSplit{n: shards}).
		Add("map", &calMap{}).
		Add("reduce", &calReduce{}).
		Connect("split", "map").
		Connect("map", "reduce")
	ctx := workflow.NewContext(pool)
	start := time.Now()
	if _, err := plan.Run(ctx); err != nil {
		// Cannot happen with the trivial operators; fall back to a
		// conservative constant rather than failing calibration.
		return 20_000
	}
	// split + map tasks per shard plus the one reduce task.
	tasks := 2*shards + 1
	return float64(time.Since(start).Nanoseconds()) / float64(tasks)
}

var registerEchoOnce sync.Once

// calibrateRPCShip measures the per-task cost of shipping work to an RPC
// worker: the flat frame protocol over an in-process pipe to a real worker
// loop, driven through the client RPCBackend tasks go through — frame
// encode, round trip, reply decode — with a payload of a few KiB, the
// order of a small shard descriptor. That is the path real tasks take
// minus the physical network, so the measurement is a machine-local lower
// bound on the ship cost — which is exactly what the shard-count decision
// needs: if sharding does not pay at pipe cost, it certainly does not pay
// over a network.
func calibrateRPCShip(tasks int) float64 {
	registerEchoOnce.Do(func() {
		workflow.RegisterKernel("optimizer.echo", func(args []byte) ([]byte, error) {
			return args, nil
		})
	})
	coord, work := net.Pipe()
	go workflow.ServeWorkerConn(work)
	backend := workflow.NewRPCBackendConns(coord)
	defer backend.Close()

	payload := make([]byte, 4096)
	x := uint64(0xabcdef)
	for i := range payload {
		x = xorshift64(x)
		payload[i] = byte(x)
	}
	task := &workflow.Task{Remote: &workflow.RemoteTask{
		Op:   "optimizer.echo",
		Args: func(dst []byte) []byte { return append(dst, payload...) },
		Absorb: func(reply []byte) (workflow.Value, error) {
			if len(reply) != len(payload) {
				return nil, fmt.Errorf("echo returned %d bytes of %d", len(reply), len(payload))
			}
			return nil, nil
		},
	}}
	start := time.Now()
	for i := 0; i < tasks; i++ {
		if _, err := backend.RunTask(nil, task); err != nil {
			return 50_000 // pipe failure; conservative fallback
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(tasks)
}
