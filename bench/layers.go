package main

import (
	"fmt"
	"strings"
	"time"

	"hpa/internal/dict"
	"hpa/internal/kmeans"
	"hpa/internal/par"
	"hpa/internal/pario"
	"hpa/internal/sparse"
	"hpa/internal/text"
	"hpa/internal/tfidf"
)

// perLayer lists every per-layer metric with its unit, in the order
// BENCHMARK.json declares them, and the workloads it applies to by letter:
// t text-e2e, l cluster-local, r cluster-rpc, s serve-query. A traced run
// must measure exactly the metrics that apply to its workload (checkLayers);
// the contract's last line still carries every name, the others as 0.
var perLayer = []struct{ name, unit, on string }{
	{"pario.read_ms", "ms", "tlrs"},
	{"pario.read_mb", "MB", "tlrs"},
	{"text.tokenize_ms", "ms", "tlrs"},
	{"text.tokens", "count", "tlrs"},
	{"text.tokenize_ns_per_token", "ns", "tlrs"},
	{"dict.insert_ns", "ns", "tlrs"},
	{"dict.lookup_ns", "ns", "tlrs"},
	{"dict.footprint_mb", "MB", "tlrs"},
	{"dict.distinct_words", "count", "tlrs"},
	{"dict.hash.insert_ns", "ns", "tlrs"},
	{"dict.hash.lookup_ns", "ns", "tlrs"},
	{"tfidf.count_ms", "ms", "tlrs"},
	{"tfidf.merge_ms", "ms", "tlrs"},
	{"tfidf.transform_ms", "ms", "tlrs"},
	{"tfidf.terms", "count", "tlrs"},
	{"tfidf.nnz", "count", "tlrs"},
	{"tfidf.vectorize_us", "us", "tlrs"},
	{"kmeans.seed_ms", "ms", "tlrs"},
	{"kmeans.assign_ms", "ms", "tlrs"},
	{"kmeans.update_ms", "ms", "tlrs"},
	{"kmeans.iterations", "count", "tlrs"},
	{"kmeans.skip_rate", "ratio", "tlrs"},
	{"kmeans.dist_evals", "count", "tlrs"},
	{"kmeans.single_thread_ms", "ms", "tlrs"},
	{"kmeans.parallel_speedup", "ratio", "tlrs"},
	{"flatwire.accum_encode_ns", "ns", "tlrs"},
	{"flatwire.accum_decode_ns", "ns", "tlrs"},
	{"flatwire.accum_bytes", "bytes", "tlrs"},
	{"wire.req_mb_per_op", "MB", "r"},
	{"wire.reply_mb_per_op", "MB", "r"},
	{"wire.calls_per_op", "count", "r"},
	{"workflow.ship_ns_per_task", "ns", "r"},
	{"wire.rpc_over_local_ratio", "ratio", "r"},
	{"workflow.phase.input-wc_ms", "ms", "t"},
	{"workflow.phase.transform_ms", "ms", "t"},
	{"workflow.phase.kmeans_ms", "ms", "tlr"},
	{"workflow.phase.output_ms", "ms", "t"},
	{"workflow.output_ms", "ms", "t"},
	{"workflow.output_mb", "MB", "t"},
	{"workflow.loop_overhead_ms", "ms", "tlr"},
	{"workflow.unattributed_share", "ratio", "tlr"},
	{"serve.http.p50_us", "us", "s"},
	{"serve.http.p99_us", "us", "s"},
	{"serve.http.short_p50_us", "us", "s"},
	{"serve.http.long_p50_us", "us", "s"},
	{"serve.handler_us", "us", "s"},
	{"serve.topk_us", "us", "s"},
	{"simsearch.topk_us", "us", "s"},
	{"serve.json_us", "us", "s"},
	{"serve.net_share", "ratio", "s"},
	{"serve.rejected", "count", "s"},
	{"simsearch.postings_per_query", "count", "s"},
	{"simsearch.index_mb", "MB", "s"},
	{"simsearch.build_ms", "ms", "s"},
	{"proc.alloc_mb_per_op", "MB", "tlrs"},
	{"proc.mallocs_per_op", "count", "tlrs"},
	{"proc.gc_cpu_share", "ratio", "tlrs"},
	{"proc.peak_rss_mb", "MB", "tlrs"},
	{"e2e.op_samples", "count", "tlrs"},
	{"e2e.op_wall_tail_ms", "ms", "tlrs"},
	{"trace.overhead_ratio", "ratio", "tlrs"},
}

// workloadLetter is the letter perLayer's on column uses for a workload.
var workloadLetter = map[string]string{"text-e2e": "t", "cluster-local": "l", "cluster-rpc": "r", "serve-query": "s"}

// set stores a per-layer metric, taking the unit from the table so a typo
// in a name fails loudly instead of inventing a metric.
func (m metricSet) set(name string, v float64) {
	for _, p := range perLayer {
		if p.name == name {
			m[name] = metric{v, p.unit}
			return
		}
	}
	panic("bench: no per-layer metric named " + name)
}

// checkLayers reports the first per-layer metric that applies to the
// workload and was not measured, or was measured and does not apply: a
// stage that silently measured nothing must not read as a perfect 0.
func checkLayers(workload string, m metricSet) error {
	letter := workloadLetter[workload]
	for _, p := range perLayer {
		_, measured := m[p.name]
		if applies := strings.Contains(p.on, letter); applies != measured {
			return fmt.Errorf("%s: per-layer metric %s: applies %v, measured %v", workload, p.name, applies, measured)
		}
	}
	return nil
}

// padded returns m with every per-layer metric that does not apply to the
// workload added as 0: the contract's last line names all of them.
func (m metricSet) padded() metricSet {
	out := metricSet{}
	for _, p := range perLayer {
		out[p.name] = metric{m[p.name].Value, p.unit}
	}
	return out
}

const mb = 1 << 20

// eachShard runs fn(i) for i in [0, n) as concurrent pool tasks, the way
// the plan executor runs a node's shards.
func eachShard(pool *par.Pool, n int, fn func(i int)) {
	g := pool.NewGroup()
	for i := 0; i < n; i++ {
		g.Spawn(func() { fn(i) })
	}
	g.Wait()
}

// textLayers replays the text front end on src stage by stage — read,
// tokenize, dictionary, then the three TF/IDF phases at the op's shard
// count — and returns the assembled TF/IDF result for the layers
// downstream of it, and the documents as read.
func textLayers(log *spanLog, parent int, src pario.Source, pool *par.Pool, opts tfidf.Options, out metricSet) (*tfidf.Result, [][]byte, error) {
	id := log.begin("layers.text", parent, 0)
	defer log.end(id)

	// pario: every document through the source's Read.
	docs := make([][]byte, src.Len())
	var bytes int64
	var err error
	d := log.timed("pario.read", id, func() {
		for i := range docs {
			if docs[i], err = src.Read(i); err != nil {
				return
			}
			bytes += int64(len(docs[i]))
		}
	})
	if err != nil {
		return nil, nil, err
	}
	out.set("pario.read_ms", ms(d))
	out.set("pario.read_mb", float64(bytes)/mb)

	// text: the tokenizer alone. The tokens are kept, flat, so the
	// dictionary stage below is fed the workload's real token stream
	// without paying for tokenization again.
	tk := &text.Tokenizer{MinLen: opts.MinWordLen, Stopwords: opts.Stopwords, Stem: opts.Stem}
	var flat []byte
	ends := make([]uint32, 0, bytes/5) // end offset of each token in flat
	docEnds := make([]int, len(docs))  // tokens up to and including doc i
	d = log.timed("text.tokenize", id, func() {
		for i, doc := range docs {
			tk.Tokens(doc, func(tok []byte) {
				flat = append(flat, tok...)
				ends = append(ends, uint32(len(flat)))
			})
			docEnds[i] = len(ends)
		}
	})
	tokens := float64(len(ends))
	out.set("text.tokenize_ms", ms(d))
	out.set("text.tokens", tokens)
	out.set("text.tokenize_ns_per_token", float64(d)/tokens)
	token := func(t int) []byte {
		lo := uint32(0)
		if t > 0 {
			lo = ends[t-1]
		}
		return flat[lo:ends[t]]
	}

	// dict: the program's two uses. Insert is a term-frequency count into a
	// fresh dictionary per document (what the count phase does, write-heavy);
	// lookup probes a frozen corpus-wide table per token (what transform and
	// the query path do, read-only). Default kind, then the hash kind — the
	// paper's Figure 4 map/u-map contrast.
	for _, k := range []struct {
		kind   dict.Kind
		prefix string
	}{{opts.DictKind, "dict."}, {dict.Hash, "dict.hash."}} {
		global := dict.New[uint32](k.kind, dict.Options{Presize: opts.GlobalPresize})
		var footprint int64
		var insert time.Duration
		sid := log.begin(k.prefix+"insert", id, 0)
		t := 0
		for i := range docs {
			local := dict.New[uint32](k.kind, dict.Options{Presize: opts.DocPresize})
			start := time.Now()
			for ; t < docEnds[i]; t++ {
				*local.RefBytes(token(t))++
			}
			insert += time.Since(start)
			footprint += local.Footprint()
			local.Range(func(key string, _ *uint32) bool { *global.Ref(key)++; return true })
		}
		log.end(sid)
		var found int
		lookup := log.timed(k.prefix+"lookup", id, func() {
			for t := range ends {
				if _, ok := global.GetBytes(token(t)); ok {
					found++
				}
			}
		})
		if found != len(ends) {
			return nil, nil, fmt.Errorf("%slookup found %d of %d tokens", k.prefix, found, len(ends))
		}
		out.set(k.prefix+"insert_ns", float64(insert)/tokens)
		out.set(k.prefix+"lookup_ns", float64(lookup)/tokens)
		if k.prefix == "dict." {
			out.set("dict.footprint_mb", float64(footprint+global.Footprint())/mb)
			out.set("dict.distinct_words", float64(global.Len()))
		}
	}
	flat, ends = nil, nil

	// tfidf: count, merge and transform at the op's shard count, shards
	// concurrent on the pool as the executor runs them.
	shards := autoShards()
	readers := max(1, pool.Workers()/shards)
	counts := make([]*tfidf.ShardCounts, shards)
	errs := make([]error, shards)
	d = log.timed("tfidf.count", id, func() {
		eachShard(pool, shards, func(i int) {
			counts[i], errs[i] = tfidf.CountShard(pario.Partition(src, shards, i), readers, opts)
		})
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	out.set("tfidf.count_ms", ms(d))
	var g *tfidf.Global
	d = log.timed("tfidf.merge", id, func() { g = tfidf.MergeShards(counts, pool, opts) })
	out.set("tfidf.merge_ms", ms(d))
	res := tfidf.NewResultShell(g)
	res.Norms = make([]float64, g.NumDocs)
	d = log.timed("tfidf.transform", id, func() {
		vs := make([]*tfidf.VectorShard, shards)
		eachShard(pool, shards, func(i int) { vs[i] = tfidf.TransformShard(g, counts[i], pool, opts) })
		for _, v := range vs {
			res.AbsorbShard(v)
			copy(res.Norms[v.Lo:v.Hi], v.Norms)
		}
	})
	out.set("tfidf.transform_ms", ms(d))
	var nnz int
	for i := range res.Vectors {
		nnz += res.Vectors[i].NNZ()
	}
	out.set("tfidf.terms", float64(res.Dim()))
	out.set("tfidf.nnz", float64(nnz))
	return res, docs, nil
}

// vectorizeLayer times QueryVectorizer.Vectorize over the queries and
// returns the query vectors.
func vectorizeLayer(log *spanLog, parent int, res *tfidf.Result, opts tfidf.Options, queries []query, out metricSet) ([]sparse.Vector, error) {
	vocab, err := tfidf.NewQueryVocab(res, opts)
	if err != nil {
		return nil, err
	}
	vz := vocab.NewVectorizer()
	vecs := make([]sparse.Vector, len(queries))
	const reps = 8
	samples := make([]float64, 0, reps*len(queries))
	id := log.begin("tfidf.vectorize", parent, 0)
	for r := 0; r < reps; r++ {
		for i, q := range queries {
			text := []byte(q.Text)
			start := time.Now()
			vz.Vectorize(text, &vecs[i])
			samples = append(samples, us(time.Since(start)))
		}
	}
	log.end(id)
	out.set("tfidf.vectorize_us", median(samples))
	return vecs, nil
}

// kmeansLayers replays K-Means through the clusterer's stepping API with
// the loop executor's shard boundaries and concurrency, timing the three
// parts of the loop separately, then times plain kmeans.Run on one worker
// and on the pool. want, when non-zero, is the reference digest the replay
// must reproduce.
func kmeansLayers(log *spanLog, parent int, res *tfidf.Result, pool, single *par.Pool, opts kmeans.Options, want uint64, out metricSet) error {
	id := log.begin("layers.kmeans", parent, 0)
	defer log.end(id)
	docs, dim := res.Vectors, res.Dim()
	opts.DocNorms = res.Norms

	c, seeding, err := kmeans.NewDeferredSeed(docs, dim, pool, opts)
	if err != nil {
		return err
	}
	shards := autoShards()
	weights := make([]int64, len(docs))
	for i := range docs {
		weights[i] = int64(docs[i].NNZ())
	}
	bounds := pario.WeightedBoundaries(weights, shards)

	seed := log.timed("kmeans.seed", id, func() {
		for r, n := 0, seeding.Rounds(); r < n; r++ {
			eachShard(pool, shards, func(q int) { seeding.ScanRange(bounds[q], bounds[q+1]) })
			seeding.EndRound()
		}
		seeding.Finish()
	})
	accs := make([]*kmeans.Accum, shards)
	for q := range accs {
		accs[q] = c.NewAccum()
	}
	var assign, update time.Duration
	var wire *kmeans.AccumWire
	for !c.Done() {
		assign += log.timed("kmeans.assign", id, func() {
			eachShard(pool, shards, func(q int) {
				accs[q].Reset()
				c.AssignShard(bounds[q], bounds[q+1], accs[q])
			})
		})
		if wire == nil {
			wire = accs[0].Wire() // a real first-iteration accumulator for the codec
		}
		update += log.timed("kmeans.update", id, func() { c.EndIteration(accs) })
	}
	got := c.Finalize()
	if want != 0 {
		if err := checkClustering(got, want); err != nil {
			return fmt.Errorf("stepped K-Means replay: %w", err)
		}
	}
	k := float64(opts.K)
	n := float64(len(docs))
	full := float64(got.Iterations)*n - float64(got.Prune.Skipped)
	out.set("kmeans.seed_ms", ms(seed))
	out.set("kmeans.assign_ms", ms(assign))
	out.set("kmeans.update_ms", ms(update))
	out.set("kmeans.iterations", float64(got.Iterations))
	out.set("kmeans.skip_rate", got.Prune.SkipRate())
	// Computed, not counted: k−1 seeding scans of every document, a k-way
	// scan per unskipped document-iteration, one distance per skipped one.
	out.set("kmeans.dist_evals", n*(k-1)+full*k+float64(got.Prune.Skipped))

	opts.DocNorms = res.Norms
	var runErr error
	one := log.timed("kmeans.run.single", id, func() { _, runErr = kmeans.Run(docs, dim, single, opts, nil) })
	if runErr != nil {
		return runErr
	}
	all := log.timed("kmeans.run.pool", id, func() { _, runErr = kmeans.Run(docs, dim, pool, opts, nil) })
	if runErr != nil {
		return runErr
	}
	out.set("kmeans.single_thread_ms", ms(one))
	out.set("kmeans.parallel_speedup", float64(one)/float64(all))

	// flatwire: the accumulator codec on the real first-iteration partial.
	const reps = 50
	var buf []byte
	enc := log.timed("flatwire.accum_encode", id, func() {
		for r := 0; r < reps; r++ {
			buf = wire.EncodeFlat(buf[:0])
		}
	})
	var decErr error
	dec := log.timed("flatwire.accum_decode", id, func() {
		for r := 0; r < reps && decErr == nil; r++ {
			_, decErr = kmeans.DecodeFlatAccumWire(buf)
		}
	})
	if decErr != nil {
		return decErr
	}
	out.set("flatwire.accum_encode_ns", float64(enc)/reps)
	out.set("flatwire.accum_decode_ns", float64(dec)/reps)
	out.set("flatwire.accum_bytes", float64(len(buf)))
	return nil
}
