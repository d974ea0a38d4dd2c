package experiments

import (
	"fmt"
	"strings"
	"time"

	"hpa/internal/dict"
	"hpa/internal/kmeans"
	"hpa/internal/metrics"
	"hpa/internal/par"
	"hpa/internal/simsched"
	"hpa/internal/tfidf"
	"hpa/internal/workflow"
)

// AblationResult quantifies the design choices DESIGN.md calls out beyond
// the paper's own comparisons:
//
//  1. arena-allocated vs node-allocated red-black tree (S16) — how much of
//     "std::map is slow" is allocation layout;
//  2. loop shard count — the task granularity of the K-Means loop (too
//     coarse limits scaling, too fine adds per-task and barrier overhead);
//  3. per-document dictionary pre-sizing — the paper's 4K presize as a
//     memory/time trade (Figure 4's hash configuration) measured in
//     isolation;
//  4. Porter stemming — vocabulary reduction vs extra per-token CPU in the
//     word-count phase.
type AblationResult struct {
	// DictPhase1 maps kind label to input+wc duration at 1 thread.
	DictPhase1 map[string]time.Duration
	// DictTransform maps kind label to transform duration at 1 thread.
	DictTransform map[string]time.Duration
	// DictFootprint maps kind label to dictionary memory.
	DictFootprint map[string]int64
	// ShardSpeedup maps the loop shard count to the K-Means phases'
	// simulated 16-thread speedup.
	ShardSpeedup map[int]float64
	// PresizeTime and PresizeMem map per-document hash presize to phase-1
	// time and footprint.
	PresizeTime map[int]time.Duration
	PresizeMem  map[int]int64
	// StemVocab and StemTime compare vocabulary size and phase-1 time with
	// and without stemming (keys "raw", "stemmed").
	StemVocab map[string]int
	StemTime  map[string]time.Duration
}

// ablationShards are the loop shard counts of ablation 2.
var ablationShards = []int{1, 2, 4, 16, 64}

// RunAblation executes all four ablations on the Mix corpus.
func RunAblation(cfg Config) (*AblationResult, error) {
	res := &AblationResult{
		DictPhase1:    map[string]time.Duration{},
		DictTransform: map[string]time.Duration{},
		DictFootprint: map[string]int64{},
		ShardSpeedup:  map[int]float64{},
		PresizeTime:   map[int]time.Duration{},
		PresizeMem:    map[int]int64{},
		StemVocab:     map[string]int{},
		StemTime:      map[string]time.Duration{},
	}
	c := generate(cfg, cfg.mixSpec())
	pool := par.NewPool(1)
	defer pool.Close()

	// 1. Dictionary kind ablation (single thread, no presize).
	for _, kind := range []dict.Kind{dict.Tree, dict.NodeTree, dict.Hash} {
		bd := metrics.NewBreakdown()
		r, err := tfidf.Run(c.Source(nil), pool, tfidf.Options{DictKind: kind, Normalize: true}, bd)
		if err != nil {
			return nil, err
		}
		res.DictPhase1[kind.String()] = bd.Get(tfidf.PhaseInputWC)
		res.DictTransform[kind.String()] = bd.Get(tfidf.PhaseTransform)
		res.DictFootprint[kind.String()] = r.DictFootprint
	}

	// 2. Loop shard count ablation (simulated 16-thread speedup of the
	// recorded K-Means phases).
	for _, shards := range ablationShards {
		wcfg := cfg.tfkm(workflow.Merged, dict.Tree)
		wcfg.Shards = shards
		phases, _, err := cfg.recordTFKM(c.Source(nil), wcfg, kmeans.PhaseKMeans)
		if err != nil {
			return nil, err
		}
		_, t1 := simsched.Simulate(simsched.Machine{Workers: 1}, phases)
		_, t16 := simsched.Simulate(simsched.Machine{Workers: 16}, phases)
		if t16 > 0 {
			res.ShardSpeedup[shards] = float64(t1) / float64(t16)
		}
	}

	// 3. Hash presize ablation.
	for _, presize := range []int{0, 256, 1024, 4096} {
		bd := metrics.NewBreakdown()
		r, err := tfidf.Run(c.Source(nil), pool, tfidf.Options{
			DictKind: dict.Hash, DocPresize: presize, Normalize: true,
		}, bd)
		if err != nil {
			return nil, err
		}
		res.PresizeTime[presize] = bd.Get(tfidf.PhaseInputWC)
		res.PresizeMem[presize] = r.DictFootprint
	}

	// 4. Stemming ablation.
	for _, stem := range []bool{false, true} {
		bd := metrics.NewBreakdown()
		r, err := tfidf.Run(c.Source(nil), pool, tfidf.Options{
			DictKind: dict.Tree, Normalize: true, Stem: stem,
		}, bd)
		if err != nil {
			return nil, err
		}
		key := "raw"
		if stem {
			key = "stemmed"
		}
		res.StemVocab[key] = r.Dim()
		res.StemTime[key] = bd.Get(tfidf.PhaseInputWC)
	}
	return res, nil
}

// Render prints the four ablation tables.
func (r *AblationResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Ablations (beyond-paper design-choice measurements, Mix corpus, 1 thread)\n\n")

	t1 := metrics.NewTable("Dictionary", "input+wc", "transform", "footprint")
	for _, k := range []string{"map-arena", "map", "u-map"} {
		t1.AddRow(k,
			metrics.FormatDuration(r.DictPhase1[k]),
			metrics.FormatDuration(r.DictTransform[k]),
			metrics.FormatBytes(r.DictFootprint[k]))
	}
	sb.WriteString("1. Dictionary implementation (arena tree vs node tree vs hash):\n")
	sb.WriteString(t1.String())

	t2 := metrics.NewTable("LoopShards", "16-thread speedup (sim)")
	for _, s := range ablationShards {
		t2.AddRow(fmt.Sprintf("%d", s), metrics.FormatSpeedup(r.ShardSpeedup[s]))
	}
	sb.WriteString("\n2. K-Means loop shard count:\n")
	sb.WriteString(t2.String())

	t3 := metrics.NewTable("DocPresize", "input+wc", "dict memory")
	for _, p := range []int{0, 256, 1024, 4096} {
		t3.AddRow(fmt.Sprintf("%d", p),
			metrics.FormatDuration(r.PresizeTime[p]),
			metrics.FormatBytes(r.PresizeMem[p]))
	}
	sb.WriteString("\n3. Per-document hash-table pre-size (paper uses 4096):\n")
	sb.WriteString(t3.String())

	t4 := metrics.NewTable("Preprocessing", "vocabulary", "input+wc")
	for _, k := range []string{"raw", "stemmed"} {
		t4.AddRow(k, fmt.Sprintf("%d", r.StemVocab[k]), metrics.FormatDuration(r.StemTime[k]))
	}
	sb.WriteString("\n4. Porter stemming:\n")
	sb.WriteString(t4.String())
	return sb.String()
}
