package workflow

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"

	"hpa/internal/dict"
	"hpa/internal/par"
	"hpa/internal/pario"
	"hpa/internal/text"
	"hpa/internal/tfidf"
)

// WordCounts is the output of WordCountOp: corpus-wide term frequencies.
type WordCounts struct {
	// Words and Counts are parallel, ordered by descending count (ties by
	// word).
	Words  []string
	Counts []uint64
	// TotalTokens is the token count across the corpus.
	TotalTokens uint64
}

// Top returns the n most frequent words.
func (w *WordCounts) Top(n int) []string {
	if n > len(w.Words) {
		n = len(w.Words)
	}
	return w.Words[:n]
}

// Count returns the frequency of a word (0 if absent).
func (w *WordCounts) Count(word string) uint64 {
	for i, wd := range w.Words {
		if wd == word {
			return w.Counts[i]
		}
	}
	return 0
}

// WordCountOp computes corpus-wide word frequencies — the canonical first
// analytics operator, included as a second instantiation of the workflow
// engine beyond TF/IDF→K-Means. It is logical, with no run method:
// PartitionRule expands it into per-shard tokenize-and-count kernels
// (WordCountMapOp) and one tree-merge reduction (WordCountReduceOp), the
// paper's input+wc phase structure.
type WordCountOp struct {
	// DictKind selects the per-strand dictionary implementation.
	DictKind dict.Kind
	// Stopwords, MinWordLen and Stem configure tokenization.
	Stopwords  *text.StopwordSet
	MinWordLen int
	Stem       bool
}

// Name implements Operator.
func (o *WordCountOp) Name() string { return "wordcount" }

// Inputs implements Operator.
func (o *WordCountOp) Inputs() []reflect.Type { return []reflect.Type{sourceType} }

// Output implements Operator.
func (o *WordCountOp) Output() reflect.Type { return wordCountsType }

// mapOp builds the operator's map kernel.
func (o *WordCountOp) mapOp() *WordCountMapOp {
	return &WordCountMapOp{
		DictKind: o.DictKind, Stopwords: o.Stopwords,
		MinWordLen: o.MinWordLen, Stem: o.Stem,
	}
}

// partitionFragment implements partitionable: shard-local count maps plus
// a tree-merge reduction.
func (o *WordCountOp) partitionFragment() fragment {
	return fragment{
		nodes: []fragNode{
			{suffix: "map", op: o.mapOp()},
			{suffix: "reduce", op: &WordCountReduceOp{DictKind: o.DictKind}},
		},
		edges: []Edge{{From: "map", To: "reduce", Port: 0}},
		in:    "map",
		out:   "reduce",
	}
}

// buildWordCounts sorts a merged frequency dictionary into the operator's
// output order (descending count, ties by word — fully deterministic).
func buildWordCounts(merged dict.Map[uint64], total uint64) *WordCounts {
	out := &WordCounts{
		Words:       make([]string, 0, merged.Len()),
		Counts:      make([]uint64, 0, merged.Len()),
		TotalTokens: total,
	}
	merged.Range(func(word string, c *uint64) bool {
		out.Words = append(out.Words, word)
		out.Counts = append(out.Counts, *c)
		return true
	})
	sort.Sort(&byCountDesc{out})
	return out
}

// WCShard is the per-shard output of WordCountMapOp: one corpus shard's
// term frequencies and token count.
type WCShard struct {
	// Counts maps word to occurrences within the shard.
	Counts dict.Map[uint64]
	// Tokens is the shard's token count.
	Tokens uint64
}

// WordCountMapOp is the map kernel of the partitioned word count: it
// tokenizes and counts one corpus shard with no shared state, the
// shard-local half of WordCountOp.
type WordCountMapOp struct {
	// DictKind, Stopwords, MinWordLen and Stem mirror WordCountOp.
	DictKind   dict.Kind
	Stopwords  *text.StopwordSet
	MinWordLen int
	Stem       bool
}

// Name implements Operator.
func (o *WordCountMapOp) Name() string { return "wc-map" }

// Inputs implements Operator.
func (o *WordCountMapOp) Inputs() []reflect.Type { return []reflect.Type{sourceType} }

// Output implements Operator.
func (o *WordCountMapOp) Output() reflect.Type { return wcShardType }

// Phase implements Phased.
func (o *WordCountMapOp) Phase() string { return tfidf.PhaseInputWC }

// RunPartition implements PartitionKernel: pario.Source (one shard) ->
// *WCShard.
func (o *WordCountMapOp) RunPartition(ctx *Context, ins []Value, idx, total int) (Value, error) {
	src, ok := ins[0].(pario.Source)
	if !ok {
		return nil, fmt.Errorf("%w: wc-map wants pario.Source, got %T", ErrType, ins[0])
	}
	type strand struct {
		tk *text.Tokenizer
		m  dict.Map[uint64]
		n  uint64
	}
	strands := par.NewReducer(func() *strand {
		return &strand{
			tk: &text.Tokenizer{MinLen: o.MinWordLen, Stopwords: o.Stopwords, Stem: o.Stem},
			m:  dict.New[uint64](o.DictKind, dict.Options{}),
		}
	})
	readers := shardReaders(ctx, total)
	read := func(h func(int, []byte) error) error {
		if ctx.Ctx != nil {
			return pario.ReadAllContext(ctx.Ctx, src, readers, h)
		}
		return pario.ReadAll(src, readers, h)
	}
	if err := read(func(i int, content []byte) error {
		s := strands.Claim()
		s.tk.Tokens(content, func(tok []byte) {
			*s.m.RefBytes(tok)++
			s.n++
		})
		strands.Release(s)
		return nil
	}); err != nil {
		return nil, err
	}
	// Fold the shard's read strands (bounded by readers, typically 1).
	merged := dict.New[uint64](o.DictKind, dict.Options{})
	var tokens uint64
	for _, s := range strands.Views() {
		tokens += s.n
		s.m.Range(func(word string, c *uint64) bool {
			*merged.Ref(word) += *c
			return true
		})
	}
	return &WCShard{Counts: merged, Tokens: tokens}, nil
}

// WordCountReduceOp tree-merges the shard counts into the corpus-wide
// frequency table — word counts are commutative integer sums, so the
// result is bit-identical at any shard count.
type WordCountReduceOp struct {
	// DictKind selects the merge dictionary implementation.
	DictKind dict.Kind
}

// Name implements Operator.
func (o *WordCountReduceOp) Name() string { return "wc-reduce" }

// Inputs implements Operator: the gathered shards.
func (o *WordCountReduceOp) Inputs() []reflect.Type { return []reflect.Type{partitionsType} }

// Output implements Operator.
func (o *WordCountReduceOp) Output() reflect.Type { return wordCountsType }

// Phase implements Phased.
func (o *WordCountReduceOp) Phase() string { return tfidf.PhaseInputWC }

// Run implements Runner: *Partitions of *WCShard -> *WordCounts.
func (o *WordCountReduceOp) Run(ctx *Context, in Value) (Value, error) {
	parts, ok := in.(*Partitions)
	if !ok {
		return nil, fmt.Errorf("%w: wc-reduce wants *Partitions, got %T", ErrType, in)
	}
	shards := make([]*WCShard, len(parts.Parts))
	for i, part := range parts.Parts {
		if shards[i], ok = part.(*WCShard); !ok {
			return nil, fmt.Errorf("%w: wc-reduce wants *WCShard shards, got %T", ErrType, part)
		}
	}
	var total uint64
	dicts := make([]dict.Map[uint64], 0, len(shards))
	for _, ws := range shards {
		total += ws.Tokens
		dicts = append(dicts, ws.Counts)
	}
	var merged dict.Map[uint64]
	if len(dicts) == 0 {
		merged = dict.New[uint64](o.DictKind, dict.Options{})
	} else {
		merged = par.TreeReduce(ctx.Pool, dicts, func(a, b dict.Map[uint64]) dict.Map[uint64] {
			if a.Len() < b.Len() {
				a, b = b, a
			}
			b.Range(func(word string, c *uint64) bool {
				*a.Ref(word) += *c
				return true
			})
			return a
		})
	}
	return buildWordCounts(merged, total), nil
}

type byCountDesc struct{ w *WordCounts }

func (b *byCountDesc) Len() int { return len(b.w.Words) }
func (b *byCountDesc) Less(i, j int) bool {
	if b.w.Counts[i] != b.w.Counts[j] {
		return b.w.Counts[i] > b.w.Counts[j]
	}
	return b.w.Words[i] < b.w.Words[j]
}
func (b *byCountDesc) Swap(i, j int) {
	b.w.Words[i], b.w.Words[j] = b.w.Words[j], b.w.Words[i]
	b.w.Counts[i], b.w.Counts[j] = b.w.Counts[j], b.w.Counts[i]
}

// WriteWordCounts emits the final output phase of the word-count workflow:
// "word<TAB>count" lines, most frequent first, sequential.
type WriteWordCounts struct {
	// Filename within ctx.ScratchDir (default "wordcounts.tsv").
	Filename string
	// Limit caps the number of emitted words (0 = all).
	Limit int
}

// Name implements Operator.
func (o *WriteWordCounts) Name() string { return "output" }

// Inputs implements Operator.
func (o *WriteWordCounts) Inputs() []reflect.Type { return []reflect.Type{wordCountsType} }

// Output implements Operator.
func (o *WriteWordCounts) Output() reflect.Type { return wordCountsType }

// Phase implements Phased.
func (o *WriteWordCounts) Phase() string { return PhaseOutput }

// Run implements Runner: *WordCounts -> *WordCounts (pass-through).
func (o *WriteWordCounts) Run(ctx *Context, in Value) (Value, error) {
	wc, ok := in.(*WordCounts)
	if !ok {
		return nil, fmt.Errorf("%w: output wants *WordCounts, got %T", ErrType, in)
	}
	name := o.Filename
	if name == "" {
		name = "wordcounts.tsv"
	}
	path := filepath.Join(ctx.ScratchDir, name)
	n, err := writeCounts(path, wc, o.Limit)
	ctx.Disk.ChargeRead(n, true)
	ctx.spanIO(n, 1)
	if err != nil {
		return nil, err
	}
	return wc, nil
}

func writeCounts(path string, wc *WordCounts, limit int) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var n int64
	end := len(wc.Words)
	if limit > 0 && limit < end {
		end = limit
	}
	for i := 0; i < end; i++ {
		line := fmt.Sprintf("%s\t%d\n", wc.Words[i], wc.Counts[i])
		n += int64(len(line))
		if _, err := w.WriteString(line); err != nil {
			f.Close()
			return n, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}
