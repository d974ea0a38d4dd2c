package tfidf

import (
	"hpa/internal/dict"
)

// This file is the serialization boundary of the partitioned TF/IDF
// kernels: wire forms (flat.go encodes them) of the option subset and the
// phase-1 shard counts, so CountShard and TransformTerms tasks can ship to
// worker processes. Dictionaries do not serialize as data structures — a
// shard ships its vocabulary once and every document as (shard-local term
// ID, count) pairs, and the per-document dictionaries are rebuilt on the
// receiving side with the run's dictionary kind. That is result-preserving
// by the same arguments that make sharding result-preserving: document
// frequencies are commutative integer sums, term IDs are assigned in
// lexicographic word order, and per-document scoring reads each entry
// exactly once, so dictionary iteration order (the only thing a rebuild
// can change) never reaches the output.

// WireOptions is the serializable subset of Options — everything except
// the per-process cancellation context (Ctx) and custom stopword sets.
type WireOptions struct {
	DictKind      dict.Kind
	GlobalPresize int
	DocPresize    int
	MinWordLen    int
	Stem          bool
	Normalize     bool
}

// Wire returns the options in serializable form, and whether they can ship
// at all: options carrying a stopword set cannot (sets have no identity to
// ship), so their shard tasks stay local. Ctx is dropped — cancellation is
// a per-process concern the coordinator keeps.
func (o Options) Wire() (WireOptions, bool) {
	if o.Stopwords != nil {
		return WireOptions{}, false
	}
	return WireOptions{
		DictKind:      o.DictKind,
		GlobalPresize: o.GlobalPresize,
		DocPresize:    o.DocPresize,
		MinWordLen:    o.MinWordLen,
		Stem:          o.Stem,
		Normalize:     o.Normalize,
	}, true
}

// Options reconstructs the operator options on the worker side.
func (w WireOptions) Options() Options {
	return Options{
		DictKind:      w.DictKind,
		GlobalPresize: w.GlobalPresize,
		DocPresize:    w.DocPresize,
		MinWordLen:    w.MinWordLen,
		Stem:          w.Stem,
		Normalize:     w.Normalize,
	}
}

// WireDocCounts is one document's term frequencies as parallel slices:
// Locals index the shard vocabulary (WireShardCounts.Words).
type WireDocCounts struct {
	Locals []uint32
	Counts []uint32
}

// WireShardCounts is the wire form of ShardCounts: the shard vocabulary
// once, in ascending word order, and every document dictionary
// flattened to (local, count) pairs. DF is present only when the shard's
// document frequencies were included (a count task's reply needs them; a
// transform task's argument does not), and the vocabulary dictionary's
// counters travel with it.
type WireShardCounts struct {
	Lo, Hi     int
	Words      []string
	Docs       []WireDocCounts
	DocNames   []string
	DF         []uint32
	VocabStats dict.Stats
}

// Wire flattens the shard counts for the wire. With withDF unset the
// shard's document frequencies and vocabulary counters are omitted. The
// receiver is not modified.
func (sc *ShardCounts) Wire(withDF bool) *WireShardCounts {
	w := &WireShardCounts{
		Lo:       sc.Lo,
		Hi:       sc.Hi,
		Words:    sc.Words,
		Docs:     make([]WireDocCounts, len(sc.DocDicts)),
		DocNames: sc.DocNames,
	}
	for i, d := range sc.DocDicts {
		dc := WireDocCounts{
			Locals: make([]uint32, 0, d.Len()),
			Counts: make([]uint32, 0, d.Len()),
		}
		d.Range(func(_ string, e *DocTerm) bool {
			dc.Locals = append(dc.Locals, e.Local)
			dc.Counts = append(dc.Counts, e.TF)
			return true
		})
		w.Docs[i] = dc
	}
	if withDF {
		w.DF, w.VocabStats = sc.DF, sc.VocabStats
	}
	return w
}

// ShardCounts rebuilds the shard with live per-document dictionaries of
// the configured kind, sized as CountShard's are (for the document or
// DocPresize, whichever is larger) — the inverse of Wire up to dictionary
// internals, which never affect results.
func (w *WireShardCounts) ShardCounts(opts Options) *ShardCounts {
	sc := &ShardCounts{
		Lo:         w.Lo,
		Hi:         w.Hi,
		DocDicts:   make([]dict.Map[DocTerm], len(w.Docs)),
		Words:      w.Words,
		DF:         w.DF,
		DocNames:   w.DocNames,
		VocabStats: w.VocabStats,
	}
	for i, dc := range w.Docs {
		d := dict.New[DocTerm](opts.DictKind, dict.Options{Presize: max(opts.DocPresize, len(dc.Locals))})
		for k, local := range dc.Locals {
			*d.Ref(w.Words[local]) = DocTerm{TF: dc.Counts[k], Local: local}
		}
		sc.DocDicts[i] = d
	}
	return sc
}
