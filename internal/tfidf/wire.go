package tfidf

import (
	"hpa/internal/dict"
)

// This file is the serialization boundary of the partitioned TF/IDF
// kernels: the wire form of the option subset, so CountShard and
// TransformTerms tasks can ship to worker processes (flat.go encodes the
// count reply). Dictionaries never serialize: a remote count keeps its
// per-document dictionaries on the worker that counted them and replies
// with what the coordinator's DF merge reads — the shard vocabulary once,
// its DF, the vocabulary counters and the document names. A worker that
// lost the dictionaries recounts the shard from its source descriptor:
// counting is deterministic, so the recount scores the same bits.

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
