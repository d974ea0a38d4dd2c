package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"hpa/internal/kmeans"
	"hpa/internal/simsearch"
)

// clusteringHash digests what the bit-identity invariant promises is equal
// across shard counts, backends, prune modes and block widths: every
// assignment and the exact bits of the final inertia. Each timed op is
// compared with the digest of one reference run made at set-up, so the
// check costs one pass over the assignments instead of a recomputation.
func clusteringHash(r *kmeans.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, a := range r.Assign {
		binary.LittleEndian.PutUint32(b[:4], uint32(a))
		h.Write(b[:4])
	}
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(r.Inertia))
	h.Write(b[:])
	return h.Sum64()
}

func checkClustering(r *kmeans.Result, want uint64) error {
	if got := clusteringHash(r); got != want {
		return fmt.Errorf("clustering digest %016x, reference %016x", got, want)
	}
	return nil
}

// sameMatches reports whether a served answer equals the reference top-k
// exactly: same documents, same order, same score bits.
func sameMatches(got []servedMatch, want []simsearch.Match) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Doc != want[i].Doc || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return false
		}
	}
	return true
}
