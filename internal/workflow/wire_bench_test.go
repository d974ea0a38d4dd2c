package workflow

import (
	"fmt"
	"testing"

	"hpa/internal/kmeans"
	"hpa/internal/sparse"
	"hpa/internal/tfidf"
)

// benchVectorShard synthesizes a transform-reply-sized shard: 256 documents
// of ~64 sparse entries each, deterministic content.
func benchVectorShard() *tfidf.VectorShard {
	const docs, nnz = 256, 64
	vs := &tfidf.VectorShard{Lo: 0, Hi: docs, Dim: 1 << 16, DictFootprint: 1 << 20}
	vs.Vectors = make([]sparse.Vector, docs)
	vs.Norms = make([]float64, docs)
	vs.DocNames = make([]string, docs)
	for i := range vs.Vectors {
		idx := make([]uint32, nnz)
		val := make([]float64, nnz)
		norm := 0.0
		// Strictly ascending indices: the invariant sparse.Builder
		// guarantees for every real vector, and the contract the flat
		// codec's delta coding relies on.
		for e := range idx {
			idx[e] = uint32(i + e*1021)
			val[e] = float64(i+1) / float64(e+3)
			norm += val[e] * val[e]
		}
		vs.Vectors[i] = sparse.Vector{Idx: idx, Val: val}
		vs.Norms[i] = norm
		vs.DocNames[i] = fmt.Sprintf("corpus/shard-0/doc-%04d.txt", i)
	}
	return vs
}

// benchAssignReply synthesizes a kmeans.assign reply for one loop shard
// of cluster-local's shape: 375 documents (3 000 over 8 shards) at k = 16.
func benchAssignReply() *KMAssignReply {
	const n, k = 375, 16
	r := &KMAssignReply{Accum: &kmeans.AccumWire{Changed: 42}, Assign: make([]int32, n), Dists: make([]float64, n)}
	for i := range r.Assign {
		r.Assign[i] = int32(i * 7 % k)
		r.Dists[i] = 1 - float64(i%97)/193
	}
	return r
}

// benchCentroids synthesizes a kmeans.centroids-block-sized matrix: 16
// centroids over 6 368 terms, three in ten entries non-zero — the shape of
// the benchmark's cluster workloads.
func benchCentroids() ([][]float64, []float64) {
	const k, dim = 16, 6368
	cents := make([][]float64, k)
	cnorms := make([]float64, k)
	for j := range cents {
		cents[j] = make([]float64, dim)
		for d := range cents[j] {
			if (d*7+j*3)%10 < 3 {
				cents[j][d] = float64(j+1) / float64(d+5)
				cnorms[j] += cents[j][d] * cents[j][d]
			}
		}
	}
	return cents, cnorms
}

// BenchmarkWirePayloads prices the flat codecs of the hot payloads — the
// transform reply (worker→coordinator, once per shard), the assignment
// reply (worker→coordinator, per shard per iteration) and the centroid
// block (coordinator→worker, per worker per iteration) — one encode+decode
// round trip per op, with the encoded size reported. Run with
//
//	go test ./internal/workflow -run '^$' -bench WirePayloads -benchtime 100x
func BenchmarkWirePayloads(b *testing.B) {
	vs := benchVectorShard()
	ar := benchAssignReply()
	cents, cnorms := benchCentroids()
	dst := make([][]float64, len(cents))
	for j := range dst {
		dst[j] = make([]float64, len(cents[j]))
	}
	dstNorms := make([]float64, len(cnorms))

	for _, bc := range []struct {
		name   string
		encode func() []byte
		decode func([]byte) error
	}{
		{"vectorshard", func() []byte { return vs.EncodeFlat(nil) },
			func(buf []byte) error { _, err := tfidf.DecodeFlatVectorShard(buf); return err }},
		{"assign-reply", func() []byte { return ar.AppendFlat(nil) },
			func(buf []byte) error { _, err := DecodeFlatKMAssignReply(buf); return err }},
		{"centroids", func() []byte { return kmeans.AppendFlatCentroids(nil, cents, cnorms, nil) },
			func(buf []byte) error { _, err := kmeans.DecodeFlatCentroids(buf, dst, dstNorms, true); return err }},
	} {
		b.Run(bc.name+"/flat", func(b *testing.B) {
			b.ReportAllocs()
			var size int
			for i := 0; i < b.N; i++ {
				buf := bc.encode()
				size = len(buf)
				if err := bc.decode(buf); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(size), "wire-bytes")
		})
	}
}
