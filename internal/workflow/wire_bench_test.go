package workflow

import (
	"fmt"
	"testing"

	"hpa/internal/flatwire"
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

// benchVectorShardQuantized is benchVectorShard with quantized values:
// runs of repeated products, the shape real TF/IDF vectors take when many
// terms in a document share a term frequency. Equal neighbors XOR to zero,
// so this is the corpus where the codec-3 value blocks earn their keep —
// benchVectorShard's dense rationals are the near-incompressible floor.
func benchVectorShardQuantized() *tfidf.VectorShard {
	vs := benchVectorShard()
	for i := range vs.Vectors {
		val := vs.Vectors[i].Val
		norm := 0.0
		for e := range val {
			val[e] = float64(1+e/16) / 4
			norm += val[e] * val[e]
		}
		vs.Norms[i] = norm
	}
	return vs
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
// round trip per op, with the encoded size reported. Each case
// additionally reports val%: the XOR-coded f64 value blocks' size as a
// percentage of their fixed-width form (flatwire.ValueBytes), on both the
// adversarial dense-rational corpus and the quantized repeated-value
// corpus. Run with
//
//	go test ./internal/workflow -run '^$' -bench WirePayloads -benchtime 100x
func BenchmarkWirePayloads(b *testing.B) {
	vs := benchVectorShard()
	qs := benchVectorShardQuantized()
	ar := benchAssignReply()
	cents, cnorms := benchCentroids()
	dst := make([][]float64, len(cents))
	for j := range dst {
		dst[j] = make([]float64, len(cents[j]))
	}
	dstNorms := make([]float64, len(cnorms))

	// valuePct measures one encode's value-block compression via the
	// process-wide flatwire counters (encode-side delta only).
	valuePct := func(encode func() []byte) float64 {
		raw0, coded0 := flatwire.ValueBytes()
		encode()
		raw1, coded1 := flatwire.ValueBytes()
		if raw1 == raw0 {
			return 100
		}
		return 100 * float64(coded1-coded0) / float64(raw1-raw0)
	}

	for _, bc := range []struct {
		name   string
		encode func() []byte
		decode func([]byte) error
	}{
		{"vectorshard", func() []byte { return vs.EncodeFlat(nil) },
			func(buf []byte) error { _, err := tfidf.DecodeFlatVectorShard(buf); return err }},
		{"vectorshard-quantized", func() []byte { return qs.EncodeFlat(nil) },
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
			b.ReportMetric(valuePct(bc.encode), "val%")
		})
	}
}
