package workflow

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"testing"

	"hpa/internal/kmeans"
	"hpa/internal/sparse"
	"hpa/internal/zipf"
)

// goldenMatrix is a fixed corpus of the golden test: n rows over dim
// terms, each term present with probability density and weighted by a
// seeded generator — overlapping, unnormalized and unclustered.
func goldenMatrix(n, dim int, density float64, seed uint64) *Matrix {
	rng := zipf.NewRNG(seed)
	m := &Matrix{Terms: make([]string, dim), Vectors: make([]sparse.Vector, n)}
	for t := range m.Terms {
		m.Terms[t] = fmt.Sprintf("t%d", t)
	}
	for i := range m.Vectors {
		var v sparse.Vector
		for d := 0; d < dim; d++ {
			if rng.Float64() < density {
				x := rng.Float64()
				v.Append(uint32(d), x*x*float64(1+i%5))
			}
		}
		if v.NNZ() == 0 {
			v.Append(uint32(i%dim), 1)
		}
		m.Vectors[i] = v
	}
	return m
}

// loopbackBackend starts n workers, each serving the worker protocol on
// its own TCP listener on 127.0.0.1, and returns an RPCBackend dialed to
// them — the deployment shape of hpa-workflow -worker, in process.
func loopbackBackend(t *testing.T, n int) *RPCBackend {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		t.Cleanup(func() { lis.Close() })
		go ServeWorker(lis)
		addrs[i] = lis.Addr().String()
	}
	b, err := NewRPCBackend(addrs)
	if err != nil {
		t.Fatalf("NewRPCBackend: %v", err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

// clusteringDigest hashes everything a clustering result decides, floats
// as their bits: iterations, convergence, seeds, assignments, counts,
// every centroid component, the inertia and its whole history.
func clusteringDigest(r *kmeans.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	put(uint64(r.Iterations))
	if r.Converged {
		put(1)
	}
	for _, s := range r.Seeds {
		put(uint64(s))
	}
	for _, a := range r.Assign {
		put(uint64(a))
	}
	for _, c := range r.Counts {
		put(uint64(c))
	}
	for _, row := range r.Centroids {
		for _, x := range row {
			put(math.Float64bits(x))
		}
	}
	put(math.Float64bits(r.Inertia))
	for _, x := range r.History {
		put(math.Float64bits(x))
	}
	return h.Sum64()
}

// TestKMeansGoldenBitIdenticalAtEveryShardCount pins one clustering per
// (input, options): the digests below are what the one-shard loop computed
// before centroids were gathered from their members, and every shard
// count, in process and on two loopback RPC workers, must reproduce them
// bit for bit under both empty-cluster policies. The second corpus empties a
// cluster (KeepCentroid keeps it empty, ReseedFarthest reseeds it), so the
// policies' digests differ there.
func TestKMeansGoldenBitIdenticalAtEveryShardCount(t *testing.T) {
	cases := []struct {
		name string
		m    *Matrix
		opts kmeans.Options
		want map[kmeans.EmptyPolicy]uint64
	}{
		{"sparse-k16", goldenMatrix(600, 64, 0.3, 1), kmeans.Options{K: 16, Seed: 7},
			map[kmeans.EmptyPolicy]uint64{kmeans.KeepCentroid: 0x7e07ec4469b2ac43, kmeans.ReseedFarthest: 0x7e07ec4469b2ac43}},
		{"empties-k100", goldenMatrix(400, 4, 0.6, 1), kmeans.Options{K: 100, Seed: 30},
			map[kmeans.EmptyPolicy]uint64{kmeans.KeepCentroid: 0x911f61deb2f74fff, kmeans.ReseedFarthest: 0x33c176ca1f26c33d}},
	}
	shardCounts := []int{1, 2, 3, 4, 7}
	if testing.Short() {
		shardCounts = []int{1, 4}
	}
	rpc := loopbackBackend(t, 2)
	for _, tc := range cases {
		for _, empty := range []kmeans.EmptyPolicy{kmeans.KeepCentroid, kmeans.ReseedFarthest} {
			opts := tc.opts
			opts.Empty = empty
			for _, shards := range shardCounts {
				for _, backend := range []Backend{LocalBackend{}, rpc} {
					ctx := testCtx(t, 4)
					ctx.Backend = backend
					feed := &fnOp{name: "feed", out: matrixType,
						fn: func(*Context, []Value) (Value, error) { return tc.m, nil }}
					outs, err := NewPlan().Add("feed", feed).
						Add("assign", &KMAssignOp{Opts: opts, Shards: shards}).
						Connect("feed", "assign").Run(ctx)
					if err != nil {
						t.Fatal(err)
					}
					if got := clusteringDigest(outs["assign"].(*kmeans.Result)); got != tc.want[empty] {
						t.Errorf("%s empty=%d shards=%d backend=%s: digest %#016x, golden %#016x",
							tc.name, empty, shards, backend.Name(), got, tc.want[empty])
					}
				}
			}
		}
	}
}
