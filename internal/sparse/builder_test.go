package sparse

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

type pendingPair struct {
	idx uint32
	val float64
}

// referenceBuild is Build's specification: a stable comparison sort by
// index, then an in-order sum per index, dropping zero sums.
func referenceBuild(pairs []pendingPair) Vector {
	pairs = slices.Clone(pairs)
	slices.SortStableFunc(pairs, func(a, b pendingPair) int { return cmp.Compare(a.idx, b.idx) })
	var out Vector
	for i := 0; i < len(pairs); {
		sum, j := pairs[i].val, i+1
		for ; j < len(pairs) && pairs[j].idx == pairs[i].idx; j++ {
			sum += pairs[j].val
		}
		if sum != 0 {
			out.Idx = append(out.Idx, pairs[i].idx)
			out.Val = append(out.Val, sum)
		}
		i = j
	}
	return out
}

// sameBits reports whether two vectors have equal indices and equal value
// bits (NaN payloads and the sign of zero included).
func sameBits(a, b *Vector) bool {
	if !slices.Equal(a.Idx, b.Idx) || len(a.Val) != len(b.Val) {
		return false
	}
	for i := range a.Val {
		if math.Float64bits(a.Val[i]) != math.Float64bits(b.Val[i]) {
			return false
		}
	}
	return true
}

// FuzzBuilderMatchesStableSort: Build equals a stable comparison sort plus
// in-order summation, and BuildDistinct equals a sort of the distinct
// indices, bit for bit, at any length (either side of the insertion/radix
// cutover) and any index up to 2³²−1; BuildDistinct panics on a duplicate.
// data is read as 8-byte entries: a little-endian index, masked by mask so
// that duplicates are common, and a float32's bits as the value.
func FuzzBuilderMatchesStableSort(f *testing.F) {
	entry := func(idx uint32, val float32) []byte {
		return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, idx), math.Float32bits(val))
	}
	var dups, wide, long []byte
	for i := 0; i < 3*insertionCutover; i++ {
		// Magnitudes 1, 2²⁷ and 2⁵⁴: the sums depend on the fold order.
		dups = append(dups, entry(uint32(i*7%13), float32(i%5-2)*float32(math.Ldexp(1, i%3*27)))...)
		wide = append(wide, entry(uint32(i)*0x9e3779b9, 1e8/float32(i+1))...)
		long = append(long, entry(uint32(i*40503%35000), float32(i)*0.25)...)
	}
	f.Add([]byte{}, uint32(math.MaxUint32))
	f.Add(entry(math.MaxUint32, 1), uint32(math.MaxUint32))
	f.Add(slices.Concat(entry(3, 0x1p54), entry(3, 1), entry(3, -0x1p54), entry(3, 1), entry(1, 0)), uint32(math.MaxUint32))
	f.Add(dups, uint32(math.MaxUint32))
	f.Add(wide, uint32(math.MaxUint32))
	f.Add(wide, uint32(0xff00ff00))
	f.Add(long, uint32(math.MaxUint32))
	f.Add(long, uint32(0x3f))
	f.Fuzz(func(t *testing.T, data []byte, mask uint32) {
		var pairs []pendingPair
		for ; len(data) >= 8; data = data[8:] {
			pairs = append(pairs, pendingPair{
				idx: binary.LittleEndian.Uint32(data) & mask,
				val: float64(math.Float32frombits(binary.LittleEndian.Uint32(data[4:]))),
			})
		}
		var b Builder
		var got Vector
		for _, p := range pairs {
			b.Add(p.idx, p.val)
		}
		b.Build(&got)
		if want := referenceBuild(pairs); !sameBits(&got, &want) {
			t.Fatalf("Build = %v %v, want %v %v", got.Idx, got.Val, want.Idx, want.Val)
		}

		seen := make(map[uint32]bool)
		var distinct []pendingPair
		for _, p := range pairs {
			if !seen[p.idx] {
				seen[p.idx] = true
				distinct = append(distinct, p)
			}
		}
		b.Reset()
		for _, p := range distinct {
			b.Add(p.idx, p.val)
		}
		b.BuildDistinct(&got)
		if want := referenceBuild(distinct); !sameBits(&got, &want) {
			t.Fatalf("BuildDistinct = %v %v, want %v %v", got.Idx, got.Val, want.Idx, want.Val)
		}

		if len(distinct) == len(pairs) {
			return
		}
		b.Reset()
		for _, p := range pairs {
			b.Add(p.idx, p.val)
		}
		defer func() {
			if recover() == nil {
				t.Fatal("BuildDistinct accepted a duplicate index")
			}
		}()
		b.BuildDistinct(&got)
	})
}

// BenchmarkBuildDistinct builds transform-shaped document vectors: 436
// distinct term IDs below 35 000 (a text-e2e document's distinct words in
// that corpus's vocabulary), added in the random order a hash dictionary
// iterates in. It reports ns per entry.
func BenchmarkBuildDistinct(b *testing.B) {
	const entries, dim, docs = 436, 35_000, 64
	r := rand.New(rand.NewSource(1))
	ids := make([][]uint32, docs)
	for d := range ids {
		perm := r.Perm(dim)[:entries]
		ids[d] = make([]uint32, entries)
		for i, p := range perm {
			ids[d][i] = uint32(p)
		}
	}
	var bld Builder
	var v Vector
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld.Reset()
		for j, id := range ids[i%docs] {
			bld.Add(id, float64(j+1))
		}
		bld.BuildDistinct(&v)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*entries), "ns/entry")
}
