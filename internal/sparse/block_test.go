package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// specials are the values the differential checks mix into their inputs:
// signed zeros, the smallest subnormals, infinities, a NaN, magnitudes
// whose products overflow, and a few plain numbers.
var specials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
	1e308, -1e308, 1, -1, 0.5, 3,
}

// checkDotsInto asserts that DotsInto at widths 8 and 4, and the pure-Go
// dots8 and dots4 called directly, each compute DotDense(v, cents[j]) on
// every lane j < k: the same bits, or a NaN where the reference is NaN
// (NaN payloads are unspecified, see the BlockLayout comment). Every row
// of cents must hold dim values.
func checkDotsInto(t *testing.T, cents [][]float64, dim int, v *Vector) {
	t.Helper()
	k := len(cents)
	for _, b := range []int{8, 4} {
		l := NewBlockLayout(k, dim, b)
		l.Fill(cents)
		kernels := []struct {
			name string
			run  func(*Vector, []float64)
		}{{"DotsInto", l.DotsInto}, {"go", l.dots8}}
		if b == 4 {
			kernels[1].run = l.dots4
		}
		for _, kern := range kernels {
			dots := make([]float64, (k+b-1)/b*b)
			for i := range dots {
				dots[i] = 42.5 // a lane the kernel fails to write shows up
			}
			kern.run(v, dots)
			for j, c := range cents {
				want, got := DotDense(v, c), dots[j]
				if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(want) && math.IsNaN(got)) {
					t.Fatalf("width %d %s (avx2=%v), k=%d dim=%d nnz=%d: lane %d = %v (%#x), DotDense = %v (%#x)",
						b, kern.name, useAVX2, k, dim, v.NNZ(), j, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestDotsIntoMatchesDotDense runs the differential check over random
// layouts: k from 1 to 24 (one, two and three 8-lane blocks, so the
// paired sweep and the odd last block both run), dim from 0 to 40,
// documents reaching past dim, a tenth of all values special and a tenth
// of all documents shuffled out of index order.
func TestDotsIntoMatchesDotDense(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	value := func() float64 {
		if r.Intn(10) == 0 {
			return specials[r.Intn(len(specials))]
		}
		return r.NormFloat64()
	}
	for trial := 0; trial < 600; trial++ {
		k, dim := 1+r.Intn(24), r.Intn(41)
		cents := make([][]float64, k)
		for j := range cents {
			cents[j] = make([]float64, dim)
			for i := range cents[j] {
				cents[j][i] = value()
			}
		}
		var v Vector
		for idx := 0; idx < dim+8; idx++ {
			if r.Intn(3) == 0 {
				v.Idx = append(v.Idx, uint32(idx))
				v.Val = append(v.Val, value())
			}
		}
		if trial%10 == 0 {
			// Out of order, every kernel still stops at the first index
			// past dim, as DotDense does, and reads nothing beyond it.
			r.Shuffle(v.NNZ(), func(a, b int) {
				v.Idx[a], v.Idx[b] = v.Idx[b], v.Idx[a]
				v.Val[a], v.Val[b] = v.Val[b], v.Val[a]
			})
		}
		checkDotsInto(t, cents, dim, &v)
	}
}

// TestFillRangeTilesMatchFill: filling a layout tile by tile — terms in
// uneven ranges, blocks and tiles out of order — must leave exactly the
// bits Fill leaves, over rows shorter and longer than dim (zero-extended
// and truncated), with each layout first dirtied so a tile that skips a
// slot shows up.
func TestFillRangeTilesMatchFill(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, k := range []int{1, 5, 8, 13, 16} {
		for _, b := range []int{4, 8} {
			const dim = 37
			cents := make([][]float64, k)
			for j := range cents {
				cents[j] = make([]float64, dim-10+r.Intn(20))
				for i := range cents[j] {
					cents[j][i] = specials[r.Intn(len(specials))] * float64(1+r.Intn(4))
				}
			}
			want, got := NewBlockLayout(k, dim, b), NewBlockLayout(k, dim, b)
			for _, l := range []*BlockLayout{want, got} {
				for bi := range l.blocks {
					for i := range l.blocks[bi] {
						l.blocks[bi][i] = 42.5
					}
				}
			}
			want.Fill(cents)
			cuts := []int{0, 1, 9, 10, 30, dim}
			for bi := got.Blocks() - 1; bi >= 0; bi-- {
				for c := len(cuts) - 2; c >= 0; c-- {
					got.FillRange(cents, nil, bi, cuts[c], cuts[c+1])
				}
			}
			for bi := range want.blocks {
				for i, x := range want.blocks[bi] {
					lane, idx := bi*b+i%b, i/b
					ref := 0.0
					if lane < k && idx < len(cents[lane]) {
						ref = cents[lane][idx]
					}
					if lane < k && math.Float64bits(x) != math.Float64bits(ref) && !(math.IsNaN(x) && math.IsNaN(ref)) {
						t.Fatalf("k=%d b=%d: Fill lane %d term %d = %v, row holds %v", k, b, lane, idx, x, ref)
					}
					if g := got.blocks[bi][i]; math.Float64bits(g) != math.Float64bits(x) {
						t.Fatalf("k=%d b=%d: tiled fill lane %d term %d = %v, Fill %v", k, b, lane, idx, g, x)
					}
				}
			}
		}
	}
}

// TestFillRangeRefillsOnlyMarkedRows: after the centroids change, refilling
// just the rows that changed — tile by tile, some blocks with no marked
// lane — must leave the bits a full Fill of the new centroids leaves. An
// unmarked lane keeps what it held: the refill is handed a poisoned copy
// of every unmarked row, which must not reach the layout.
func TestFillRangeRefillsOnlyMarkedRows(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, k := range []int{1, 5, 13, 16} {
		for _, b := range []int{4, 8} {
			const dim = 37
			old := make([][]float64, k)
			next := make([][]float64, k)
			rows := make([]bool, k)
			for j := range old {
				old[j] = make([]float64, dim)
				next[j] = make([]float64, dim)
				for i := range old[j] {
					old[j][i] = specials[r.Intn(len(specials))] * float64(1+r.Intn(4))
				}
				copy(next[j], old[j])
				// Lanes 0..3 stay clean, so a 4-lane first block has
				// nothing to refill.
				if rows[j] = j >= 4 && r.Intn(2) == 0; rows[j] {
					for i := range next[j] {
						next[j][i] = float64(r.Intn(9) - 4)
					}
				}
			}
			poisoned := make([][]float64, k)
			for j := range poisoned {
				poisoned[j] = next[j]
				if !rows[j] {
					poisoned[j] = make([]float64, dim)
					for i := range poisoned[j] {
						poisoned[j][i] = 42.5
					}
				}
			}
			got, want := NewBlockLayout(k, dim, b), NewBlockLayout(k, dim, b)
			got.Fill(old)
			want.Fill(next)
			cuts := []int{0, 7, 20, dim}
			for bi := range got.blocks {
				for c := len(cuts) - 2; c >= 0; c-- {
					got.FillRange(poisoned, rows, bi, cuts[c], cuts[c+1])
				}
			}
			for bi := range want.blocks {
				for i, x := range want.blocks[bi] {
					if g := got.blocks[bi][i]; math.Float64bits(g) != math.Float64bits(x) {
						t.Fatalf("k=%d b=%d: lane %d term %d = %v after the marked refill, Fill gives %v",
							k, b, bi*b+i%b, i/b, g, x)
					}
				}
			}
		}
	}
}

// fuzzFloat reads one value at b[*i], cycling through b: a byte below
// len(specials) picks a special, any other starts a raw IEEE 754 bit
// pattern in the eight bytes after it. An empty b yields zeros.
func fuzzFloat(b []byte, i *int) float64 {
	next := func() byte {
		if len(b) == 0 {
			return 0
		}
		c := b[*i%len(b)]
		*i++
		return c
	}
	if c := next(); int(c) < len(specials) {
		return specials[c]
	}
	var bits uint64
	for range 8 {
		bits = bits<<8 | uint64(next())
	}
	return math.Float64frombits(bits)
}

// FuzzDotsIntoMatchesDotDense is checkDotsInto on fuzzed shapes and bits:
// k from 1 to 24, dim from 0 to 64, centroid values cycled out of cent,
// and a document parsed out of doc as (index step, value) entries whose
// indices ascend and may run past dim.
func FuzzDotsIntoMatchesDotDense(f *testing.F) {
	all := make([]byte, len(specials))
	for i := range all {
		all[i] = byte(i)
	}
	f.Add(uint8(16), uint8(40), all, []byte{0, 4, 1, 1, 2, 2, 0, 6, 3, 7, 0, 5})        // ±Inf, NaN and ±1e308 meet
	f.Add(uint8(7), uint8(10), all, []byte{})                                           // empty document
	f.Add(uint8(3), uint8(0), all, []byte{0, 9, 1, 10})                                 // dim 0
	f.Add(uint8(23), uint8(64), []byte{2, 3, 0, 1, 12}, []byte{0, 2, 1, 3, 0, 1, 2, 0}) // subnormals and ±0 at k = 24
	f.Add(uint8(15), uint8(5), []byte{200, 1, 2, 3, 4, 5, 6, 7, 8}, []byte{3, 11, 3, 12, 3, 9, 3, 10})
	f.Fuzz(func(t *testing.T, k, dim uint8, cent, doc []byte) {
		nk, nd := 1+int(k)%24, int(dim)%65
		ci := 0
		cents := make([][]float64, nk)
		for j := range cents {
			cents[j] = make([]float64, nd)
			for i := range cents[j] {
				cents[j][i] = fuzzFloat(cent, &ci)
			}
		}
		var v Vector
		idx := -1
		for i := 0; i < len(doc) && v.NNZ() < 128; {
			idx += 1 + int(doc[i]%8)
			i++
			v.Idx = append(v.Idx, uint32(idx))
			v.Val = append(v.Val, fuzzFloat(doc, &i))
		}
		checkDotsInto(t, cents, nd, &v)
	})
}

// BenchmarkDotsInto times the 8-lane kernel on the cluster-local shape —
// k = 16, dim 6 368, about 76 nonzeros per document — as the dispatched
// kernel (AVX2 assembly where the CPU has it) beside the pure-Go dots8 on
// the same layout. ns/nnz is per document nonzero, all 16 lanes.
func BenchmarkDotsInto(b *testing.B) {
	const k, dim, nnz = 16, 6368, 76
	r := rand.New(rand.NewSource(1))
	cents := make([][]float64, k)
	for j := range cents {
		cents[j] = make([]float64, dim)
		for i := range cents[j] {
			cents[j][i] = r.Float64()
		}
	}
	l := NewBlockLayout(k, dim, 8)
	l.Fill(cents)
	docs := make([]Vector, 512)
	for i := range docs {
		for idx := 0; idx < dim; idx++ {
			if r.Intn(dim) < nnz {
				docs[i].Idx = append(docs[i].Idx, uint32(idx))
				docs[i].Val = append(docs[i].Val, r.Float64())
			}
		}
	}
	dots := make([]float64, k)
	for _, kern := range []struct {
		name string
		run  func(*Vector, []float64)
	}{{"dispatched", l.DotsInto}, {"go", l.dots8}} {
		b.Run("kernel="+kern.name, func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				v := &docs[i%len(docs)]
				kern.run(v, dots)
				total += v.NNZ()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/nnz")
		})
	}
}
