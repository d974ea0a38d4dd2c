package kmeans

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"hpa/internal/flatwire"
	"hpa/internal/sparse"
)

// FuzzDecodeFlatAccumWire: the decoder must reject arbitrary input with an
// error — never a panic; inputs that do decode must survive a
// re-encode/re-decode cycle unchanged.
func FuzzDecodeFlatAccumWire(f *testing.F) {
	good := flatTestAccum().EncodeFlat(nil)
	f.Add(good)
	f.Add((&AccumWire{Changed: 1 << 40}).EncodeFlat(nil))
	f.Add(flatwire.AppendI64(flatwire.AppendU32(nil, accumWireMagic), -1)) // negative moved count
	f.Add(append(flatwire.AppendU32(nil, 0x48504157), 3, 1, 0, 0, 0))      // the retired layout
	f.Add(good[:len(good)-3])                                              // truncated mid-count
	f.Add(good[:3])                                                        // truncated mid-magic
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecodeFlatAccumWire(data)
		if err != nil {
			return
		}
		re, err := DecodeFlatAccumWire(dec.EncodeFlat(nil))
		if err != nil {
			t.Fatalf("re-encoding an accepted payload failed to decode: %v", err)
		}
		if *re != *dec || dec.Changed < 0 {
			t.Fatalf("re-decode changed the partial: %+v != %+v", re, dec)
		}
	})
}

// FuzzDecodeFlatCentroids: the centroid-block decoder faces the worker's
// socket — arbitrary input must error, never panic, and never write outside
// the destination matrix or a row the block does not list; an accepted
// block re-encodes, with the rows it listed, to one that decodes to the
// same matrix. The lane decode accepts exactly what the dense one does and
// leaves the lanes a dense decode and FillRange would, at widths 4 and 8.
func FuzzDecodeFlatCentroids(f *testing.F) {
	cents, cnorms := flatTestCentroids()
	full := AppendFlatCentroids(nil, cents, cnorms, nil)
	f.Add(full)
	f.Add(full[:len(full)-3])
	f.Add(full[:7])
	f.Add(append(append([]byte{}, full...), 1))
	f.Add([]byte{})
	// A 2-row delta, and a delta with an out-of-range ID.
	f.Add(AppendFlatCentroids(nil, cents, cnorms, []bool{true, false, true}))
	two := []sparse.Vector{sparse.FromDense(cents[0]), sparse.FromDense(cents[1])}
	f.Add(rawCentroidBlock(3, []uint32{0, 3}, cnorms[:2], two))
	f.Fuzz(func(t *testing.T, data []byte) {
		dst, norms := staleCentroids()
		ids, err := DecodeFlatCentroids(data, dst, norms, false)
		if err != nil {
			stale, staleNorms := staleCentroids()
			l := sparse.NewBlockLayout(len(stale), len(stale[0]), 8)
			l.Fill(stale)
			before := laneBits(l)
			if _, err := DecodeFlatCentroidLanes(data, l, staleNorms, false); err == nil || !slices.Equal(laneBits(l), before) {
				t.Fatalf("a block the dense decode rejects reached the lanes: %v", err)
			}
			return
		}
		rows := make([]bool, len(dst))
		for _, j := range ids {
			rows[j] = true
		}
		for j := range dst {
			if !rows[j] && (norms[j] != 99 || slices.ContainsFunc(dst[j], func(x float64) bool { return x != 99 })) {
				t.Fatalf("centroid %d is not in the block but changed", j)
			}
		}
		for _, width := range []int{4, 8} {
			// The lane decode leaves every lane holding the bits a dense
			// decode followed by FillRange of the listed rows leaves.
			stale, staleNorms := staleCentroids()
			want := sparse.NewBlockLayout(len(stale), len(stale[0]), width)
			want.Fill(stale)
			for bi := 0; bi < want.Blocks(); bi++ {
				want.FillRange(dst, rows, bi, 0, len(stale[0]))
			}
			got := sparse.NewBlockLayout(len(stale), len(stale[0]), width)
			got.Fill(stale)
			laneIDs, err := DecodeFlatCentroidLanes(data, got, staleNorms, false)
			if err != nil || !slices.Equal(laneIDs, ids) {
				t.Fatalf("width %d: lane decode listed %v, %v; dense decode listed %v", width, laneIDs, err, ids)
			}
			if !slices.Equal(laneBits(got), laneBits(want)) {
				t.Fatalf("width %d: lane decode and dense decode + FillRange differ", width)
			}
			for j := range norms {
				if math.Float64bits(staleNorms[j]) != math.Float64bits(norms[j]) {
					t.Fatalf("width %d: lane decode norm %d is %v, dense %v", width, j, staleNorms[j], norms[j])
				}
			}
		}
		re, reNorms := staleCentroids()
		reIDs, err := DecodeFlatCentroids(AppendFlatCentroids(nil, dst, norms, rows), re, reNorms, false)
		if err != nil {
			t.Fatalf("re-encoding an accepted block failed to decode: %v", err)
		}
		if !slices.Equal(reIDs, ids) {
			t.Fatalf("re-decode listed rows %v, want %v", reIDs, ids)
		}
		for j := range dst {
			for d := range dst[j] {
				if math.Float64bits(re[j][d]) != math.Float64bits(dst[j][d]) && dst[j][d] != 0 {
					t.Fatalf("re-decode changed centroid %d[%d]", j, d)
				}
			}
		}
	})
}

// laneBits is every float of a block layout's lanes, tail padding
// included, as bits — read through reflection, the layout keeping them
// unexported.
func laneBits(l *sparse.BlockLayout) []uint64 {
	var out []uint64
	blocks := reflect.ValueOf(l).Elem().FieldByName("blocks")
	for i := 0; i < blocks.Len(); i++ {
		for j := 0; j < blocks.Index(i).Len(); j++ {
			out = append(out, math.Float64bits(blocks.Index(i).Index(j).Float()))
		}
	}
	return out
}
