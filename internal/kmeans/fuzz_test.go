package kmeans

import (
	"math"
	"testing"
)

// FuzzDecodeFlatAccumWire: the decoder must reject arbitrary input with an
// error — never a panic; inputs that do decode must survive a
// re-encode/re-decode cycle.
func FuzzDecodeFlatAccumWire(f *testing.F) {
	w := flatTestAccum()
	good := w.EncodeFlat(nil)
	f.Add(good)
	for _, v := range []byte{1, 2} { // retired codec versions
		old := append([]byte{}, good...)
		old[4] = v
		f.Add(old)
	}
	f.Add(good[:len(good)-3]) // truncated mid-value-block
	f.Add(good[:7])           // truncated mid-header
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
		if len(re.Idx) != len(dec.Idx) {
			t.Fatalf("re-decode changed cluster count: %d != %d", len(re.Idx), len(dec.Idx))
		}
	})
}

// FuzzDecodeFlatCentroids: the centroid-block decoder faces the worker's
// socket — arbitrary input must error, never panic, and never write outside
// the destination matrix; an accepted block re-encodes to one that decodes
// to the same matrix.
func FuzzDecodeFlatCentroids(f *testing.F) {
	cents, cnorms := flatTestCentroids()
	good := AppendFlatCentroids(nil, cents, cnorms)
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add(good[:7])
	f.Add(append(append([]byte{}, good...), 1))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dst := [][]float64{make([]float64, 8), make([]float64, 8), make([]float64, 8)}
		norms := make([]float64, 3)
		if err := DecodeFlatCentroids(data, dst, norms); err != nil {
			return
		}
		re := [][]float64{make([]float64, 8), make([]float64, 8), make([]float64, 8)}
		reNorms := make([]float64, 3)
		if err := DecodeFlatCentroids(AppendFlatCentroids(nil, dst, norms), re, reNorms); err != nil {
			t.Fatalf("re-encoding an accepted block failed to decode: %v", err)
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
