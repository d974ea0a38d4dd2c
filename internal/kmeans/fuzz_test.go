package kmeans

import (
	"math"
	"testing"

	"hpa/internal/flatwire"
)

// FuzzDecodeFlatAccumWire: the decoder must reject arbitrary input with an
// error — never a panic; inputs that do decode must survive a
// re-encode/re-decode cycle unchanged.
func FuzzDecodeFlatAccumWire(f *testing.F) {
	good := flatTestAccum().EncodeFlat(nil)
	f.Add(good)
	f.Add((&AccumWire{Changed: 1 << 40}).EncodeFlat(nil))
	f.Add(flatwire.AppendI64(flatwire.AppendU32(nil, accumWireMagic), -1))            // negative moved count
	f.Add(append(flatwire.AppendU32(nil, 0x48504157), flatwire.CodecXor, 1, 0, 0, 0)) // the retired layout
	f.Add(good[:len(good)-3])                                                         // truncated mid-count
	f.Add(good[:3])                                                                   // truncated mid-magic
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
