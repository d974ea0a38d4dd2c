package flatwire

import (
	"encoding/binary"
	"math"
	"testing"
)

// The two fuzz targets below keep the names they had while f64 value
// blocks were XOR-coded (codec version 3); they now hold the raw value
// block (AppendF64s / F64sInto) to the same properties.

// FuzzF64sXorRoundTrip: arbitrary f64 bit patterns — NaNs, subnormals,
// signed zeros included — must survive a value block exactly, at eight
// bytes a value and with nothing left over.
func FuzzF64sXorRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 64))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xf0, 0x7f}) // NaN
	f.Fuzz(func(t *testing.T, data []byte) {
		vs := make([]float64, len(data)/8)
		for i := range vs {
			vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		enc := AppendF64s(nil, vs)
		if len(enc) != 8*len(vs) {
			t.Fatalf("%d values encoded in %d bytes, want %d", len(vs), len(enc), 8*len(vs))
		}
		r := NewReader(enc)
		dst := make([]float64, len(vs))
		r.F64sInto(dst)
		if err := r.Err(); err != nil {
			t.Fatalf("decode own encoding: %v", err)
		}
		if err := r.Done(); err != nil {
			t.Fatalf("trailing bytes after own encoding: %v", err)
		}
		for i := range vs {
			if math.Float64bits(dst[i]) != math.Float64bits(vs[i]) {
				t.Fatalf("value %d: decoded bits %#x, want %#x",
					i, math.Float64bits(dst[i]), math.Float64bits(vs[i]))
			}
		}
	})
}

// FuzzF64sXorDecode: decoding arbitrary bytes as a value block of any
// claimed length never panics and never reads past the buffer: it succeeds
// exactly when eight bytes a value are there, consumes just those, and
// yields their bit patterns.
func FuzzF64sXorDecode(f *testing.F) {
	f.Add(uint16(4), AppendF64s(nil, []float64{1, 1, 2.5, math.Copysign(0, -1)}))
	f.Add(uint16(3), []byte{1, 0x88, 0x88, 0x88})
	f.Add(uint16(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8}) // one byte left over
	f.Add(uint16(2), []byte{1, 0x77})
	f.Add(uint16(1), []byte{9})
	f.Fuzz(func(t *testing.T, n uint16, data []byte) {
		count := int(n) % 1024
		r := NewReader(data)
		dst := make([]float64, count)
		r.F64sInto(dst)
		if fits := 8*count <= len(data); (r.Err() == nil) != fits {
			t.Fatalf("%d values from %d bytes: err %v", count, len(data), r.Err())
		}
		if r.Err() != nil {
			return
		}
		if r.off != 8*count {
			t.Fatalf("%d values consumed %d bytes, want %d", count, r.off, 8*count)
		}
		for i := range dst {
			if want := binary.LittleEndian.Uint64(data[8*i:]); math.Float64bits(dst[i]) != want {
				t.Fatalf("value %d: decoded bits %#x, want %#x", i, math.Float64bits(dst[i]), want)
			}
		}
	})
}
