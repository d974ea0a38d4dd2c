package flatwire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"testing"
)

// FuzzF64sXorRoundTrip: arbitrary f64 bit patterns — NaNs, subnormals,
// signed zeros included — must survive the XOR value coding exactly,
// whichever block form the encoder picks.
func FuzzF64sXorRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 64)) // all-zero: pure 0x88 stream
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xf0, 0x7f}) // NaN
	f.Fuzz(func(t *testing.T, data []byte) {
		vs := make([]float64, len(data)/8)
		for i := range vs {
			var x uint64
			for b := 0; b < 8; b++ {
				x |= uint64(data[i*8+b]) << (8 * uint(b))
			}
			vs[i] = math.Float64frombits(x)
		}
		enc := AppendF64sXor(nil, vs)
		r := NewReader(enc)
		dst := make([]float64, len(vs))
		r.F64sXorInto(dst)
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
// claimed length must error or succeed — never panic, never read past the
// buffer.
func FuzzF64sXorDecode(f *testing.F) {
	f.Add(uint16(4), AppendF64sXor(nil, []float64{1, 1, 2.5, math.Copysign(0, -1)}))
	f.Add(uint16(3), []byte{ValueBlockXor, 0x88, 0x88, 0x88})
	f.Add(uint16(1), []byte{ValueBlockRaw, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint16(2), []byte{ValueBlockXor, 0x77}) // l+t > 7: malformed control byte
	f.Add(uint16(1), []byte{9})                   // unknown block form
	f.Fuzz(func(t *testing.T, n uint16, data []byte) {
		r := NewReader(data)
		dst := make([]float64, int(n)%1024)
		r.F64sXorInto(dst)
		_ = r.Err() // error or success both fine; panics are the bug
	})
}

// FuzzF64sXorMatchesReference: the word-at-a-time coder is the byte-wise
// reference (xor_ref_test.go) at word speed. For arbitrary bit patterns
// the encoder emits the reference's bytes, after an empty and a non-empty
// prefix alike; for arbitrary bytes and any claimed count the decoder
// agrees with the reference on error vs success, on the consumed offset
// and on every decoded bit.
func FuzzF64sXorMatchesReference(f *testing.F) {
	f.Add(uint16(0), []byte{})
	f.Add(uint16(8), make([]byte, 64))
	f.Add(uint16(2), []byte{1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint16(1), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xf0, 0x7f})
	f.Add(uint16(4), AppendF64sXor(nil, []float64{1, 1, 2.5, math.Copysign(0, -1)}))
	f.Add(uint16(2), []byte{ValueBlockXor, 0x77})
	f.Add(uint16(3), []byte{ValueBlockXor, 0x07, 1, 0x70, 2, 0x88, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, n uint16, data []byte) {
		vs := make([]float64, len(data)/8)
		for i := range vs {
			vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		for _, prefix := range [][]byte{nil, []byte("prefix")} {
			got := AppendF64sXor(slices.Clone(prefix), vs)
			want := refAppendF64sXor(slices.Clone(prefix), vs)
			if !bytes.Equal(got, want) {
				t.Fatalf("prefix %q, %d values: encoded\n%x\nreference\n%x", prefix, len(vs), got, want)
			}
		}

		count := int(n) % 1024
		got, want := make([]float64, count), make([]float64, count)
		r, ref := NewReader(data), NewReader(data)
		r.F64sXorInto(got)
		refF64sXorInto(ref, want)
		if (r.Err() == nil) != (ref.Err() == nil) || r.off != ref.off {
			t.Fatalf("%d values from %x: err %v at offset %d, reference err %v at offset %d",
				count, data, r.Err(), r.off, ref.Err(), ref.off)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%d values from %x: value %d bits %#x, reference %#x",
					count, data, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	})
}

// TestF64sXorGolden pins the CodecXor value-block bytes of one fixed block
// — a zero run, an equal run, the control-byte forms, the raw fallback and
// the empty block — independently of the reference coder.
func TestF64sXorGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		vs   []float64
		hex  string
	}{
		{"empty", nil, "00"},
		// 0, 0 (zero XOR words), 1.0 (3ff0… : l=0, t=6), 1.0 again, then
		// 1.5 (XOR 0008… : l=1, t=6) and -1.5 (XOR 80…: l=0, t=7).
		{"xor", []float64{0, 0, 1, 1, 1.5, -1.5}, "01888806f03f8816080780"},
		// The form decision at its edge: a full-width word (9 bytes), then
		// an XOR word with 1+2 zero bytes (6): 15 coded bytes < 16 raw.
		{"xor under raw", []float64{math.Float64frombits(0x0123456789abcdef), math.Float64frombits(0x0123547698badcef)},
			"0100efcdab8967452301211111111111"},
		// ... and with 0+2 zero bytes (7): 16 coded bytes, not smaller than
		// raw, so the block is stored raw.
		{"raw at equal size", []float64{math.Float64frombits(0x0123456789abcdef), math.Float64frombits(0x0123547698badcfe)},
			"00efcdab8967452301fedcba9876542301"},
	} {
		got := hex.EncodeToString(AppendF64sXor(nil, tc.vs))
		if got != tc.hex {
			t.Errorf("%s: encoded %s, want %s", tc.name, got, tc.hex)
		}
		b, err := hex.DecodeString(tc.hex)
		if err != nil {
			t.Fatal(err)
		}
		r := NewReader(b)
		dst := make([]float64, len(tc.vs))
		r.F64sXorInto(dst)
		if err := r.Done(); err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		for i := range dst {
			if math.Float64bits(dst[i]) != math.Float64bits(tc.vs[i]) {
				t.Errorf("%s: value %d decoded as %#x, want %#x", tc.name, i, math.Float64bits(dst[i]), math.Float64bits(tc.vs[i]))
			}
		}
	}
}
