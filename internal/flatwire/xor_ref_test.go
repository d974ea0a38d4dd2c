package flatwire

import (
	"math"
	"math/bits"
)

// The byte-at-a-time CodecXor value-block coder: the reference the
// word-at-a-time AppendF64sXor and F64sXorInto must match byte for byte
// and bit for bit (FuzzF64sXorMatchesReference). It sizes the XOR stream
// in a pre-pass, picks the form from that size, and moves one byte at a
// time. It keeps no ValueBytes accounting.

// refXorF64Size returns the XOR-coded size of vs in bytes (marker excluded).
func refXorF64Size(vs []float64) int {
	size := 0
	prev := uint64(0)
	for _, v := range vs {
		x := math.Float64bits(v) ^ prev
		prev ^= x
		if x == 0 {
			size++
			continue
		}
		size += 9 - bits.LeadingZeros64(x)/8 - bits.TrailingZeros64(x)/8
	}
	return size
}

// refAppendF64sXor is the reference encoder.
func refAppendF64sXor(b []byte, vs []float64) []byte {
	if refXorF64Size(vs) >= 8*len(vs) {
		b = append(b, ValueBlockRaw)
		return AppendF64s(b, vs)
	}
	b = append(b, ValueBlockXor)
	prev := uint64(0)
	for _, v := range vs {
		bitsV := math.Float64bits(v)
		x := bitsV ^ prev
		prev = bitsV
		if x == 0 {
			b = append(b, xorZeroMarker)
			continue
		}
		l := bits.LeadingZeros64(x) / 8
		t := bits.TrailingZeros64(x) / 8
		b = append(b, byte(l<<4|t))
		for i := t; i < 8-l; i++ {
			b = append(b, byte(x>>(8*uint(i))))
		}
	}
	return b
}

// refF64sXorInto is the reference decoder: one U8 per control byte, one
// take per value.
func refF64sXorInto(r *Reader, dst []float64) {
	switch form := r.U8(); form {
	case ValueBlockRaw:
		r.F64sInto(dst)
	case ValueBlockXor:
		prev := uint64(0)
		for i := range dst {
			c := r.U8()
			if r.err != nil {
				return
			}
			if c != xorZeroMarker {
				l, t := int(c>>4), int(c&0x0f)
				if l+t > 7 {
					r.Fail("xor control byte %#x: %d+%d zero bytes", c, l, t)
					return
				}
				s := r.take(8 - l - t)
				if s == nil {
					return
				}
				var x uint64
				for bi, by := range s {
					x |= uint64(by) << (8 * uint(t+bi))
				}
				prev ^= x
			}
			dst[i] = math.Float64frombits(prev)
		}
	default:
		if r.err == nil {
			r.Fail("unknown value-block form %d", form)
		}
	}
}
