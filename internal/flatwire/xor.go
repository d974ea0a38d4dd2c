package flatwire

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// This file implements the CodecXor (version 3) f64 value-block coding:
// lossless XOR-with-previous compression of IEEE 754 bit patterns.
//
// TF·IDF value blocks repeat heavily — every occurrence of a term with the
// same in-document frequency scores identically, and normalized vectors
// share exponent ranges — so XORing each value's bits with its
// predecessor's yields words that are exactly zero (equal values) or carry
// long zero-byte prefixes and suffixes. Each value is stored as:
//
//	0x88                                     the XOR word is zero
//	(L<<4 | T) byte, then 8−L−T raw bytes    otherwise
//
// where L and T count the XOR word's leading and trailing zero BYTES
// (each 0..7 — a nonzero word has at most 7 zero bytes, so L+T <= 7 and
// the control byte's high nibble never reaches 8, keeping 0x88
// unambiguous). The meaningful middle bytes are stored little-endian, in
// ascending byte position T..7−L.
//
// Every block is preceded by a one-byte form marker: ValueBlockXor selects
// the stream above; ValueBlockRaw stores the raw fixed-width bits instead,
// chosen by the encoder whenever XOR coding would not shrink the block —
// so a value block never grows by more than the marker byte. Decoding
// reconstructs the exact bit patterns either way.

// Value-block form markers (the byte before every CodecXor f64 block).
const (
	// ValueBlockRaw marks a raw fixed-width block behind the marker.
	ValueBlockRaw byte = 0
	// ValueBlockXor marks an XOR-with-previous coded block.
	ValueBlockXor byte = 1
	// xorZeroMarker encodes a zero XOR word (value equals its
	// predecessor) in one byte. Unreachable as a control byte: a nonzero
	// word has L <= 7, so the high nibble never reaches 8.
	xorZeroMarker byte = 0x88
)

// Process-wide value-block accounting: the raw size every coded block
// would occupy and the bytes it actually took (marker included), summed
// over encodes and decodes in this process. The CLI surfaces the ratio
// after a run; spans carry per-task deltas.
var (
	valueRawBytes   atomic.Int64
	valueCodedBytes atomic.Int64
)

// ValueBytes returns the process-wide (raw, coded) byte totals of every
// CodecXor value block encoded or decoded so far. raw is what the blocks
// would have occupied fixed-width; coded is what they took on the wire.
func ValueBytes() (raw, coded int64) {
	return valueRawBytes.Load(), valueCodedBytes.Load()
}

// xorF64Size returns the XOR-coded size of vs in bytes (marker excluded).
func xorF64Size(vs []float64) int {
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

// AppendF64sXor appends len(vs) values as a CodecXor value block: a form
// marker, then either the XOR stream or — when XOR coding would not
// shrink the block — the raw fixed-width bits. No length prefix: the
// codec's layout carries counts. Bit patterns round-trip exactly.
func AppendF64sXor(b []byte, vs []float64) []byte {
	raw := 8 * len(vs)
	coded := xorF64Size(vs)
	if coded >= raw {
		valueRawBytes.Add(int64(raw))
		valueCodedBytes.Add(int64(raw) + 1)
		b = append(b, ValueBlockRaw)
		return AppendF64s(b, vs)
	}
	valueRawBytes.Add(int64(raw))
	valueCodedBytes.Add(int64(coded) + 1)
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

// F64sXorInto consumes one CodecXor value block of len(dst) values,
// reconstructing the exact bit patterns. Truncated streams and malformed
// control bytes fail the reader, never panic.
func (r *Reader) F64sXorInto(dst []float64) {
	start := r.off
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
		return
	}
	if r.err == nil {
		valueRawBytes.Add(int64(8 * len(dst)))
		valueCodedBytes.Add(int64(r.off - start))
	}
}

// F64sXor consumes one CodecXor value block of n values into a fresh
// slice (nil when n is 0 and the block is well-formed).
func (r *Reader) F64sXor(n int) []float64 {
	if n == 0 {
		// Still consume the form marker (and validate it) so the layout
		// stays aligned.
		var none [0]float64
		r.F64sXorInto(none[:])
		return nil
	}
	dst := make([]float64, n)
	r.F64sXorInto(dst)
	if r.err != nil {
		return nil
	}
	return dst
}
