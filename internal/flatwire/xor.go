package flatwire

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
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
//
// The coder works a word at a time. The encoder writes each value's XOR
// word, shifted down by its trailing zero bytes, with one unaligned 8-byte
// store and advances past the meaningful bytes only, so a block needs 8
// bytes of slack past its worst case (1 + 9 bytes a value). The decoder
// loads one word per value while a control byte and a full word follow and
// masks it to the meaningful bytes; the block's last few values, and any
// malformed or truncated one, take a byte-wise loop. The bytes are those of
// the byte-at-a-time reference coder in xor_ref_test.go, which
// FuzzF64sXorMatchesReference holds the two to.

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

// AppendF64sXor appends len(vs) values as a CodecXor value block: a form
// marker, then either the XOR stream or — when XOR coding would not
// shrink the block — the raw fixed-width bits. No length prefix: the
// codec's layout carries counts. Bit patterns round-trip exactly.
//
// One pass, one store per value: the buffer grows once by the worst case
// (marker, 9 bytes a value) plus the 8 bytes the last word store may
// overhang, each value writes its control byte and then its whole shifted
// XOR word unaligned, and the write position advances past the meaningful
// bytes only — the next value overwrites the rest. The pass is abandoned,
// and the block rewritten raw, as soon as the stream reaches the raw size.
func AppendF64sXor(b []byte, vs []float64) []byte {
	raw := 8 * len(vs)
	start := len(b)
	b = slices.Grow(b, 1+9*len(vs)+8)
	out := b[start : start+1+9*len(vs)+8]
	out[0] = ValueBlockXor
	n := 1 // bytes written, marker included
	prev := uint64(0)
	for _, v := range vs {
		bitsV := math.Float64bits(v)
		x := bitsV ^ prev
		prev = bitsV
		// A zero word has l = t = 8: its control byte is xorZeroMarker, its
		// store writes zeros, and it advances by one byte.
		l := bits.LeadingZeros64(x) / 8
		t := bits.TrailingZeros64(x) / 8
		out[n] = byte(l<<4 | t)
		binary.LittleEndian.PutUint64(out[n+1:], x>>(8*uint(t)&63))
		n += max(9-l-t, 1)
		if n > raw {
			break
		}
	}
	if n > raw {
		// The stream (n−1 bytes) would not shrink the block; an empty block
		// lands here too.
		valueRawBytes.Add(int64(raw))
		valueCodedBytes.Add(int64(raw) + 1)
		b = append(b[:start], ValueBlockRaw)
		return AppendF64s(b, vs)
	}
	valueRawBytes.Add(int64(raw))
	valueCodedBytes.Add(int64(n))
	return b[:start+n]
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
		b, off, i := r.b, r.off, 0
		for ; i < len(dst) && off+9 <= len(b); i++ {
			if c := b[off]; c != xorZeroMarker {
				l, t := uint(c>>4), uint(c&0x0f)
				if l+t > 7 {
					break // the byte-wise loop reports it
				}
				m := 8 - l - t
				w := binary.LittleEndian.Uint64(b[off+1:])
				prev ^= (w & (math.MaxUint64 >> ((64 - 8*m) & 63))) << (8 * t & 63)
				off += int(m)
			}
			off++
			dst[i] = math.Float64frombits(prev)
		}
		r.off = off
		for ; i < len(dst); i++ {
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
