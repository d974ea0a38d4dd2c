// Package flatwire provides the primitives of the engine's flat wire
// codecs: explicit little-endian append/consume of fixed-width scalars and
// contiguous scalar blocks over plain []byte buffers.
//
// Everything the RPC backend puts on the wire — frames, kernel arguments,
// tfidf.VectorShard score vectors, kmeans centroid blocks (the rows of the
// centroids an iteration changed) — is
// a flat codec: one buffer with a fixed layout (magic header, scalar
// counts, then value blocks), so encoding is a handful of copies and
// decoding is bounds-checked slicing, with no reflection and no per-field
// allocation. Every
// codec built on this package validates structurally on decode (magic,
// lengths, truncation, trailing bytes) and returns errors, never panics: a
// malformed worker reply must fail the task, not the coordinator.
//
// Readers are sticky-error: after the first failed consume, every further
// read returns zero values and Err() reports the first failure, so decoders
// read the whole layout linearly and check once.
//
// # Codec versions
//
// Every flat payload with index or value blocks carries a codec version
// byte immediately after its magic. Each payload has exactly one live version, and its decoder
// rejects every other byte with ErrMalformed: coordinator and workers are
// one binary and no payload is ever stored, so there is no older encoding
// to stay compatible with.
//
//	payload                         version         index blocks          f64 value blocks
//	VectorShard, centroid block     CodecRaw (5)    delta-coded varints   raw IEEE 754 bits
//	tfidf.ShardCounts (count reply) CodecCounts (6) — (raw u32 block)     —
//
// A centroid block lists the rows it carries by cluster ID — every
// cluster in a full block, the changed ones in a delta — as one raw u32
// block ahead of its norms and rows.
//
// CodecRaw stores each sorted u32 index array delta-coded as unsigned
// varints (AppendDeltaU32s): ascending indexes make the deltas small, so
// most entries shrink from four bytes to one. The delta chain restarts for
// every sub-array (per document, per centroid), keeping windows
// independently decodable. f64 value blocks are the values' bit patterns,
// eight bytes each (AppendF64s): TF/IDF scores and centroid means share
// too few leading or trailing bytes with their neighbours for a lossless
// value coder to shrink them by more than a few percent, so decoding is a
// plain copy.
//
// CodecCounts is the count reply's layout: the shard vocabulary once, the
// document names, and the shard DF as one raw u32 block; the documents'
// own counts stay on the worker that counted them. Signed and unsigned
// fixed-width scalar blocks (counts, assignments, centroid-row IDs) are raw
// in every payload: they are small next to the index/value payload and
// decode allocation-free. Versions 1 (raw blocks throughout; the count
// reply with every document's words as strings), 2 (delta-coded indexes,
// raw values, no value-block marker), 3 (XOR-with-previous value blocks
// behind a form marker) and 4 (the count reply with every document's
// (vocabulary index, count) blocks) are retired; their numbers stay
// reserved so they are never reused.
package flatwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ErrMalformed reports a structurally invalid flat buffer. Decode errors
// wrap it, so callers can test errors.Is(err, ErrMalformed).
var ErrMalformed = errors.New("flatwire: malformed buffer")

// Codec layout versions (the byte after every payload magic — see the
// package comment).
const (
	// CodecRaw is layout version 5: delta-coded sorted u32 index arrays
	// plus raw f64 value blocks.
	CodecRaw byte = 5
	// CodecCounts is layout version 6, the count reply's only version: the
	// shard vocabulary, document names and DF, no documents.
	CodecCounts byte = 6
)

// Reserve returns b with room for n more bytes: b itself when it has them,
// else a copy in one allocation of len(b)+n bytes, or of twice b's
// capacity when that is more, so appending block after block stays
// amortized. An encoder that sized its payload gets exactly that room on
// a nil b, in one allocation — also under the race detector, where
// slices.Grow of a nil slice counts two.
func Reserve(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b
	}
	return append(make([]byte, 0, max(len(b)+n, 2*cap(b))), b...)
}

// AppendU8 appends one byte.
func AppendU8(b []byte, v byte) []byte { return append(b, v) }

// AppendUvarint appends v in LEB128 (7 bits per byte, high bit continues).
func AppendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// AppendDeltaU32s appends len(vs) values as varint-coded deltas from the
// previous value, starting from 0 — the compressed form of a sorted index
// array (vs must be non-decreasing; the decoder rejects anything a
// decreasing input would produce via its overflow check). No length
// prefix: the codec's layout carries counts. The buffer grows at most once,
// by the block's exact size.
func AppendDeltaU32s(b []byte, vs []uint32) []byte {
	n, prev := 0, uint32(0)
	for _, v := range vs {
		n += SizeUvarint(uint64(v - prev))
		prev = v
	}
	b, prev = Reserve(b, n), 0
	for _, v := range vs {
		b = AppendUvarint(b, uint64(v-prev))
		prev = v
	}
	return b
}

// SizeUvarint returns the encoded size of AppendUvarint(v): one byte per
// started 7 bits.
func SizeUvarint(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// AppendU32 appends v little-endian.
func AppendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

// AppendU64 appends v little-endian.
func AppendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// AppendI64 appends v little-endian (two's complement).
func AppendI64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

// AppendF64 appends v as its IEEE 754 bits, little-endian.
func AppendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendU32s appends len(vs) raw little-endian values (no length prefix —
// the codec's layout carries counts).
func AppendU32s(b []byte, vs []uint32) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

// AppendI32s appends len(vs) raw little-endian values.
func AppendI32s(b []byte, vs []int32) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

// AppendI64s appends len(vs) raw little-endian values.
func AppendI64s(b []byte, vs []int64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// AppendF64s appends len(vs) raw IEEE 754 bit patterns, growing the
// buffer at most once.
func AppendF64s(b []byte, vs []float64) []byte {
	start := len(b)
	b = Reserve(b, 8*len(vs))[:start+8*len(vs)]
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[start+8*i:], math.Float64bits(v))
	}
	return b
}

// AppendString appends a u32 length prefix and the bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// SizeString returns the encoded size of a length-prefixed string.
func SizeString(s string) int { return 4 + len(s) }

// Reader consumes a flat buffer linearly with a sticky error.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader wraps a buffer for consumption.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first consume failure, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records a failure (kept only if it is the first) wrapping
// ErrMalformed — the reader's own consumes use it, and so do decoders for
// what they validate beyond structure, keeping their layouts linear.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
	}
}

// take returns the next n bytes, or nil after recording truncation.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) || r.off+n < r.off {
		r.Fail("need %d bytes at offset %d of %d", n, r.off, len(r.b))
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

// U32 consumes one little-endian uint32.
func (r *Reader) U32() uint32 {
	s := r.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

// U64 consumes one little-endian uint64.
func (r *Reader) U64() uint64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

// I64 consumes one little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 consumes one IEEE 754 value.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Count consumes a u32 count and validates it against the remaining bytes
// at the given per-element width, so a corrupted count fails fast instead
// of driving a giant allocation.
func (r *Reader) Count(elemSize int) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if n < 0 || elemSize > 0 && n > (len(r.b)-r.off)/elemSize {
		r.Fail("count %d exceeds remaining %d bytes", n, len(r.b)-r.off)
		return 0
	}
	return n
}

// U32s consumes n raw values into a fresh slice (nil when n is 0).
func (r *Reader) U32s(n int) []uint32 {
	s := r.take(4 * n)
	if s == nil || n == 0 {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(s[4*i:])
	}
	return out
}

// I32s consumes n raw values into a fresh slice (nil when n is 0).
func (r *Reader) I32s(n int) []int32 {
	s := r.take(4 * n)
	if s == nil || n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(s[4*i:]))
	}
	return out
}

// I64s consumes n raw values into a fresh slice (nil when n is 0).
func (r *Reader) I64s(n int) []int64 {
	s := r.take(8 * n)
	if s == nil || n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(s[8*i:]))
	}
	return out
}

// F64s consumes n raw values into a fresh slice (nil when n is 0).
func (r *Reader) F64s(n int) []float64 {
	s := r.take(8 * n)
	if s == nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(s[8*i:]))
	}
	return out
}

// F64sInto consumes n raw values into dst (which must have length n) —
// the allocation-free form for preallocated block decodes.
func (r *Reader) F64sInto(dst []float64) {
	s := r.take(8 * len(dst))
	if s == nil {
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(s[8*i:]))
	}
}

// U8 consumes one byte.
func (r *Reader) U8() byte {
	s := r.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

// Uvarint consumes one LEB128-coded value, failing on truncation and on
// encodings longer than a uint64 (10 bytes).
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	var v uint64
	for shift := 0; ; shift += 7 {
		if r.off >= len(r.b) {
			r.Fail("truncated varint at offset %d", r.off)
			return 0
		}
		c := r.b[r.off]
		r.off++
		if shift == 63 && c > 1 {
			r.Fail("varint overflows uint64")
			return 0
		}
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
		if shift == 63 {
			r.Fail("varint overflows uint64")
			return 0
		}
	}
}

// DeltaU32sInto consumes len(dst) varint-coded deltas (AppendDeltaU32s),
// reconstructing the non-decreasing values into dst. A running value
// escaping uint32 — the signature of corruption or of a non-sorted
// encoding — is malformed. A one-byte delta, the common case, is consumed
// inline; longer ones go through Uvarint.
func (r *Reader) DeltaU32sInto(dst []uint32) {
	if r.err != nil {
		return
	}
	acc := uint64(0)
	b, off := r.b, r.off
	for i := range dst {
		if off < len(b) && b[off] < 0x80 {
			acc += uint64(b[off])
			off++
		} else {
			r.off = off
			if acc += r.Uvarint(); r.err != nil {
				return
			}
			off = r.off
		}
		if acc > math.MaxUint32 {
			r.off = off
			r.Fail("delta-coded value %d overflows uint32", acc)
			return
		}
		dst[i] = uint32(acc)
	}
	r.off = off
}

// String consumes a length-prefixed string.
func (r *Reader) String() string {
	n := r.Count(1)
	s := r.take(n)
	if s == nil {
		return ""
	}
	return string(s)
}

// Rest consumes and returns every remaining byte (nil after a failure) as
// a subslice of the buffer — the trailing body of a composite layout whose
// own decoder validates it.
func (r *Reader) Rest() []byte { return r.take(len(r.b) - r.off) }

// Magic consumes a u32 and checks it against want.
func (r *Reader) Magic(want uint32, what string) {
	got := r.U32()
	if r.err == nil && got != want {
		r.Fail("%s: magic %#x, want %#x", what, got, want)
	}
}

// Done validates that the buffer was consumed exactly: no prior error and
// no trailing bytes.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		r.Fail("%d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}
