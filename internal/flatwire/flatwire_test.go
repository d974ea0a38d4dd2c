package flatwire

import (
	"errors"
	"math"
	"testing"
)

// TestScalarRoundTrip: every append primitive reads back exactly, including
// float bit patterns the codecs rely on (NaN payloads, signed zero, ±Inf).
func TestScalarRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7ff8000000000001) // NaN with a payload
	floats := []float64{0, math.Copysign(0, -1), 1.5, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), nan}

	var b []byte
	b = AppendU32(b, 0xdeadbeef)
	b = AppendU64(b, math.MaxUint64)
	b = AppendI64(b, math.MinInt64)
	b = AppendF64(b, nan)
	b = AppendU32s(b, []uint32{1, 2, 3})
	b = AppendI32s(b, []int32{-1, 0, math.MaxInt32})
	b = AppendI64s(b, []int64{math.MinInt64, 7})
	b = AppendF64s(b, floats)
	b = AppendString(b, "hello")
	b = AppendString(b, "")

	r := NewReader(b)
	if got := r.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != math.MaxUint64 {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.I64(); got != math.MinInt64 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.F64(); math.Float64bits(got) != math.Float64bits(nan) {
		t.Errorf("F64 bits = %#x", math.Float64bits(got))
	}
	if got := r.U32s(3); got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("U32s = %v", got)
	}
	if got := r.I32s(3); got[0] != -1 || got[2] != math.MaxInt32 {
		t.Errorf("I32s = %v", got)
	}
	if got := r.I64s(2); got[0] != math.MinInt64 || got[1] != 7 {
		t.Errorf("I64s = %v", got)
	}
	got := r.F64s(len(floats))
	for i := range floats {
		if math.Float64bits(got[i]) != math.Float64bits(floats[i]) {
			t.Errorf("F64s[%d] bits = %#x, want %#x", i, math.Float64bits(got[i]), math.Float64bits(floats[i]))
		}
	}
	if s := r.String(); s != "hello" {
		t.Errorf("String = %q", s)
	}
	if s := r.String(); s != "" {
		t.Errorf("empty String = %q", s)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
	if math.Copysign(1, got[1]) != -1 {
		t.Errorf("negative zero lost its sign")
	}
}

// TestIntoForms: the allocation-free block decodes match the allocating
// ones.
func TestIntoForms(t *testing.T) {
	b := AppendU32s(nil, []uint32{9, 8, 7})
	b = AppendF64s(b, []float64{1.25, -2.5})
	r := NewReader(b)
	u := r.U32s(3)
	f := make([]float64, 2)
	r.F64sInto(f)
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
	if u[0] != 9 || u[2] != 7 || f[0] != 1.25 || f[1] != -2.5 {
		t.Errorf("Into decode: %v %v", u, f)
	}
}

// TestStickyError: after the first failed consume, every further read
// returns zeros and the original error survives to Err/Done.
func TestStickyError(t *testing.T) {
	r := NewReader(AppendU32(nil, 5)) // 4 bytes only
	if got := r.U64(); got != 0 {     // needs 8 — fails
		t.Errorf("truncated U64 = %d", got)
	}
	if r.Err() == nil || !errors.Is(r.Err(), ErrMalformed) {
		t.Fatalf("Err = %v, want ErrMalformed", r.Err())
	}
	first := r.Err()
	if got := r.U32(); got != 0 { // would succeed alone; sticky error wins
		t.Errorf("read after error = %d", got)
	}
	if r.F64s(2) != nil || r.String() != "" {
		t.Errorf("block reads after error returned data")
	}
	if r.Err() != first || r.Done() != first {
		t.Errorf("error was replaced: %v", r.Err())
	}
}

// TestCountValidation: a count that claims more elements than the buffer
// can hold fails fast instead of driving a giant allocation.
func TestCountValidation(t *testing.T) {
	b := AppendU32(nil, 1<<30) // count says 2^30 8-byte elements
	r := NewReader(b)
	if n := r.Count(8); n != 0 {
		t.Errorf("oversized Count = %d", n)
	}
	if !errors.Is(r.Err(), ErrMalformed) {
		t.Errorf("oversized count error = %v", r.Err())
	}

	// A plausible count over a truncated body still fails at the block read.
	b = AppendU32(nil, 3)
	b = AppendU32s(b, []uint32{1, 2}) // one element short
	r = NewReader(b)
	n := r.Count(4)
	if n != 0 || !errors.Is(r.Err(), ErrMalformed) {
		t.Errorf("count 3 over 8 bytes: n=%d err=%v", n, r.Err())
	}
}

// TestMagicAndTrailing: magic mismatches and unconsumed bytes are
// structural errors.
func TestMagicAndTrailing(t *testing.T) {
	b := AppendU32(nil, 0x12345678)
	r := NewReader(b)
	r.Magic(0x87654321, "test buffer")
	if !errors.Is(r.Err(), ErrMalformed) {
		t.Errorf("magic mismatch error = %v", r.Err())
	}

	r = NewReader(append(AppendU32(nil, 7), 0xff)) // one trailing byte
	if got := r.U32(); got != 7 {
		t.Errorf("U32 = %d", got)
	}
	if err := r.Done(); !errors.Is(err, ErrMalformed) {
		t.Errorf("trailing byte Done = %v", err)
	}
}

// TestVarintRoundTrip: LEB128 values of every width read back exactly,
// including the 10-byte maximum.
func TestVarintRoundTrip(t *testing.T) {
	vals := []uint64{0, 1, 0x7f, 0x80, 0x3fff, 0x4000, math.MaxUint32,
		math.MaxUint32 + 1, math.MaxUint64 - 1, math.MaxUint64}
	var b []byte
	for _, v := range vals {
		b = AppendUvarint(b, v)
	}
	b = AppendU8(b, 0xab)
	r := NewReader(b)
	for i, want := range vals {
		if got := r.Uvarint(); got != want {
			t.Errorf("varint %d = %d, want %d", i, got, want)
		}
	}
	if got := r.U8(); got != 0xab {
		t.Errorf("U8 = %#x", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestVarintMalformed: truncated and over-long encodings fail with
// ErrMalformed, never a hang or a silently wrong value.
func TestVarintMalformed(t *testing.T) {
	cases := map[string][]byte{
		"empty":      {},
		"truncated":  {0x80, 0x80},
		"overlong":   {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
		"overflow":   {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, // 2^70-ish
		"max-plus-1": {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02},
	}
	for name, b := range cases {
		r := NewReader(b)
		r.Uvarint()
		if !errors.Is(r.Err(), ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, r.Err())
		}
	}
}

// TestDeltaU32s: sorted index arrays round-trip through the delta-varint
// form, compress against the raw block, and reject corruption that would
// escape uint32.
func TestDeltaU32s(t *testing.T) {
	arrays := [][]uint32{
		nil,
		{0},
		{7, 7, 9}, // non-decreasing with a repeat
		{0, 1, 2, 3, 1000, math.MaxUint32},
		{127, 255, 16639}, // deltas 0x7f | 0x80 0x01 | 0x80 0x80 0x01: the one-byte path's edge
	}
	for i, vs := range arrays {
		b := AppendDeltaU32s(nil, vs)
		got := make([]uint32, len(vs))
		r := NewReader(b)
		r.DeltaU32sInto(got)
		if err := r.Done(); err != nil {
			t.Fatalf("array %d: %v", i, err)
		}
		for e := range vs {
			if got[e] != vs[e] {
				t.Errorf("array %d entry %d = %d, want %d", i, e, got[e], vs[e])
			}
		}
	}

	// Dense ascending indices: one byte per small delta vs four raw.
	dense := make([]uint32, 1000)
	for i := range dense {
		dense[i] = uint32(3 * i)
	}
	if delta, raw := len(AppendDeltaU32s(nil, dense)), 4*len(dense); delta*2 > raw {
		t.Errorf("delta form %d bytes, raw %d — expected at least 2× shrink on dense indices", delta, raw)
	}

	// A running value escaping uint32 is malformed — the signature of a
	// corrupted buffer or a non-sorted encoding.
	over := AppendUvarint(AppendUvarint(nil, math.MaxUint32), 1)
	r := NewReader(over)
	r.DeltaU32sInto(make([]uint32, 2))
	if !errors.Is(r.Err(), ErrMalformed) {
		t.Errorf("uint32 overflow not rejected: %v", r.Err())
	}

	// A decreasing "sorted" array wraps its delta; the decoder must reject
	// the encoding rather than reconstruct different values.
	wrapped := AppendDeltaU32s(nil, []uint32{5, 3})
	r = NewReader(wrapped)
	r.DeltaU32sInto(make([]uint32, 2))
	if !errors.Is(r.Err(), ErrMalformed) {
		t.Errorf("wrapped delta not rejected: %v", r.Err())
	}
}

// TestBlockAppendsGrowOnce: the block encoders grow a buffer once per
// call, not once per value, and Reserve makes exactly the room asked for.
func TestBlockAppendsGrowOnce(t *testing.T) {
	vs := make([]float64, 1000)
	ix := make([]uint32, 1000)
	for i := range ix {
		vs[i] = float64(i) / 3
		ix[i] = uint32(i * i)
	}
	for name, f := range map[string]func(){
		"AppendF64s":      func() { _ = AppendF64s(nil, vs) },
		"AppendDeltaU32s": func() { _ = AppendDeltaU32s(nil, ix) },
		"Reserve":         func() { _ = Reserve(nil, 100) },
	} {
		if n := testing.AllocsPerRun(20, f); n != 1 {
			t.Errorf("%s allocated %.0f times, want 1", name, n)
		}
	}
	if b := Reserve([]byte{1, 2}, 3); len(b) != 2 || cap(b) < 5 || b[1] != 2 {
		t.Errorf("Reserve kept %v with capacity %d", b, cap(b))
	}
	r := NewReader(AppendDeltaU32s(nil, ix))
	got := make([]uint32, len(ix))
	r.DeltaU32sInto(got)
	if err := r.Done(); err != nil || got[999] != ix[999] {
		t.Fatalf("delta round trip: %v, last %d", err, got[999])
	}
}
