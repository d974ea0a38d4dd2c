package kmeans

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"hpa/internal/flatwire"
)

// flatTestAccum builds a wire accumulator with the shapes the codec must
// handle: an empty cluster, awkward floats, a moved-assignment tally.
func flatTestAccum() *AccumWire {
	return &AccumWire{
		Idx:     [][]uint32{{0, 3, 7}, {}, {1}},
		Val:     [][]float64{{1.25, -0.1, math.SmallestNonzeroFloat64}, {}, {math.Pi}},
		Counts:  []int64{5, 0, 2},
		Inertia: 42.00000000000001,
		Changed: 3,
	}
}

// TestAccumWireFlatRoundTrip: the flat codec must reproduce the
// accumulator wire form bit-for-bit and agree with the gob path.
func TestAccumWireFlatRoundTrip(t *testing.T) {
	w := flatTestAccum()
	got, err := DecodeFlatAccumWire(w.EncodeFlat(nil))
	if err != nil {
		t.Fatalf("DecodeFlatAccumWire: %v", err)
	}

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	var viaGob AccumWire
	if err := gob.NewDecoder(&buf).Decode(&viaGob); err != nil {
		t.Fatalf("gob decode: %v", err)
	}

	for name, dec := range map[string]*AccumWire{"flat": got, "gob": &viaGob} {
		if math.Float64bits(dec.Inertia) != math.Float64bits(w.Inertia) {
			t.Errorf("%s: inertia bits differ", name)
		}
		if dec.Changed != w.Changed {
			t.Errorf("%s: changed %d, want %d", name, dec.Changed, w.Changed)
		}
		if !reflect.DeepEqual(dec.Counts, w.Counts) {
			t.Errorf("%s: counts %v", name, dec.Counts)
		}
		if len(dec.Idx) != len(w.Idx) {
			t.Fatalf("%s: %d clusters, want %d", name, len(dec.Idx), len(w.Idx))
		}
		for j := range w.Idx {
			if len(dec.Idx[j]) != len(w.Idx[j]) || len(dec.Val[j]) != len(w.Val[j]) {
				t.Fatalf("%s: cluster %d entry counts differ", name, j)
			}
			for e := range w.Idx[j] {
				if dec.Idx[j][e] != w.Idx[j][e] ||
					math.Float64bits(dec.Val[j][e]) != math.Float64bits(w.Val[j][e]) {
					t.Errorf("%s: cluster %d entry %d differs", name, j, e)
				}
			}
		}
	}
}

// TestAccumWireFlatComposite: ConsumeFlatAccumWire must stop exactly at
// the accumulator's end, leaving a trailing payload readable — the
// kmeans.assign reply concatenates further blocks after it.
func TestAccumWireFlatComposite(t *testing.T) {
	w := flatTestAccum()
	b := w.EncodeFlat(nil)
	b = flatwire.AppendU32(b, 0xcafe)
	r := flatwire.NewReader(b)
	if _, err := ConsumeFlatAccumWire(r); err != nil {
		t.Fatalf("ConsumeFlatAccumWire: %v", err)
	}
	if got := r.U32(); got != 0xcafe {
		t.Errorf("trailing payload = %#x", got)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

// TestAccumWireFlatMalformed: structural corruption fails with an error,
// never a panic or a silently wrong accumulator.
func TestAccumWireFlatMalformed(t *testing.T) {
	good := flatTestAccum().EncodeFlat(nil)
	cases := map[string][]byte{
		"empty":      {},
		"bad magic":  append([]byte{9, 9, 9, 9}, good[4:]...),
		"truncated":  good[:len(good)-5],
		"trailing":   append(append([]byte{}, good...), 0),
		"short head": good[:6],
	}
	// Corrupt a per-cluster entry count: nnz block starts after
	// magic(4)+codec(1)+k(4)+inertia(8)+changed(8)+counts(8×3).
	bad := append([]byte{}, good...)
	bad[4+1+4+8+8+24]++
	cases["nnz sum mismatch"] = bad
	// Every codec version byte but the one EncodeFlat writes must be
	// rejected, not guessed at — the retired versions 1 and 2 included.
	for _, v := range []byte{0, 1, 2, 99} {
		badCodec := append([]byte{}, good...)
		badCodec[4] = v
		cases[fmt.Sprintf("codec version %d", v)] = badCodec
	}
	// Entry counts the buffer cannot hold must fail before anything is
	// sized from them (fuzz-found: two clusters of 2^31 entries each).
	huge := append([]byte{}, good[:4+1]...)
	huge = flatwire.AppendU32(huge, 1)     // k
	huge = flatwire.AppendF64(huge, 0)     // inertia
	huge = flatwire.AppendI64(huge, 0)     // changed
	huge = flatwire.AppendI64(huge, 1)     // counts
	huge = flatwire.AppendU32(huge, 1<<30) // nnz
	huge = flatwire.AppendU32(huge, 1<<30) // total
	cases["entry count past the buffer"] = huge
	// A zero delta encodes a duplicate index; entries must strictly ascend.
	dup := flatTestAccum()
	dup.Idx[0][1] = dup.Idx[0][0]
	cases["duplicate index"] = dup.EncodeFlat(nil)

	for name, b := range cases {
		w, err := DecodeFlatAccumWire(b)
		if err == nil {
			t.Errorf("%s: decoded without error: %+v", name, w)
			continue
		}
		if name != "nnz sum mismatch" && !errors.Is(err, flatwire.ErrMalformed) {
			t.Errorf("%s: error %v does not wrap ErrMalformed", name, err)
		}
	}
}

// TestAccumWireEncodeAllocatesOnce: EncodeFlat(nil) sizes its buffer from
// a worst-case bound that covers the XOR coder's word-store overhang, so
// an encode is one allocation — also when the bound is tight: five-byte
// index deltas, and a bound without the overhang (112 bytes) that is an
// allocation size class, so the allocator adds no slack of its own.
func TestAccumWireEncodeAllocatesOnce(t *testing.T) {
	tight := &AccumWire{
		Idx:    [][]uint32{{1 << 28, 2 << 28, 3 << 28, 4 << 28, 5 << 28}},
		Val:    [][]float64{{1, 2, 3, 4, 5}},
		Counts: []int64{5},
	}
	for name, w := range map[string]*AccumWire{"mixed": flatTestAccum(), "tight": tight} {
		if n := testing.AllocsPerRun(20, func() { _ = w.EncodeFlat(nil) }); n != 1 {
			t.Errorf("%s: EncodeFlat(nil) allocated %.0f times, want 1", name, n)
		}
	}
}

// TestAccumWireFlatDeltaShrinks: the delta-varint idx block must undercut
// what a raw u32 block would occupy.
func TestAccumWireFlatDeltaShrinks(t *testing.T) {
	w := &AccumWire{
		Idx:    make([][]uint32, 4),
		Val:    make([][]float64, 4),
		Counts: []int64{1, 1, 1, 1},
	}
	for j := range w.Idx {
		for i := 0; i < 500; i++ {
			w.Idx[j] = append(w.Idx[j], uint32(j+i*3)) // ascending, small deltas
			w.Val[j] = append(w.Val[j], float64(i))
		}
	}
	total := 4 * 500
	flat := len(w.EncodeFlat(nil))
	raw := flat - encodedIdxBytes(w) + 4*total
	if flat >= raw {
		t.Fatalf("delta-coded payload %d bytes >= raw-equivalent %d", flat, raw)
	}
	t.Logf("accum: delta %d bytes vs raw %d (%.1f%%)", flat, raw, 100*float64(flat)/float64(raw))
}

// encodedIdxBytes returns the delta-varint idx block size of w's encoding.
func encodedIdxBytes(w *AccumWire) int {
	n := 0
	for j := range w.Idx {
		n += len(flatwire.AppendDeltaU32s(nil, w.Idx[j]))
	}
	return n
}

// flatTestCentroids is a centroid matrix with the shapes the block codec
// must handle: an all-zero row, a negative zero, awkward floats.
func flatTestCentroids() ([][]float64, []float64) {
	return [][]float64{
		{1.25, 0, 0, -0.1, 0, 0, 0, math.SmallestNonzeroFloat64},
		make([]float64, 8),
		{0, math.Pi, math.Copysign(0, -1), 0, 0, 0, 0, 0},
	}, []float64{1.5725, 0, math.Pi * math.Pi}
}

// TestCentroidsFlatRoundTrip: a decoded block must give every dot product
// and distance the bits the coordinator's matrix gives — non-zero entries
// and norms bit for bit, zeros as zeros of either sign — and overwrite a
// recycled destination completely.
func TestCentroidsFlatRoundTrip(t *testing.T) {
	cents, cnorms := flatTestCentroids()
	b := AppendFlatCentroids([]byte{0xaa}, cents, cnorms)
	if b[0] != 0xaa {
		t.Fatalf("prefix overwritten")
	}
	got := [][]float64{make([]float64, 8), make([]float64, 8), make([]float64, 8)}
	for j := range got {
		for d := range got[j] {
			got[j][d] = 99 // stale state from the previous iteration
		}
	}
	gotNorms := []float64{99, 99, 99}
	if err := DecodeFlatCentroids(b[1:], got, gotNorms); err != nil {
		t.Fatalf("DecodeFlatCentroids: %v", err)
	}
	for j := range cents {
		if math.Float64bits(gotNorms[j]) != math.Float64bits(cnorms[j]) {
			t.Errorf("norm %d: %v, want %v", j, gotNorms[j], cnorms[j])
		}
		for d, want := range cents[j] {
			if g := got[j][d]; g != want || want != 0 && math.Float64bits(g) != math.Float64bits(want) {
				t.Errorf("centroid %d[%d]: %v, want %v", j, d, g, want)
			}
		}
	}
}

// TestCentroidsFlatMalformed: a rejected block fails with an error wrapping
// flatwire.ErrMalformed and leaves the destination untouched.
func TestCentroidsFlatMalformed(t *testing.T) {
	cents, cnorms := flatTestCentroids()
	good := AppendFlatCentroids(nil, cents, cnorms)
	wide := [][]float64{append(cents[0], 0, 7), append(cents[1], 0, 0), append(cents[2], 0, 0)}
	badCodec := append([]byte{}, good...)
	badCodec[4] = 2
	for name, b := range map[string][]byte{
		"empty":         {},
		"bad magic":     append([]byte{9, 9, 9, 9}, good[4:]...),
		"codec version": badCodec,
		"truncated":     good[:len(good)-5],
		"trailing":      append(append([]byte{}, good...), 0),
		"fewer rows":    AppendFlatCentroids(nil, cents[:2], cnorms[:2]),
		"row past dim":  AppendFlatCentroids(nil, wide, cnorms),
	} {
		dst := [][]float64{make([]float64, 8), make([]float64, 8), make([]float64, 8)}
		dst[0][0] = 42
		norms := []float64{1, 2, 3}
		err := DecodeFlatCentroids(b, dst, norms)
		if !errors.Is(err, flatwire.ErrMalformed) {
			t.Errorf("%s: error %v does not wrap ErrMalformed", name, err)
		}
		if dst[0][0] != 42 || dst[0][3] != 0 || norms[0] != 1 {
			t.Errorf("%s: rejected block modified the destination", name)
		}
	}
}

// TestWireIntoRecycles: WireInto must produce what Wire produces while
// reusing the previous iteration's backing arrays.
func TestWireIntoRecycles(t *testing.T) {
	docs, _ := blobs(60, 3, 12, 5)
	a := NewAccumFor(3, 12)
	for i := range docs {
		a.accs[i%3].Accumulate(&docs[i])
	}
	a.inertia, a.changed = 3.5, 7
	w := a.WireInto(nil)
	if !reflect.DeepEqual(w, a.Wire()) {
		t.Fatalf("WireInto(nil) differs from Wire")
	}
	first := &w.Idx[0][0]
	a.Reset()
	for i := range docs[:30] {
		a.accs[i%3].Accumulate(&docs[i])
	}
	w2 := a.WireInto(w)
	if w2 != w || &w2.Idx[0][0] != first {
		t.Errorf("WireInto did not reuse the wire form it was given")
	}
	if !reflect.DeepEqual(w2, a.Wire()) {
		t.Errorf("recycled wire form differs from a fresh one")
	}
	if other := NewAccumFor(5, 12).WireInto(w); len(other.Idx) != 5 {
		t.Errorf("a wire form of another cluster count was reused")
	}
}
