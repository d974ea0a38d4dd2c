package kmeans

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"slices"
	"testing"

	"hpa/internal/flatwire"
	"hpa/internal/par"
	"hpa/internal/sparse"
)

// flatTestAccum builds a wire partial with a moved-assignment tally.
func flatTestAccum() *AccumWire { return &AccumWire{Changed: 3} }

// TestAccumWireFlatRoundTrip: the flat codec must reproduce the wire
// partial exactly and agree with the gob path.
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
		if *dec != *w {
			t.Errorf("%s: decoded %+v, want %+v", name, dec, w)
		}
	}
}

// TestAccumWireFlatComposite: ConsumeFlatAccumWire must stop exactly at
// the partial's end, leaving a trailing payload readable — the
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

// TestAccumWireFlatMalformed: structural corruption fails with an error
// wrapping ErrMalformed, never a panic or a silently wrong partial.
func TestAccumWireFlatMalformed(t *testing.T) {
	good := flatTestAccum().EncodeFlat(nil)
	cases := map[string][]byte{
		"empty":      {},
		"bad magic":  append([]byte{9, 9, 9, 9}, good[4:]...),
		"truncated":  good[:len(good)-1],
		"trailing":   append(append([]byte{}, good...), 0),
		"short head": good[:3],
		// The retired layout (per-cluster centroid sums behind magic
		// "HPAW" and a codec byte) is not guessed at.
		"retired layout":       append(flatwire.AppendU32(nil, 0x48504157), 3, 1, 0, 0, 0),
		"negative moved count": flatwire.AppendI64(flatwire.AppendU32(nil, accumWireMagic), -1),
	}
	for name, b := range cases {
		w, err := DecodeFlatAccumWire(b)
		if err == nil {
			t.Errorf("%s: decoded without error: %+v", name, w)
			continue
		}
		if !errors.Is(err, flatwire.ErrMalformed) {
			t.Errorf("%s: error %v does not wrap ErrMalformed", name, err)
		}
	}
}

// TestAccumWireEncodeAllocatesOnce: EncodeFlat(nil) sizes its buffer up
// front, so an encode is one allocation.
func TestAccumWireEncodeAllocatesOnce(t *testing.T) {
	w := flatTestAccum()
	if n := testing.AllocsPerRun(20, func() { _ = w.EncodeFlat(nil) }); n != 1 {
		t.Errorf("EncodeFlat(nil) allocated %.0f times, want 1", n)
	}
}

// TestAppendFlatCentroidsAllocatesOnce: the encoder sizes a block exactly
// before it writes, so a full block and a delta each cost one allocation.
func TestAppendFlatCentroidsAllocatesOnce(t *testing.T) {
	cents, cnorms := flatTestCentroids()
	for name, rows := range map[string][]bool{"full": nil, "delta": {true, false, true}} {
		if n := testing.AllocsPerRun(20, func() { _ = AppendFlatCentroids(nil, cents, cnorms, rows) }); n != 1 {
			t.Errorf("%s: AppendFlatCentroids(nil) allocated %.0f times, want 1", name, n)
		}
	}
}

// TestAppendFlatCentroidsMatchesSparseRows: the dense gather writes the
// bytes of the block built from sparse.FromDense rows — one- to
// three-byte index deltas, NaN kept, ±0 dropped, empty rows — full and
// delta alike.
func TestAppendFlatCentroidsMatchesSparseRows(t *testing.T) {
	const dim = 40000
	cents := [][]float64{make([]float64, dim), make([]float64, dim), make([]float64, dim), make([]float64, dim)}
	for _, d := range []int{0, 1, 127, 128, 300, 16511, 16512, dim - 1} {
		cents[0][d] = float64(d) + 0.5
	}
	cents[1][5], cents[1][6], cents[1][9000] = math.NaN(), math.Copysign(0, -1), -2
	for d := 0; d < dim; d += 3 {
		cents[3][d] = 1 / float64(d+1)
	}
	cnorms := []float64{1, 2, 0, 4}
	for name, rows := range map[string][]bool{"full": nil, "delta": {true, false, true, true}} {
		var ids []uint32
		var norms []float64
		var vecs []sparse.Vector
		for j := range cents {
			if rows == nil || rows[j] {
				ids, norms = append(ids, uint32(j)), append(norms, cnorms[j])
				vecs = append(vecs, sparse.FromDense(cents[j]))
			}
		}
		if got, want := AppendFlatCentroids(nil, cents, cnorms, rows), rawCentroidBlock(len(cents), ids, norms, vecs); !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes differ from the %d-byte block of FromDense rows", name, len(got), len(want))
		}
	}
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

// rawCentroidBlock hand-builds a centroid block for k clusters carrying
// the given IDs, norms and rows as they are, so tests can write what
// AppendFlatCentroids never would.
func rawCentroidBlock(k int, ids []uint32, cnorms []float64, rows []sparse.Vector) []byte {
	b := flatwire.AppendU32(nil, centroidsMagic)
	b = flatwire.AppendU8(b, flatwire.CodecRaw)
	b = flatwire.AppendU32(b, uint32(k))
	b = flatwire.AppendU32(b, uint32(len(ids)))
	b = flatwire.AppendU32s(b, ids)
	b = flatwire.AppendF64s(b, cnorms)
	return sparse.AppendFlatVectors(b, rows)
}

// staleCentroids returns a 3 × 8 destination matrix and norms filled with
// 99s — the previous iteration's state a decode overwrites.
func staleCentroids() ([][]float64, []float64) {
	got := [][]float64{make([]float64, 8), make([]float64, 8), make([]float64, 8)}
	for j := range got {
		for d := range got[j] {
			got[j][d] = 99
		}
	}
	return got, []float64{99, 99, 99}
}

// sameCentroidRow reports whether a decoded row gives the bits of want:
// non-zero entries and the norm bit for bit, zeros as zeros of either sign.
func sameCentroidRow(got, want []float64, gotNorm, wantNorm float64) bool {
	if math.Float64bits(gotNorm) != math.Float64bits(wantNorm) {
		return false
	}
	for d, w := range want {
		if g := got[d]; g != w || w != 0 && math.Float64bits(g) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// TestCentroidsFlatRoundTrip: a decoded block must give every dot product
// and distance the bits the coordinator's matrix gives — non-zero entries
// and norms bit for bit, zeros as zeros of either sign. A full block
// overwrites a recycled destination completely; a delta overwrites exactly
// the rows it carries and leaves the others' bits where they were.
func TestCentroidsFlatRoundTrip(t *testing.T) {
	cents, cnorms := flatTestCentroids()
	for _, tc := range []struct {
		name string
		rows []bool
		want []uint32
	}{
		{"full", nil, []uint32{0, 1, 2}},
		{"every row marked", []bool{true, true, true}, []uint32{0, 1, 2}},
		{"rows 0 and 2", []bool{true, false, true}, []uint32{0, 2}},
		{"row 1", []bool{false, true, false}, []uint32{1}},
		{"no row", []bool{false, false, false}, nil},
	} {
		b := AppendFlatCentroids([]byte{0xaa}, cents, cnorms, tc.rows)
		if b[0] != 0xaa {
			t.Fatalf("%s: prefix overwritten", tc.name)
		}
		got, gotNorms := staleCentroids()
		ids, err := DecodeFlatCentroids(b[1:], got, gotNorms, tc.rows == nil)
		if err != nil {
			t.Fatalf("%s: DecodeFlatCentroids: %v", tc.name, err)
		}
		if !slices.Equal(ids, tc.want) {
			t.Errorf("%s: decoded rows %v, want %v", tc.name, ids, tc.want)
		}
		for j := range cents {
			carried := tc.rows == nil || tc.rows[j]
			if carried && !sameCentroidRow(got[j], cents[j], gotNorms[j], cnorms[j]) {
				t.Errorf("%s: centroid %d = %v (norm %v), want %v (norm %v)", tc.name, j, got[j], gotNorms[j], cents[j], cnorms[j])
			}
			if !carried && (gotNorms[j] != 99 || slices.ContainsFunc(got[j], func(x float64) bool { return x != 99 })) {
				t.Errorf("%s: centroid %d was not in the block but changed to %v (norm %v)", tc.name, j, got[j], gotNorms[j])
			}
		}
	}
}

// TestCentroidsFlatMalformed: a rejected block fails with an error wrapping
// flatwire.ErrMalformed and leaves the destination untouched — a row list
// that could index outside the matrix or update a row twice included.
func TestCentroidsFlatMalformed(t *testing.T) {
	cents, cnorms := flatTestCentroids()
	good := AppendFlatCentroids(nil, cents, cnorms, nil)
	wide := [][]float64{append(cents[0], 0, 7), append(cents[1], 0, 0), append(cents[2], 0, 0)}
	badCodec := append([]byte{}, good...)
	badCodec[4] = 2
	rows := []sparse.Vector{sparse.FromDense(cents[0]), sparse.FromDense(cents[1]),
		sparse.FromDense(cents[2]), sparse.FromDense(cents[0])}
	for name, tc := range map[string]struct {
		b    []byte
		full bool
	}{
		"empty":            {[]byte{}, false},
		"bad magic":        {append([]byte{9, 9, 9, 9}, good[4:]...), false},
		"codec version":    {badCodec, false},
		"truncated":        {good[:len(good)-5], false},
		"trailing":         {append(append([]byte{}, good...), 0), false},
		"fewer clusters":   {AppendFlatCentroids(nil, cents[:2], cnorms[:2], nil), false},
		"more clusters":    {rawCentroidBlock(4, []uint32{0, 1}, cnorms[:2], rows[:2]), false},
		"row past dim":     {AppendFlatCentroids(nil, wide, cnorms, nil), false},
		"delta as full":    {AppendFlatCentroids(nil, cents, cnorms, []bool{true, false, true}), true},
		"ID = k":           {rawCentroidBlock(3, []uint32{0, 3}, cnorms[:2], rows[:2]), false},
		"ID 2^32-1":        {rawCentroidBlock(3, []uint32{math.MaxUint32}, cnorms[:1], rows[:1]), false},
		"duplicate IDs":    {rawCentroidBlock(3, []uint32{1, 1}, cnorms[:2], rows[:2]), false},
		"descending IDs":   {rawCentroidBlock(3, []uint32{2, 0}, cnorms[:2], rows[:2]), false},
		"more rows than k": {rawCentroidBlock(3, []uint32{0, 1, 2, 3}, append(cnorms, 1), rows), false},
	} {
		dst := [][]float64{make([]float64, 8), make([]float64, 8), make([]float64, 8)}
		dst[0][0], dst[2][1] = 42, 43
		norms := []float64{1, 2, 3}
		ids, err := DecodeFlatCentroids(tc.b, dst, norms, tc.full)
		if !errors.Is(err, flatwire.ErrMalformed) || ids != nil {
			t.Errorf("%s: rows %v, error %v; want none and one wrapping ErrMalformed", name, ids, err)
		}
		if dst[0][0] != 42 || dst[0][3] != 0 || dst[2][1] != 43 || !slices.Equal(norms, []float64{1, 2, 3}) {
			t.Errorf("%s: rejected block modified the destination", name)
		}
	}
}

// TestAccumWireIsFixedSize: a shard's partial carries its moved count and
// nothing that scales with k, the dimension or the shard — the wire form
// of a real iteration's partial at k = 16 is as long as an empty one's,
// and survives the round trip.
func TestAccumWireIsFixedSize(t *testing.T) {
	docs, _ := blobs(200, 4, 24, 5)
	p := par.NewPool(1)
	defer p.Close()
	c, err := New(docs, 24, p, Options{K: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	a := c.NewAccum()
	c.AssignShard(0, len(docs), a)
	w := a.Wire()
	if w.Changed != len(docs) {
		t.Fatalf("first iteration moved %d of %d documents", w.Changed, len(docs))
	}
	b := w.EncodeFlat(nil)
	if empty := (&AccumWire{}).EncodeFlat(nil); len(b) != len(empty) {
		t.Errorf("a k=16 partial encodes to %d bytes, an empty one to %d", len(b), len(empty))
	}
	got, err := DecodeFlatAccumWire(b)
	if err != nil || *got != *w {
		t.Fatalf("round trip: %+v, %v; want %+v", got, err, w)
	}
}
