package kmeans

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"testing"

	"hpa/internal/flatwire"
	"hpa/internal/par"
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
		"retired layout":       append(flatwire.AppendU32(nil, 0x48504157), flatwire.CodecXor, 1, 0, 0, 0),
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
