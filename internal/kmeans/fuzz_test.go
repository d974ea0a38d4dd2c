package kmeans

import "testing"

// FuzzDecodeFlatAccumWire: the decoder must reject arbitrary input with an
// error — never a panic; inputs that do decode must survive a
// re-encode/re-decode cycle.
func FuzzDecodeFlatAccumWire(f *testing.F) {
	w := flatTestAccum()
	good := w.EncodeFlat(nil)
	f.Add(good)
	for _, v := range []byte{1, 2} { // retired codec versions
		old := append([]byte{}, good...)
		old[4] = v
		f.Add(old)
	}
	f.Add(good[:len(good)-3]) // truncated mid-value-block
	f.Add(good[:7])           // truncated mid-header
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecodeFlatAccumWire(data)
		if err != nil {
			return
		}
		re, err := DecodeFlatAccumWire(dec.EncodeFlat(nil))
		if err != nil {
			t.Fatalf("re-encoding an accepted payload failed to decode: %v", err)
		}
		if len(re.Idx) != len(dec.Idx) {
			t.Fatalf("re-decode changed cluster count: %d != %d", len(re.Idx), len(dec.Idx))
		}
	})
}
