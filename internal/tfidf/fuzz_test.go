package tfidf

import "testing"

// FuzzDecodeFlatVectorShard: arbitrary input must error — never panic;
// accepted inputs must survive a re-encode/re-decode cycle.
func FuzzDecodeFlatVectorShard(f *testing.F) {
	vs := flatTestShard()
	good := vs.EncodeFlat(nil)
	f.Add(good)
	for _, v := range []byte{1, 2} { // retired codec versions
		old := append([]byte{}, good...)
		old[4] = v
		f.Add(old)
	}
	f.Add(good[:len(good)-4]) // truncated mid-names
	f.Add(good[:9])           // truncated mid-header
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecodeFlatVectorShard(data)
		if err != nil {
			return
		}
		re, err := DecodeFlatVectorShard(dec.EncodeFlat(nil))
		if err != nil {
			t.Fatalf("re-encoding an accepted payload failed to decode: %v", err)
		}
		if len(re.Vectors) != len(dec.Vectors) {
			t.Fatalf("re-decode changed document count: %d != %d", len(re.Vectors), len(dec.Vectors))
		}
	})
}

// FuzzDecodeFlatWireShardCounts: arbitrary input must error — never panic;
// an accepted payload must satisfy the invariants the kernels index by, so
// rebuilding live dictionaries from it cannot panic either.
func FuzzDecodeFlatWireShardCounts(f *testing.F) {
	w := flatTestCounts(true)
	good := w.EncodeFlat(nil)
	f.Add(good)
	f.Add(good[:len(good)-2])
	f.Add([]byte{})
	f.Add(flatTestCounts(false).EncodeFlat(nil))
	retired := append([]byte{}, good...)
	retired[4] = 1 // retired codec version
	f.Add(retired)
	w.Docs[0].Locals[1] = 1 // the same word twice in one document
	f.Add(w.EncodeFlat(nil))
	w.Docs[0].Locals[1] = 9 // a word outside the vocabulary
	f.Add(w.EncodeFlat(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecodeFlatWireShardCounts(data)
		if err != nil {
			return
		}
		for i, d := range dec.ShardCounts(Options{}).DocDicts {
			if d.Len() != len(dec.Docs[i].Locals) {
				t.Fatalf("document %d rebuilt with %d entries from %d", i, d.Len(), len(dec.Docs[i].Locals))
			}
		}
		if _, err := DecodeFlatWireShardCounts(dec.EncodeFlat(nil)); err != nil {
			t.Fatalf("re-encoding an accepted payload failed to decode: %v", err)
		}
	})
}
