package tfidf

import (
	"bytes"
	"testing"
)

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
// an accepted count reply must hold what the DF merge relies on (one name
// per document of its range, one DF per word, a strictly ascending
// vocabulary) and re-encode to itself.
func FuzzDecodeFlatWireShardCounts(f *testing.F) {
	sc := flatTestCounts()
	good := sc.EncodeFlat(nil)
	f.Add(good)
	f.Add(good[:len(good)-2])
	f.Add([]byte{})
	f.Add((&ShardCounts{Lo: 7, Hi: 7}).EncodeFlat(nil))
	f.Add(docCountsReply(sc)) // the retired layout with documents
	sc.DocNames = append(sc.DocNames, "d.txt")
	f.Add(sc.EncodeFlat(nil)) // a name past the range
	sc = flatTestCounts()
	sc.Words[2] = "alpha"
	f.Add(sc.EncodeFlat(nil)) // a vocabulary out of order
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := DecodeFlatShardCounts(data)
		if err != nil {
			return
		}
		if len(dec.DocNames) != dec.Hi-dec.Lo || len(dec.DF) != len(dec.Words) || dec.DocDicts != nil {
			t.Fatalf("accepted a reply of %d names for [%d, %d), %d DF for %d words",
				len(dec.DocNames), dec.Lo, dec.Hi, len(dec.DF), len(dec.Words))
		}
		for i := 1; i < len(dec.Words); i++ {
			if dec.Words[i] <= dec.Words[i-1] {
				t.Fatalf("accepted a vocabulary out of order at word %d", i)
			}
		}
		if re := dec.EncodeFlat(nil); !bytes.Equal(re, data) {
			t.Fatalf("an accepted reply re-encodes to other bytes")
		}
	})
}
