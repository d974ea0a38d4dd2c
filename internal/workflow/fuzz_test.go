package workflow

import (
	"bytes"
	"io"
	"math"
	"testing"

	"hpa/internal/flatwire"
	"hpa/internal/pario"
	"hpa/internal/sparse"
	"hpa/internal/tfidf"
)

// The request decoders face the socket: arbitrary input must come back as
// an error — never a panic, never an allocation the input cannot pay for —
// and whatever a decoder accepts must survive a re-encode/re-decode cycle
// unchanged (compared as encoded bytes: exact, and indifferent to NaNs).

func fuzzInit() *KMShardInit {
	return &KMShardInit{
		Vectors: []sparse.Vector{{Idx: []uint32{0, 5}, Val: []float64{1.25, -2.5}}, {}},
		Norms:   []float64{7.8125, 0},
		Dim:     6, K: 2, Block: 8,
	}
}

// seedTruncations adds good and a few damaged forms of it to the corpus.
func seedTruncations(f *testing.F, good []byte) {
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add(good[:len(good)/2])
	f.Add(append(append([]byte{}, good...), 0))
	f.Add([]byte{})
}

func FuzzDecodeFlatKMAssignTaskArgs(f *testing.F) {
	seedTruncations(f, (&KMAssignTaskArgs{Loop: "km-1-2", Shard: 3, Iter: 17, Init: fuzzInit(), Assign: []int32{-1, 1}}).AppendFlat(nil))
	seedTruncations(f, (&KMAssignTaskArgs{Loop: "km-1-2", Assign: []int32{0}}).AppendFlat(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeFlatKMAssignTaskArgs(data)
		if err != nil {
			return
		}
		enc := a.AppendFlat(nil)
		if re, err := DecodeFlatKMAssignTaskArgs(enc); err != nil || !bytes.Equal(re.AppendFlat(nil), enc) {
			t.Fatalf("accepted arguments do not round-trip: %+v vs %+v (%v)", re, a, err)
		}
		// The worker sizes the loop's dense centroid matrix from an accepted
		// init (testdata/fuzz holds one asking for 2⁸⁰ floats).
		if in := a.Init; in != nil && in.Dim > 0 && in.K > maxFrameBytes/8/in.Dim {
			t.Fatalf("accepted an init of k=%d × dimension %d, past the frame cap", in.K, in.Dim)
		}
	})
}

func FuzzDecodeFlatKMSeedTaskArgs(f *testing.F) {
	seedTruncations(f, (&KMSeedTaskArgs{
		Loop: "km-1-2", Shard: 1, Init: fuzzInit(),
		Last: sparse.Vector{Idx: []uint32{2, 4}, Val: []float64{0.5, -1}}, D2: []float64{math.Inf(1), 0.25},
	}).AppendFlat(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeFlatKMSeedTaskArgs(data)
		if err != nil {
			return
		}
		enc := a.AppendFlat(nil)
		if re, err := DecodeFlatKMSeedTaskArgs(enc); err != nil || !bytes.Equal(re.AppendFlat(nil), enc) {
			t.Fatalf("accepted arguments do not round-trip: %+v vs %+v (%v)", re, a, err)
		}
		// The kernel must answer whatever the decoder accepts — a seed past
		// the loop's dimension included (testdata/fuzz) — with a reply or an
		// error, never a panic. Small shapes only: a session allocates
		// k × dim floats.
		if a.Init != nil && a.Init.K <= 64 && a.Init.Dim <= 1024 {
			runKMSeedKernel(newWorkerStore(), &kernelCall{args: data}, nil)
		}
	})
}

// fuzzCount is a well-formed count descriptor.
func fuzzCount() *CountTaskArgs {
	return &CountTaskArgs{
		Shard:   pario.SourceSpec{Paths: []string{"/a/doc1.txt", "/a/doc2.txt"}, Lo: 4, Hi: 6},
		Session: "tf-9-1-0",
		Opts:    tfidf.WireOptions{DictKind: 1, MinWordLen: 2, Stem: true, Normalize: true},
	}
}

func FuzzDecodeFlatCountTaskArgs(f *testing.F) {
	seedTruncations(f, fuzzCount().AppendFlat(nil))
	// Ranges the decoder must reject: backwards, and not one document per
	// path.
	for _, lo := range []int{7, 3} {
		a := fuzzCount()
		a.Shard.Lo = lo
		f.Add(a.AppendFlat(nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeFlatCountTaskArgs(data)
		if err != nil {
			return
		}
		if s := a.Shard; s.Hi-s.Lo != len(s.Paths) {
			t.Fatalf("accepted a shard [%d, %d) of %d paths", s.Lo, s.Hi, len(s.Paths))
		}
		enc := a.AppendFlat(nil)
		if re, err := DecodeFlatCountTaskArgs(enc); err != nil || !bytes.Equal(re.AppendFlat(nil), enc) {
			t.Fatalf("accepted arguments do not round-trip: %+v vs %+v (%v)", re, a, err)
		}
	})
}

func FuzzDecodeFlatTransformTaskArgs(f *testing.F) {
	// The resend after a miss: the count's descriptor rides behind the terms.
	seedTruncations(f, (&TransformTaskArgs{
		CountsSession: "tf-9-1-0",
		Recount:       fuzzCount(),
		Terms:         &tfidf.ShardTerms{Remap: []uint32{2, 9}, IDF: []float64{0.5, 0.5}, Dim: 10},
		Opts:          tfidf.WireOptions{DictKind: 2, DocPresize: 8},
	}).AppendFlat(nil))
	seedTruncations(f, (&TransformTaskArgs{CountsSession: "tf-9-1-0", Terms: &tfidf.ShardTerms{Dim: 7}}).AppendFlat(nil))
	// Terms the decoder must reject: a repeated global ID, a global ID past
	// the dimension, an IDF block shorter than the remap.
	for _, terms := range []*tfidf.ShardTerms{
		{Remap: []uint32{4, 4}, IDF: []float64{1, 2}, Dim: 5},
		{Remap: []uint32{0, 5}, IDF: []float64{1, 2}, Dim: 5},
		{Remap: []uint32{0, 1}, IDF: []float64{1}, Dim: 5},
	} {
		f.Add((&TransformTaskArgs{CountsSession: "tf-9-1-1", Terms: terms}).AppendFlat(nil))
	}
	// A descriptor the decoder must reject: a range not one document per
	// path.
	bad := fuzzCount()
	bad.Shard.Hi = 9
	f.Add((&TransformTaskArgs{CountsSession: "tf-9-1-1", Recount: bad, Terms: &tfidf.ShardTerms{Dim: 7}}).AppendFlat(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := DecodeFlatTransformTaskArgs(data)
		if err != nil {
			return
		}
		enc := a.AppendFlat(nil)
		if re, err := DecodeFlatTransformTaskArgs(enc); err != nil || !bytes.Equal(re.AppendFlat(nil), enc) {
			t.Fatalf("accepted arguments do not round-trip: %+v vs %+v (%v)", re, a, err)
		}
	})
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader and the request
// header parse behind it: frames come back exactly as long as their prefix
// says, never longer than the input, and a stream always ends in an error.
// A store.drop body the decoder accepts re-encodes to itself.
func FuzzReadFrame(f *testing.F) {
	f.Add(requestFrame(1, "kmeans.assign", []byte("body")))
	drop := appendStoreDrop(nil, []string{"km-1-2-0", "", "tf-3-4-1"})
	f.Add(requestFrame(4, "store.drop", drop))
	f.Add(requestFrame(5, "store.drop", drop[:len(drop)-1]))
	f.Add(requestFrame(6, "store.drop", append(flatwire.AppendU32(nil, 1<<20), drop[4:]...)))
	f.Add(append(requestFrame(2, "a", nil), requestFrame(3, "", []byte{1})...))
	f.Add(flatwire.AppendU32(nil, maxFrameBytes))
	f.Add(flatwire.AppendU32(nil, maxFrameBytes+1))
	f.Add([]byte{3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			frame, err := readFrame(r, nil)
			if err != nil {
				if err == io.EOF && r.Len() != 0 {
					t.Fatalf("bare EOF with %d bytes unread", r.Len())
				}
				return
			}
			if len(frame) > len(data) {
				t.Fatalf("a %d-byte input produced a %d-byte frame", len(data), len(frame))
			}
			h := flatwire.NewReader(frame)
			h.U64()
			op := h.String()
			body := h.Rest()
			if h.Err() == nil && 8+flatwire.SizeString(op)+len(body) != len(frame) {
				t.Fatalf("header parse lost bytes: op %q, body %d of frame %d", op, len(body), len(frame))
			}
			if op != "store.drop" {
				continue
			}
			if keys, err := decodeStoreDrop(body); err == nil && !bytes.Equal(appendStoreDrop(nil, keys), body) {
				t.Fatalf("accepted store.drop keys %q do not re-encode to the body", keys)
			}
		}
	})
}
