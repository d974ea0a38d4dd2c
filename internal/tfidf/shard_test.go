package tfidf

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"hpa/internal/corpus"
	"hpa/internal/dict"
	"hpa/internal/par"
	"hpa/internal/pario"
	"hpa/internal/sparse"
	"hpa/internal/text"
)

// oracleScoreDoc is the string-space scoring kernel the term-ID kernels
// replaced, kept as the reference they are differentially tested against:
// every word of the document resolved by string against the global
// dictionary, its IDF recomputed per (document, word).
func oracleScoreDoc(d dict.Map[uint32], global dict.Map[TermInfo],
	logN float64, normalize bool, b *sparse.Builder, out *sparse.Vector) {
	b.Reset()
	d.Range(func(word string, tf *uint32) bool {
		info, ok := global.Get(word)
		if !ok {
			panic("tfidf: word vanished from global dictionary")
		}
		idf := logN - math.Log(float64(info.DF))
		if score := float64(*tf) * idf; score != 0 {
			b.Add(info.ID, score)
		}
		return true
	})
	b.BuildDistinct(out)
	if normalize {
		out.Normalize()
	}
}

// oracleVectors computes every document's vector without any kernel of
// this package: documents tokenized into string-keyed dictionaries, the
// term table from a brute-force word → DF map sorted by word, and
// oracleScoreDoc over them.
func oracleVectors(t *testing.T, src pario.Source, kind dict.Kind, opts Options) []sparse.Vector {
	t.Helper()
	tk := &text.Tokenizer{MinLen: opts.MinWordLen, Stopwords: opts.Stopwords, Stem: opts.Stem}
	docs := make([]dict.Map[uint32], src.Len())
	df := map[string]uint32{}
	for i := range docs {
		content, err := src.Read(i)
		if err != nil {
			t.Fatal(err)
		}
		docs[i] = dict.New[uint32](kind, dict.Options{})
		tk.Tokens(content, func(tok []byte) { *docs[i].RefBytes(tok)++ })
		docs[i].Range(func(word string, _ *uint32) bool { df[word]++; return true })
	}
	words := make([]string, 0, len(df))
	for w := range df {
		words = append(words, w)
	}
	sort.Strings(words)
	global := dict.New[TermInfo](kind, dict.Options{})
	for id, w := range words {
		*global.Ref(w) = TermInfo{ID: uint32(id), DF: df[w]}
	}
	logN := math.Log(float64(src.Len()))
	out := make([]sparse.Vector, src.Len())
	var b sparse.Builder
	for i, d := range docs {
		oracleScoreDoc(d, global, logN, opts.Normalize, &b, &out[i])
	}
	return out
}

// sameBits fails unless got matches want index for index and bit for bit,
// and norm is the bit pattern of want's squared norm.
func sameBits(t *testing.T, label string, want, got *sparse.Vector, norm float64) {
	t.Helper()
	if len(got.Idx) != len(want.Idx) {
		t.Fatalf("%s: %d entries, want %d", label, len(got.Idx), len(want.Idx))
	}
	for e := range want.Idx {
		if got.Idx[e] != want.Idx[e] || math.Float64bits(got.Val[e]) != math.Float64bits(want.Val[e]) {
			t.Fatalf("%s: entry %d is (%d, %x), want (%d, %x)", label, e,
				got.Idx[e], math.Float64bits(got.Val[e]), want.Idx[e], math.Float64bits(want.Val[e]))
		}
	}
	if math.Float64bits(norm) != math.Float64bits(want.NormSq()) {
		t.Fatalf("%s: norm %x, want %x", label, math.Float64bits(norm), math.Float64bits(want.NormSq()))
	}
}

// TestTransformMatchesStringOracle: the term-ID transform equals the
// string-lookup kernel it replaced, bit for bit, for every dictionary kind
// at shard counts that divide the corpus evenly and unevenly, whether a
// shard was counted by one reader (words interned as they are first seen)
// or by several (documents counted privately, then folded in under the
// lock).
func TestTransformMatchesStringOracle(t *testing.T) {
	src := corpus.Generate(corpus.Mix().Scaled(0.002), nil).Source(nil)
	pool := par.NewPool(2)
	defer pool.Close()
	for _, kind := range dict.Kinds() {
		opts := Options{DictKind: kind, Normalize: true}
		want := oracleVectors(t, src, kind, opts)
		for _, shards := range []int{1, 2, 4, 7} {
			for _, readers := range []int{1, 3} {
				counts := make([]*ShardCounts, shards)
				for p := range counts {
					sc, err := CountShard(pario.Partition(src, shards, p), readers, opts)
					if err != nil {
						t.Fatal(err)
					}
					counts[p] = sc
				}
				g := MergeShards(counts, pool, opts)
				for _, sc := range counts {
					vs := TransformShard(g, sc, pool, opts)
					for i := range vs.Vectors {
						label := fmt.Sprintf("%v shards=%d readers=%d doc %d", kind, shards, readers, vs.Lo+i)
						sameBits(t, label, &want[vs.Lo+i], &vs.Vectors[i], vs.Norms[i])
					}
				}
			}
		}
	}
}

// TestTermIDEdgeCases: the corners of the ID-space kernels — a document
// with no words, a word in every document (IDF 0, dropped), a corpus of one
// document (log N = 0, everything dropped) and more shards than documents
// (empty shards with empty vocabularies) — all equal the string oracle.
func TestTermIDEdgeCases(t *testing.T) {
	pool := par.NewPool(2)
	defer pool.Close()
	cases := map[string]*pario.MemSource{
		"empty document":   tinySource("apple pear", "", "pear plum"),
		"word everywhere":  tinySource("the apple", "the pear", "the the plum"),
		"single document":  tinySource("apple pear apple"),
		"only empty":       tinySource("", ""),
		"shards over docs": tinySource("apple banana", "banana cherry"),
	}
	for name, src := range cases {
		for _, kind := range dict.Kinds() {
			opts := Options{DictKind: kind, Normalize: true}
			want := oracleVectors(t, src, kind, opts)
			for _, shards := range []int{1, 5} {
				got := shardKernelRun(t, src, shards, opts)
				if got.NumDocs != src.Len() {
					t.Fatalf("%s/%v shards=%d: %d documents, want %d", name, kind, shards, got.NumDocs, src.Len())
				}
				for i := range want {
					label := fmt.Sprintf("%s/%v shards=%d doc %d", name, kind, shards, i)
					sameBits(t, label, &want[i], &got.Vectors[i], got.Vectors[i].NormSq())
				}
			}
		}
	}
	// The dropped components are really gone, not stored as zeros.
	res := shardKernelRun(t, cases["word everywhere"], 2, Options{})
	for i, v := range res.Vectors {
		if v.NNZ() != 1 {
			t.Errorf("word everywhere: doc %d has %d components, want 1 (\"the\" dropped)", i, v.NNZ())
		}
	}
	if v := shardKernelRun(t, cases["single document"], 1, Options{}).Vectors[0]; v.NNZ() != 0 {
		t.Errorf("single document: %d components survive log N = 0", v.NNZ())
	}
}

// TestCountShardAllocations: phase 1 allocates per document — the retained
// clone's header, buckets, entries and key bytes — and per growth step of
// the shard vocabulary, never per (document, word): words are counted in a
// recycled scratch table and copied out wholesale.
func TestCountShardAllocations(t *testing.T) {
	src := corpus.Generate(corpus.Mix().Scaled(0.002), nil).Source(nil)
	opts := Options{}
	sc, err := CountShard(src, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	pairs := 0
	for _, d := range sc.DocDicts {
		pairs += d.Len()
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := CountShard(src, 1, opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("CountShard: %.0f allocations for %d documents, %d distinct (doc, word) pairs, %d shard words",
		allocs, src.Len(), pairs, len(sc.Words))
	if perDoc := allocs / float64(src.Len()); perDoc > 10 {
		t.Fatalf("CountShard: %.0f allocations for %d documents = %.1f per document, want <= 10",
			allocs, src.Len(), perDoc)
	}
}

// TestDocTableHoldsNoPointers: the retained per-document hash tables are
// invisible to the garbage collector's scan only while their entry type is
// pointer-free — key bytes addressed by offset, not held as strings. A
// pointer creeping back into the entry (or into DocTerm) puts 511 k
// entries per text-e2e op back on the collector's work list.
func TestDocTableHoldsNoPointers(t *testing.T) {
	table := reflect.TypeOf(dict.NewHashMap[DocTerm](dict.Options{})).Elem()
	entries, ok := table.FieldByName("entries")
	if !ok || entries.Type.Kind() != reflect.Slice {
		t.Fatalf("dict.HashMap has no entries slice to inspect: %v", table)
	}
	var pointers func(reflect.Type) bool
	pointers = func(ty reflect.Type) bool {
		switch ty.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			return false
		case reflect.Array:
			return pointers(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if pointers(ty.Field(i).Type) {
					return true
				}
			}
			return false
		default: // pointer, string, slice, map, chan, func, interface, uintptr-as-pointer
			return true
		}
	}
	if entry := entries.Type.Elem(); pointers(entry) {
		t.Fatalf("hash entry type %v holds pointers", entry)
	}
}

// TestSortedOrderMatchesStringSort: the prefix-keyed vocabulary sort orders
// exactly as a plain string sort does, on words that share their first 8
// bytes, words shorter than 8 bytes (zero-padded prefixes, including a word
// that ends in the padding byte) and multi-byte UTF-8.
func TestSortedOrderMatchesStringSort(t *testing.T) {
	words := []string{
		"", "a", "ab", "ab\x00", "ab\x00\x00c", "abcdefg", "abcdefgh", "abcdefgh\x00", "abcdefgha", "abcdefghz",
		"abcdefgi", "abcdefg\xff", "zzzzzzzz", "zzzzzzzzz", "é", "éa", "ééééé", "éééééa", "日本語", "日本語テキスト",
		"日本語テキスト処理", "\xff\xff\xff\xff\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xff\xff\x00",
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ { // few letters, so long shared prefixes are common
		b := make([]byte, rng.Intn(14))
		for j := range b {
			b[j] = "abé"[rng.Intn(4)]
		}
		words = append(words, string(b)+fmt.Sprint(i))
	}
	rng.Shuffle(len(words), func(i, j int) { words[i], words[j] = words[j], words[i] })
	want := make([]uint32, len(words))
	for i := range want {
		want[i] = uint32(i)
	}
	sort.Slice(want, func(a, b int) bool { return words[want[a]] < words[want[b]] })
	got := sortedOrder(words)
	for r := range want {
		if got[r] != want[r] {
			t.Fatalf("rank %d: word %q, want %q", r, words[got[r]], words[want[r]])
		}
	}
}

// FuzzSortedOrderMatchesSort: any deduplicated word list is ordered exactly
// as strings.Compare orders it. data is read as words, each a length byte
// (mod 20) followed by that many bytes.
func FuzzSortedOrderMatchesSort(f *testing.F) {
	list := func(words ...string) []byte {
		var data []byte
		for _, w := range words {
			data = append(append(data, byte(len(w))), w...)
		}
		return data
	}
	f.Add(list())
	f.Add(list("solitary"))
	f.Add(list(""))
	f.Add(list("", "a", "\x00", "\x00\x00"))
	f.Add(list("abcdefghz", "abcdefgha"))
	f.Add(list("abcdefghij", "abcdefgh", "abcdefghi", "abcdefgh\x00", "abcdefgg", "abcdefgi"))
	f.Add(list("ab\x00", "ab"))
	f.Add(list("ab\x00", "ab", "ab\x00\x00", "a", "ab\x00b"))
	f.Add(list("\xff\xff", "\x80", "\x7f", "\x00\xff", "\xff\x00", "é", "e"))
	f.Add(list("zzzzzzzzz", "zzzzzzzz", "zzzzzzz\xff", "zzzzzzzz\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var words []string
		seen := make(map[string]bool)
		for len(data) > 0 {
			n := min(int(data[0])%20, len(data)-1)
			w := string(data[1 : 1+n])
			data = data[1+n:]
			if !seen[w] {
				seen[w] = true
				words = append(words, w)
			}
		}
		want := make([]uint32, len(words))
		for i := range want {
			want[i] = uint32(i)
		}
		slices.SortFunc(want, func(a, b uint32) int { return strings.Compare(words[a], words[b]) })
		if got := sortedOrder(words); !slices.Equal(got, want) {
			t.Fatalf("sortedOrder(%q) = %v, want %v", words, got, want)
		}
	})
}

// BenchmarkSortedOrder sorts one shard vocabulary at text-e2e's shape: the
// distinct words, in first-occurrence order, that the tokenizer finds in
// shard 0 of 4 of the Mix corpus at scale 0.05 (seed 1), about 24 k words.
// It reports ns per word.
func BenchmarkSortedOrder(b *testing.B) {
	spec := corpus.Mix().Scaled(0.05)
	spec.Seed ^= 1
	src := pario.Partition(corpus.Generate(spec, nil).Source(nil), 4, 0)
	var words []string
	seen := make(map[string]bool)
	var tk text.Tokenizer
	for i := 0; i < src.Len(); i++ {
		content, err := src.Read(i)
		if err != nil {
			b.Fatal(err)
		}
		tk.Tokens(content, func(tok []byte) {
			if !seen[string(tok)] {
				seen[string(tok)] = true
				words = append(words, string(tok))
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sortedOrder(words)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(words)), "ns/word")
	b.ReportMetric(float64(len(words)), "words")
}
