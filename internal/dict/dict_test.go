package dict

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func kinds() []Kind { return []Kind{Tree, Hash, NodeTree} }

func TestKindString(t *testing.T) {
	if Tree.String() != "map-arena" || Hash.String() != "u-map" || NodeTree.String() != "map" {
		t.Fatalf("kind labels: %q %q %q", Tree.String(), Hash.String(), NodeTree.String())
	}
}

func TestParseKindRoundTripsLabels(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	for _, alias := range []struct {
		s    string
		want Kind
	}{{"umap", Hash}, {"arena", Tree}} {
		if got, err := ParseKind(alias.s); err != nil || got != alias.want {
			t.Fatalf("ParseKind(%q) = %v, %v", alias.s, got, err)
		}
	}
	if _, err := ParseKind("btree"); err == nil {
		t.Fatal("ParseKind accepted an unknown label")
	}
}

func TestRefInsertAndGet(t *testing.T) {
	for _, k := range kinds() {
		m := New[int](k, Options{})
		*m.Ref("hello") = 5
		*m.Ref("world") = 7
		*m.Ref("hello") += 1
		if v, ok := m.Get("hello"); !ok || v != 6 {
			t.Fatalf("%v: Get(hello) = %d,%v want 6,true", k, v, ok)
		}
		if v, ok := m.Get("world"); !ok || v != 7 {
			t.Fatalf("%v: Get(world) = %d,%v", k, v, ok)
		}
		if _, ok := m.Get("absent"); ok {
			t.Fatalf("%v: Get(absent) found", k)
		}
		if m.Len() != 2 {
			t.Fatalf("%v: Len = %d, want 2", k, m.Len())
		}
	}
}

func TestRefBytesMatchesRef(t *testing.T) {
	for _, k := range kinds() {
		m := New[int](k, Options{})
		*m.RefBytes([]byte("abc"))++
		*m.Ref("abc")++
		*m.RefBytes([]byte("abd"))++
		if v, _ := m.Get("abc"); v != 2 {
			t.Fatalf("%v: abc = %d, want 2", k, v)
		}
		if v, ok := m.GetBytes([]byte("abd")); !ok || v != 1 {
			t.Fatalf("%v: abd = %d,%v", k, v, ok)
		}
		if m.Len() != 2 {
			t.Fatalf("%v: Len = %d", k, m.Len())
		}
	}
}

func TestAgainstReferenceMap(t *testing.T) {
	for _, k := range kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			f := func(keys []string) bool {
				m := New[int](k, Options{})
				ref := make(map[string]int)
				for _, key := range keys {
					*m.Ref(key)++
					ref[key]++
				}
				if m.Len() != len(ref) {
					return false
				}
				for key, want := range ref {
					if got, ok := m.Get(key); !ok || got != want {
						return false
					}
				}
				seen := 0
				okRange := true
				m.Range(func(key string, v *int) bool {
					seen++
					if ref[key] != *v {
						okRange = false
					}
					return true
				})
				return okRange && seen == len(ref)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestTreeRangeSorted(t *testing.T) {
	for _, kind := range []Kind{Tree, NodeTree} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			f := func(keys []string) bool {
				m := New[int](kind, Options{})
				for _, key := range keys {
					*m.Ref(key)++
				}
				var got []string
				m.Range(func(key string, _ *int) bool {
					got = append(got, key)
					return true
				})
				return sort.StringsAreSorted(got)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestNodeTreeInvariantsUnderRandomInserts(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	m := NewNodeTreeMap[int](Options{})
	for i := 0; i < 20_000; i++ {
		*m.Ref(fmt.Sprintf("w%06d", r.Intn(50_000)))++
		if i%997 == 0 {
			m.checkInvariants()
		}
	}
	m.checkInvariants()
}

func TestNodeTreeRefStability(t *testing.T) {
	// std::map semantics: references stay valid across later insertions.
	m := NewNodeTreeMap[int](Options{})
	p := m.Ref("stable")
	*p = 7
	for i := 0; i < 10_000; i++ {
		*m.Ref(fmt.Sprintf("filler%05d", i))++
	}
	if *p != 7 {
		t.Fatalf("reference destabilized: %d", *p)
	}
	if v, _ := m.Get("stable"); v != 7 {
		t.Fatalf("Get = %d", v)
	}
}

func TestTreeInvariantsUnderRandomInserts(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	m := NewTreeMap[int](Options{})
	for i := 0; i < 20_000; i++ {
		*m.Ref(fmt.Sprintf("w%06d", r.Intn(50_000)))++
		if i%997 == 0 {
			m.checkInvariants()
		}
	}
	m.checkInvariants()
}

func TestTreeInvariantsSequentialInserts(t *testing.T) {
	// Ascending insertion is the worst case for unbalanced BSTs; the RB
	// invariants must hold and depth stays logarithmic (via black-height).
	m := NewTreeMap[int](Options{})
	for i := 0; i < 4096; i++ {
		*m.Ref(fmt.Sprintf("%08d", i))++
	}
	bh := m.checkInvariants()
	if bh > 14 { // black-height <= log2(n+1) roughly
		t.Fatalf("black height %d too large for 4096 nodes", bh)
	}
	if min, _ := m.Min(); min != "00000000" {
		t.Fatalf("Min = %q", min)
	}
	if max, _ := m.Max(); max != "00004095" {
		t.Fatalf("Max = %q", max)
	}
}

func TestTreeMinMaxEmpty(t *testing.T) {
	m := NewTreeMap[int](Options{})
	if _, ok := m.Min(); ok {
		t.Fatal("Min on empty returned ok")
	}
	if _, ok := m.Max(); ok {
		t.Fatal("Max on empty returned ok")
	}
}

func TestHashRehashGrowth(t *testing.T) {
	m := NewHashMap[int](Options{})
	for i := 0; i < 10_000; i++ {
		*m.Ref(fmt.Sprintf("key%d", i))++
	}
	st := m.Stats()
	if st.Rehashes == 0 {
		t.Fatal("no rehashes after 10k inserts into non-presized table")
	}
	if st.Capacity < 10_000 {
		t.Fatalf("capacity %d < item count", st.Capacity)
	}
	if m.Len() > st.Capacity {
		t.Fatalf("load factor %d/%d > 1", m.Len(), st.Capacity)
	}
	// All keys still reachable after rehashes.
	for i := 0; i < 10_000; i++ {
		if v, ok := m.Get(fmt.Sprintf("key%d", i)); !ok || v != 1 {
			t.Fatalf("key%d lost after rehash: %d,%v", i, v, ok)
		}
	}
}

func TestHashPresizeAvoidsRehash(t *testing.T) {
	m := NewHashMap[int](Options{Presize: 4096})
	for i := 0; i < 4096; i++ {
		*m.Ref(fmt.Sprintf("key%d", i))++
	}
	if st := m.Stats(); st.Rehashes != 0 {
		t.Fatalf("presized table rehashed %d times", st.Rehashes)
	}
}

func TestPresizeFootprintDominates(t *testing.T) {
	// The Figure 4 memory effect: a 4K-presized hash table holding a
	// handful of words occupies orders of magnitude more than a tree with
	// the same contents.
	h := NewHashMap[int](Options{Presize: 4096})
	tr := NewTreeMap[int](Options{})
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("w%d", i)
		*h.Ref(key)++
		*tr.Ref(key)++
	}
	if hf, tf := h.Footprint(), tr.Footprint(); hf < 10*tf {
		t.Fatalf("presized hash footprint %d not >> tree footprint %d", hf, tf)
	}
}

func TestReset(t *testing.T) {
	for _, k := range kinds() {
		m := New[int](k, Options{Presize: 64})
		*m.Ref("a") = 1
		*m.Ref("b") = 2
		m.Reset()
		if m.Len() != 0 {
			t.Fatalf("%v: Len = %d after Reset", k, m.Len())
		}
		if _, ok := m.Get("a"); ok {
			t.Fatalf("%v: key survived Reset", k)
		}
		*m.Ref("c") = 3
		if v, ok := m.Get("c"); !ok || v != 3 {
			t.Fatalf("%v: insert after Reset failed", k)
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	for _, k := range kinds() {
		m := New[int](k, Options{})
		for i := 0; i < 100; i++ {
			*m.Ref(fmt.Sprintf("k%02d", i))++
		}
		count := 0
		m.Range(func(string, *int) bool {
			count++
			return count < 10
		})
		if count != 10 {
			t.Fatalf("%v: early stop visited %d", k, count)
		}
	}
}

func TestEmptyKeyAndUnicode(t *testing.T) {
	for _, k := range kinds() {
		m := New[int](k, Options{})
		*m.Ref("") = 1
		*m.Ref("héllo") = 2
		*m.Ref("日本語") = 3
		for key, want := range map[string]int{"": 1, "héllo": 2, "日本語": 3} {
			if v, ok := m.Get(key); !ok || v != want {
				t.Fatalf("%v: Get(%q) = %d,%v want %d", k, key, v, ok, want)
			}
		}
	}
}

func TestFootprintGrowsWithContent(t *testing.T) {
	for _, k := range kinds() {
		m := New[int](k, Options{})
		before := m.Footprint()
		for i := 0; i < 1000; i++ {
			*m.Ref(fmt.Sprintf("key%04d", i))++
		}
		if after := m.Footprint(); after <= before {
			t.Fatalf("%v: footprint did not grow: %d -> %d", k, before, after)
		}
	}
}

func TestTreeRotationsCounted(t *testing.T) {
	m := NewTreeMap[int](Options{})
	for i := 0; i < 1000; i++ {
		*m.Ref(fmt.Sprintf("%04d", i))++
	}
	if m.Stats().Rotations == 0 {
		t.Fatal("sequential inserts performed no rotations")
	}
}

func TestCompareBytesString(t *testing.T) {
	cases := []struct {
		a    string
		b    string
		want int
	}{
		{"", "", 0}, {"a", "", 1}, {"", "a", -1}, {"abc", "abc", 0},
		{"abc", "abd", -1}, {"abd", "abc", 1}, {"ab", "abc", -1}, {"abc", "ab", 1},
	}
	for _, c := range cases {
		if got := compareBytesString([]byte(c.a), c.b); got != c.want {
			t.Errorf("compare(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestHashCollisionChaining(t *testing.T) {
	// Tiny bucket count forces every bucket to chain; correctness must not
	// depend on hash spread.
	m := NewHashMap[int](Options{})
	keys := make([]string, 200)
	for i := range keys {
		keys[i] = fmt.Sprintf("collide%03d", i)
		*m.Ref(keys[i]) = i
	}
	for i, key := range keys {
		if v, ok := m.Get(key); !ok || v != i {
			t.Fatalf("chained key %q = %d,%v want %d", key, v, ok, i)
		}
	}
}

func BenchmarkInsertTree(b *testing.B) { benchInsert(b, Tree, 0) }
func BenchmarkInsertHash(b *testing.B) { benchInsert(b, Hash, 0) }
func BenchmarkInsertHashPresized4K(b *testing.B) {
	benchInsert(b, Hash, 4096)
}

func benchInsert(b *testing.B, k Kind, presize int) {
	words := make([][]byte, 1000)
	for i := range words {
		words[i] = []byte(fmt.Sprintf("word%03d", i%300))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := New[uint32](k, Options{Presize: presize})
		for _, w := range words {
			*m.RefBytes(w)++
		}
	}
}

func BenchmarkLookupTree(b *testing.B) { benchLookup(b, Tree) }
func BenchmarkLookupHash(b *testing.B) { benchLookup(b, Hash) }

func benchLookup(b *testing.B, k Kind) {
	m := New[uint32](k, Options{})
	var keys [][]byte
	for i := 0; i < 100_000; i++ {
		key := fmt.Sprintf("word%06d", i)
		*m.Ref(key) = uint32(i)
		if i%10 == 0 {
			keys = append(keys, []byte(key))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.GetBytes(keys[i%len(keys)])
	}
}
