package dict

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// snapshot is a clone paired with what its source held when it was taken.
type snapshot struct {
	m    Map[int]
	want map[string]int
}

func checkAgainst(t *testing.T, what string, m Map[int], want map[string]int) {
	t.Helper()
	if m.Len() != len(want) {
		t.Fatalf("%s: Len = %d, want %d", what, m.Len(), len(want))
	}
	seen := 0
	m.Range(func(key string, v *int) bool {
		seen++
		if w, ok := want[key]; !ok || w != *v {
			t.Fatalf("%s: Range gave %q = %d, want %d (present %v)", what, key, *v, w, ok)
		}
		return true
	})
	if seen != len(want) {
		t.Fatalf("%s: Range visited %d of %d keys", what, seen, len(want))
	}
	for key, w := range want {
		if v, ok := m.Get(key); !ok || v != w {
			t.Fatalf("%s: Get(%q) = %d,%v want %d", what, key, v, ok, w)
		}
	}
}

// TestDifferentialRefResetClone drives every kind and a Go map through the
// same random interleaving of Ref / RefBytes / RefHash increments, lookups,
// Resets and Clones. Every clone must keep the contents of the moment it
// was taken through all later writes to and Resets of its source, reserve
// what it was asked to, and at presize 0 be no larger than its source.
func TestDifferentialRefResetClone(t *testing.T) {
	universe := []string{"", "a", "é", "日本語", strings.Repeat("long", 40)}
	for i := 0; i < 300; i++ {
		universe = append(universe, fmt.Sprintf("w%d", i*i))
	}
	for _, k := range kinds() {
		rng := rand.New(rand.NewSource(int64(k) + 1))
		m := New[int](k, Options{})
		ref := map[string]int{}
		var clones []snapshot
		for op := 0; op < 20_000; op++ {
			// Mostly a small working set, so tables refill after a Reset
			// with overlapping but different keys.
			key := universe[rng.Intn(len(universe))]
			if rng.Intn(4) > 0 {
				key = universe[rng.Intn(40)]
			}
			switch r := rng.Intn(100); {
			case r < 25:
				*m.Ref(key)++
				ref[key]++
			case r < 50:
				*m.RefBytes([]byte(key))++
				ref[key]++
			case r < 75:
				*m.RefHash([]byte(key), HashBytes([]byte(key)))++
				ref[key]++
			case r < 97:
				v, ok := m.Get(key)
				vb, okb := m.GetBytes([]byte(key))
				if w, present := ref[key]; ok != present || okb != present || v != w || vb != w {
					t.Fatalf("%v op %d: Get(%q) = %d,%v GetBytes = %d,%v want %d,%v", k, op, key, v, ok, vb, okb, w, present)
				}
			case r < 98:
				m.Reset()
				clear(ref)
			default:
				presize := []int{0, 0, 16, 1000}[rng.Intn(4)]
				c := m.Clone(presize)
				want := make(map[string]int, len(ref))
				for key, v := range ref {
					want[key] = v
				}
				clones = append(clones, snapshot{c, want})
				if cf, mf := c.Footprint(), m.Footprint(); presize == 0 && cf > mf {
					t.Fatalf("%v op %d: clone footprint %d > source footprint %d", k, op, cf, mf)
				}
				if got, need := c.Stats().Capacity, max(len(ref), presize); k != NodeTree && got < need {
					t.Fatalf("%v op %d: clone capacity %d < %d", k, op, got, need)
				}
			}
		}
		checkAgainst(t, k.String(), m, ref)
		if len(clones) < 100 {
			t.Fatalf("%v: only %d clones taken", k, len(clones))
		}
		for i, c := range clones {
			checkAgainst(t, fmt.Sprintf("%v clone %d", k, i), c.m, c.want)
		}
		// The other direction: writing to a clone leaves its source alone.
		c := m.Clone(0)
		*c.Ref("only in the clone")++
		c.Range(func(_ string, v *int) bool { *v = -1; return true })
		checkAgainst(t, k.String()+" after its clone was written", m, ref)
	}
}

// TestCloneIsExactSize: a hash table grown by doubling holds up to twice
// the buckets and entry slots its contents need; its clone holds none
// spare, and a presize reserves exactly that.
func TestCloneIsExactSize(t *testing.T) {
	m := NewHashMap[int](Options{})
	for i := 0; i < 1100; i++ {
		*m.Ref(fmt.Sprintf("key%d", i))++
	}
	c := m.Clone(0).(*HashMap[int])
	if cap(c.entries) != 1100 || len(c.buckets) != 2048 || cap(c.keys) != len(m.keys) {
		t.Fatalf("clone of 1100 items: %d entry slots, %d buckets, %d key bytes of %d",
			cap(c.entries), len(c.buckets), cap(c.keys), len(m.keys))
	}
	if c.Footprint() >= m.Footprint() {
		t.Fatalf("exact clone footprint %d not below the grown table's %d", c.Footprint(), m.Footprint())
	}
	if c := m.Clone(4096).(*HashMap[int]); cap(c.entries) != 4096 || len(c.buckets) != 4096 {
		t.Fatalf("clone presized 4096: %d entry slots, %d buckets", cap(c.entries), len(c.buckets))
	}
	if st := c.Stats(); st.Rehashes != 0 {
		t.Fatalf("clone reports %d rehashes of its own", st.Rehashes)
	}
}

// TestRangeKeyLifetime pins the key contract stated on Map: a key handed
// out by Range stays valid while its dictionary only grows, and a clone's
// keys do not depend on the source's storage — Reset and refill the source
// and they still read the same. That Hash's Range allocates nothing is why
// the contract exists: its keys are views of the table's arena, which Reset
// recycles.
func TestRangeKeyLifetime(t *testing.T) {
	keysOf := func(m Map[int]) []string {
		var keys []string
		m.Range(func(key string, _ *int) bool { keys = append(keys, key); return true })
		return keys
	}
	for _, k := range kinds() {
		m := New[int](k, Options{})
		var want []string
		for i := 0; i < 50; i++ {
			want = append(want, fmt.Sprintf("first-%03d", i))
			*m.RefBytes([]byte(want[i]))++
		}
		held := keysOf(m)
		for i := 0; i < 5000; i++ { // many rehashes and arena moves later
			*m.Ref(fmt.Sprintf("later-%d", i))++
		}
		c := m.Clone(0)
		cloneKeys := keysOf(c)
		m.Reset()
		for i := 0; i < 5050; i++ {
			*m.Ref(fmt.Sprintf("other-%05d", i))++
		}
		for i, key := range held[:50] {
			if key != want[i] {
				t.Fatalf("%v: key %d held across growth reads %q, want %q", k, i, key, want[i])
			}
		}
		if got := keysOf(c); len(got) != 5050 || strings.Join(got, ",") != strings.Join(cloneKeys, ",") {
			t.Fatalf("%v: clone's keys changed when its source was reset and refilled", k)
		}
		for _, key := range cloneKeys {
			if !strings.HasPrefix(key, "first-") && !strings.HasPrefix(key, "later-") {
				t.Fatalf("%v: clone key %q is not one the source held when cloned", k, key)
			}
		}
	}
	h := NewHashMap[int](Options{})
	for i := 0; i < 100; i++ {
		*h.Ref(fmt.Sprintf("k%d", i))++
	}
	n := 0
	if allocs := testing.AllocsPerRun(10, func() {
		h.Range(func(key string, _ *int) bool { n += len(key); return true })
	}); allocs != 0 {
		t.Fatalf("HashMap.Range allocates %v times per pass; its keys should be views of the arena", allocs)
	}
}

// TestResetUnlinksSparseTable: a scratch table grown by one large use and
// then reused for small ones takes Reset's sparse path (unlink only the
// buckets in use); nothing of the previous contents may stay reachable.
func TestResetUnlinksSparseTable(t *testing.T) {
	m := NewHashMap[int](Options{})
	for i := 0; i < 4000; i++ {
		*m.Ref(fmt.Sprintf("big%d", i))++
	}
	m.Reset()
	for round := 0; round < 3; round++ {
		for i := 0; i < 20; i++ {
			*m.Ref(fmt.Sprintf("small%d-%d", round, i))++
		}
		if m.Len() != 20 {
			t.Fatalf("round %d: Len = %d, want 20", round, m.Len())
		}
		m.Reset()
		for _, b := range m.buckets {
			if b != nilNode {
				t.Fatalf("round %d: a bucket still links entry %d after Reset", round, b)
			}
		}
	}
}
