package dict

import (
	"math"
	"unsafe"
)

// HashMap is a chained hash table, the analogue of the paper's
// std::unordered_map. Buckets form a sparse int32 head array; entries live
// in a contiguous arena and chain through int32 next links, and key bytes
// live in one byte arena the entries address by (offset, length) — so a
// HashMap whose V holds no pointers is three pointer-free allocations the
// garbage collector never scans. The table rehashes (doubling the bucket
// array and relinking every entry) when the entry count exceeds the bucket
// count, reproducing the cost the paper attributes to the unordered map:
// "resize operations, which requires re-hashing all elements" and a bucket
// array that is "by construction both sparse ... and very large".
type HashMap[V any] struct {
	buckets  []int32
	entries  []hashEntry[V]
	keys     []byte
	rehashes int
}

type hashEntry[V any] struct {
	hash uint64
	next int32
	off  uint32 // key = keys[off : off+klen]
	klen uint32
	val  V
}

const hashMinBuckets = 8

// NewHashMap creates a hash dictionary. opt.Presize reserves both the
// bucket array and the entry arena for that many items up front — the
// paper's per-document tables are "pre-sized to hold 4K items to minimize
// resizing overhead", which is exactly what makes their aggregate footprint
// balloon when one table is kept per document.
func NewHashMap[V any](opt Options) *HashMap[V] {
	h := &HashMap[V]{buckets: newBuckets(ceilPow2(opt.Presize))}
	if opt.Presize > 0 {
		h.entries = make([]hashEntry[V], 0, opt.Presize)
	}
	return h
}

func newBuckets(n int) []int32 {
	b := make([]int32, n)
	for i := range b {
		b[i] = nilNode
	}
	return b
}

// Len returns the number of stored keys.
func (h *HashMap[V]) Len() int { return len(h.entries) }

// asString views b as a string without copying; b must not be written
// while the string is in use.
func asString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// key returns entry e's key as a string over the key arena; see Map for how
// long it stays valid.
func (h *HashMap[V]) key(e *hashEntry[V]) string {
	return asString(h.keys[e.off : e.off+e.klen])
}

// find returns the index of the entry holding key (whose hash is hv), or
// nilNode.
func (h *HashMap[V]) find(hv uint64, key string) int32 {
	for n := h.buckets[hv&uint64(len(h.buckets)-1)]; n != nilNode; n = h.entries[n].next {
		if e := &h.entries[n]; e.hash == hv && h.key(e) == key {
			return n
		}
	}
	return nilNode
}

// Get returns the value stored under key.
func (h *HashMap[V]) Get(key string) (V, bool) {
	if n := h.find(hashString(key), key); n != nilNode {
		return h.entries[n].val, true
	}
	var zero V
	return zero, false
}

// GetBytes is Get for a byte-slice key without string conversion.
func (h *HashMap[V]) GetBytes(key []byte) (V, bool) {
	return h.Get(asString(key))
}

// Ref returns a pointer to the value under key, inserting a zero value if
// absent. The pointer is invalidated by the next insertion.
func (h *HashMap[V]) Ref(key string) *V { return h.ref(hashString(key), key) }

// RefBytes is Ref for a byte-slice key.
func (h *HashMap[V]) RefBytes(key []byte) *V { return h.RefHash(key, HashBytes(key)) }

// RefHash is RefBytes for a caller that already holds hash =
// HashBytes(key).
func (h *HashMap[V]) RefHash(key []byte, hash uint64) *V {
	return h.ref(hash, asString(key))
}

// ref finds or inserts key; an insertion copies the key's bytes into the
// arena, so key itself is never retained.
func (h *HashMap[V]) ref(hv uint64, key string) *V {
	if n := h.find(hv, key); n != nilNode {
		return &h.entries[n].val
	}
	if uint64(len(h.keys)+len(key)) > math.MaxUint32 {
		panic("dict: hash table key arena exceeds 4 GiB")
	}
	if len(h.entries) >= len(h.buckets) {
		h.rehashes++
		h.buckets = newBuckets(len(h.buckets) * 2)
		h.relink()
	}
	idx := int32(len(h.entries))
	b := hv & uint64(len(h.buckets)-1)
	h.entries = append(h.entries, hashEntry[V]{
		hash: hv, next: h.buckets[b], off: uint32(len(h.keys)), klen: uint32(len(key)),
	})
	h.keys = append(h.keys, key...)
	h.buckets[b] = idx
	return &h.entries[idx].val
}

// relink chains every entry into the (empty) bucket array from its stored
// hash — no key is hashed or compared. Growing the table this way is an
// O(n) stop-the-world pass, the cost Figure 4's write-heavy phase suffers.
func (h *HashMap[V]) relink() {
	mask := uint64(len(h.buckets) - 1)
	for i := range h.entries {
		b := h.entries[i].hash & mask
		h.entries[i].next = h.buckets[b]
		h.buckets[b] = int32(i)
	}
}

// Clone returns an independent copy reserved for max(Len, presize) items:
// entries and key bytes are copied wholesale and the buckets relinked.
func (h *HashMap[V]) Clone(presize int) Map[V] {
	n := max(len(h.entries), presize)
	c := &HashMap[V]{
		buckets: newBuckets(ceilPow2(n)),
		entries: append(make([]hashEntry[V], 0, n), h.entries...),
		keys:    append(make([]byte, 0, len(h.keys)), h.keys...),
	}
	c.relink()
	return c
}

// Range calls fn for every pair in arena (insertion) order until fn
// returns false. Unlike TreeMap, the order bears no relation to key order.
func (h *HashMap[V]) Range(fn func(key string, v *V) bool) {
	for i := range h.entries {
		if e := &h.entries[i]; !fn(h.key(e), &e.val) {
			return
		}
	}
}

// Reset empties the table, retaining the bucket array and both arenas. The
// bucket array must be wiped, which for a heavily pre-sized table is the
// sparse-array cost the paper describes; a table far emptier than its
// bucket array (one outsized document grew a scratch table the rest of the
// shard reuses) unlinks only the buckets in use.
func (h *HashMap[V]) Reset() {
	if len(h.entries) < len(h.buckets)/8 {
		mask := uint64(len(h.buckets) - 1)
		for i := range h.entries {
			h.buckets[h.entries[i].hash&mask] = nilNode
		}
	} else {
		for i := range h.buckets {
			h.buckets[i] = nilNode
		}
	}
	h.entries = h.entries[:0]
	h.keys = h.keys[:0]
}

// Footprint estimates resident bytes: bucket array, entry arena, and key
// storage.
func (h *HashMap[V]) Footprint() int64 {
	return int64(len(h.buckets))*4 + int64(cap(h.entries))*int64(unsafe.Sizeof(hashEntry[V]{})) + int64(len(h.keys))
}

// Stats returns rehash counters.
func (h *HashMap[V]) Stats() Stats {
	return Stats{Rehashes: h.rehashes, Capacity: len(h.buckets)}
}

func ceilPow2(n int) int {
	p := hashMinBuckets
	for p < n {
		p <<= 1
	}
	return p
}

// The dictionary hash is 64-bit FNV-1a. It is exported so a producer that
// already walks a key's bytes (the tokenizer) can compute it on the way —
// HashStep per byte from HashInit — and hand it to RefHash.
const (
	HashInit  uint64 = 14695981039346656037
	hashPrime uint64 = 1099511628211
)

// HashStep folds one key byte into a running hash.
func HashStep(h uint64, c byte) uint64 { return (h ^ uint64(c)) * hashPrime }

// HashBytes returns the dictionary hash of key.
func HashBytes(key []byte) uint64 { return hashString(asString(key)) }

func hashString(key string) uint64 {
	h := HashInit
	for i := 0; i < len(key); i++ {
		h = HashStep(h, key[i])
	}
	return h
}
