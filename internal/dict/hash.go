package dict

// HashMap is a chained hash table, the analogue of the paper's
// std::unordered_map. Buckets form a sparse int32 head array; entries live
// in a contiguous arena and chain through int32 next links. The table
// rehashes (doubling the bucket array and relinking every entry) when the
// entry count exceeds the bucket count, reproducing the cost the paper
// attributes to the unordered map: "resize operations, which requires
// re-hashing all elements" and a bucket array that is "by construction both
// sparse ... and very large".
type HashMap[V any] struct {
	buckets  []int32
	entries  []hashEntry[V]
	keyBytes int64
	rehashes int
}

type hashEntry[V any] struct {
	hash uint64
	next int32
	key  string
	val  V
}

const hashMinBuckets = 8

// NewHashMap creates a hash dictionary. opt.Presize reserves both the
// bucket array and the entry arena for that many items up front — the
// paper's per-document tables are "pre-sized to hold 4K items to minimize
// resizing overhead", which is exactly what makes their aggregate footprint
// balloon when one table is kept per document.
func NewHashMap[V any](opt Options) *HashMap[V] {
	nb := hashMinBuckets
	var arena []hashEntry[V]
	if opt.Presize > 0 {
		nb = ceilPow2(opt.Presize)
		arena = make([]hashEntry[V], 0, opt.Presize)
	}
	h := &HashMap[V]{buckets: make([]int32, nb), entries: arena}
	for i := range h.buckets {
		h.buckets[i] = nilNode
	}
	return h
}

// Len returns the number of stored keys.
func (h *HashMap[V]) Len() int { return len(h.entries) }

// Get returns the value stored under key.
func (h *HashMap[V]) Get(key string) (V, bool) {
	hv := fnv1aString(key)
	for n := h.buckets[hv&uint64(len(h.buckets)-1)]; n != nilNode; n = h.entries[n].next {
		if h.entries[n].hash == hv && h.entries[n].key == key {
			return h.entries[n].val, true
		}
	}
	var zero V
	return zero, false
}

// GetBytes is Get for a byte-slice key without string conversion.
func (h *HashMap[V]) GetBytes(key []byte) (V, bool) {
	hv := fnv1aBytes(key)
	for n := h.buckets[hv&uint64(len(h.buckets)-1)]; n != nilNode; n = h.entries[n].next {
		if h.entries[n].hash == hv && bytesEqualString(key, h.entries[n].key) {
			return h.entries[n].val, true
		}
	}
	var zero V
	return zero, false
}

// Ref returns a pointer to the value under key, inserting a zero value if
// absent. The pointer is invalidated by the next insertion.
func (h *HashMap[V]) Ref(key string) *V {
	hv := fnv1aString(key)
	b := hv & uint64(len(h.buckets)-1)
	for n := h.buckets[b]; n != nilNode; n = h.entries[n].next {
		if h.entries[n].hash == hv && h.entries[n].key == key {
			return &h.entries[n].val
		}
	}
	return h.insert(hv, key)
}

// RefBytes is Ref for a byte-slice key; the key is copied to a string only
// when an insertion happens.
func (h *HashMap[V]) RefBytes(key []byte) *V { return h.RefBytesFunc(key, copyKey) }

// RefBytesFunc is RefBytes storing newKey(key) when an insertion happens.
func (h *HashMap[V]) RefBytesFunc(key []byte, newKey func([]byte) string) *V {
	hv := fnv1aBytes(key)
	b := hv & uint64(len(h.buckets)-1)
	for n := h.buckets[b]; n != nilNode; n = h.entries[n].next {
		if h.entries[n].hash == hv && bytesEqualString(key, h.entries[n].key) {
			return &h.entries[n].val
		}
	}
	return h.insert(hv, newKey(key))
}

// copyKey is the newKey of plain RefBytes: the dictionary's own copy.
func copyKey(key []byte) string { return string(key) }

func (h *HashMap[V]) insert(hv uint64, key string) *V {
	if len(h.entries) >= len(h.buckets) {
		h.rehash()
	}
	idx := int32(len(h.entries))
	b := hv & uint64(len(h.buckets)-1)
	h.entries = append(h.entries, hashEntry[V]{hash: hv, next: h.buckets[b], key: key})
	h.buckets[b] = idx
	h.keyBytes += int64(len(key))
	return &h.entries[idx].val
}

// rehash doubles the bucket array and relinks every entry — an O(n)
// stop-the-world pass, the cost Figure 4's write-heavy phase suffers.
func (h *HashMap[V]) rehash() {
	h.rehashes++
	nb := make([]int32, len(h.buckets)*2)
	for i := range nb {
		nb[i] = nilNode
	}
	mask := uint64(len(nb) - 1)
	for i := range h.entries {
		b := h.entries[i].hash & mask
		h.entries[i].next = nb[b]
		nb[b] = int32(i)
	}
	h.buckets = nb
}

// Range calls fn for every pair in arena (insertion) order until fn
// returns false. Unlike TreeMap, the order bears no relation to key order.
func (h *HashMap[V]) Range(fn func(key string, v *V) bool) {
	for i := range h.entries {
		if !fn(h.entries[i].key, &h.entries[i].val) {
			return
		}
	}
}

// Reset empties the table, retaining the bucket array and entry arena. The
// bucket array must be wiped, which for a heavily pre-sized table is the
// sparse-array cost the paper describes.
func (h *HashMap[V]) Reset() {
	h.entries = h.entries[:0]
	for i := range h.buckets {
		h.buckets[i] = nilNode
	}
	h.keyBytes = 0
}

// Footprint estimates resident bytes: bucket array, entry arena, and key
// storage.
func (h *HashMap[V]) Footprint() int64 {
	entrySize := 8 + 4 + int64(stringHeaderSize) + valueSize[V]() + 4 // hash+next+key+val, padded
	return int64(len(h.buckets))*4 + int64(cap(h.entries))*entrySize + h.keyBytes
}

// Stats returns rehash counters.
func (h *HashMap[V]) Stats() Stats {
	return Stats{Rehashes: h.rehashes, Capacity: len(h.buckets)}
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	if p < hashMinBuckets {
		p = hashMinBuckets
	}
	return p
}

// fnv1aString is the 64-bit FNV-1a hash.
func fnv1aString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func fnv1aBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func bytesEqualString(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := range b {
		if b[i] != s[i] {
			return false
		}
	}
	return true
}
