package dict

// TreeMap is an ordered dictionary backed by a left-leaning-free classic
// red-black tree (CLRS-style, with parent links), the analogue of the
// paper's std::map. Nodes live in a contiguous arena addressed by int32
// indices; -1 is nil. Range iterates in ascending key order, which is what
// lets the TF/IDF operator assign term IDs in lexicographic order without a
// separate sort.
type TreeMap[V any] struct {
	nodes     []treeNode[V]
	root      int32
	keyBytes  int64
	rotations int
}

type treeNode[V any] struct {
	key                 string
	val                 V
	left, right, parent int32
	red                 bool
}

const nilNode = int32(-1)

// NewTreeMap creates an empty tree dictionary.
func NewTreeMap[V any](opt Options) *TreeMap[V] {
	t := &TreeMap[V]{root: nilNode}
	if opt.Presize > 0 {
		t.nodes = make([]treeNode[V], 0, opt.Presize)
	}
	return t
}

// Len returns the number of stored keys.
func (t *TreeMap[V]) Len() int { return len(t.nodes) }

// Get returns the value stored under key.
func (t *TreeMap[V]) Get(key string) (V, bool) {
	n := t.find(key)
	if n == nilNode {
		var zero V
		return zero, false
	}
	return t.nodes[n].val, true
}

// GetBytes is Get for a byte-slice key. The comparison walks the tree
// without converting key to a string.
func (t *TreeMap[V]) GetBytes(key []byte) (V, bool) {
	n := t.root
	for n != nilNode {
		c := compareBytesString(key, t.nodes[n].key)
		switch {
		case c < 0:
			n = t.nodes[n].left
		case c > 0:
			n = t.nodes[n].right
		default:
			return t.nodes[n].val, true
		}
	}
	var zero V
	return zero, false
}

func (t *TreeMap[V]) find(key string) int32 {
	n := t.root
	for n != nilNode {
		nk := t.nodes[n].key
		switch {
		case key < nk:
			n = t.nodes[n].left
		case key > nk:
			n = t.nodes[n].right
		default:
			return n
		}
	}
	return nilNode
}

// Ref returns a pointer to the value under key, inserting a zero value if
// absent. The pointer is invalidated by the next insertion (the arena may
// move).
func (t *TreeMap[V]) Ref(key string) *V {
	return t.ref(key, nil)
}

// RefBytes is Ref for a byte-slice key; the key is only copied into a
// string when a new node is inserted.
func (t *TreeMap[V]) RefBytes(key []byte) *V {
	return t.ref("", key)
}

// RefHash is RefBytes; an ordered tree has no use for the hash.
func (t *TreeMap[V]) RefHash(key []byte, _ uint64) *V {
	return t.ref("", key)
}

// ref walks with either a string or a bytes key (exactly one is used); a
// bytes key is copied into a string on insertion.
func (t *TreeMap[V]) ref(skey string, bkey []byte) *V {
	parent := nilNode
	n := t.root
	lastCmp := 0
	for n != nilNode {
		var c int
		if bkey != nil {
			c = compareBytesString(bkey, t.nodes[n].key)
		} else {
			c = compareStrings(skey, t.nodes[n].key)
		}
		if c == 0 {
			return &t.nodes[n].val
		}
		parent = n
		lastCmp = c
		if c < 0 {
			n = t.nodes[n].left
		} else {
			n = t.nodes[n].right
		}
	}
	// Insert new red node under parent.
	if bkey != nil {
		skey = string(bkey)
	}
	idx := int32(len(t.nodes))
	t.nodes = append(t.nodes, treeNode[V]{
		key: skey, left: nilNode, right: nilNode, parent: parent, red: true,
	})
	t.keyBytes += int64(len(skey))
	if parent == nilNode {
		t.root = idx
	} else if lastCmp < 0 {
		t.nodes[parent].left = idx
	} else {
		t.nodes[parent].right = idx
	}
	t.insertFixup(idx)
	return &t.nodes[idx].val
}

func (t *TreeMap[V]) insertFixup(z int32) {
	ns := t.nodes
	for z != t.root && ns[ns[z].parent].red {
		p := ns[z].parent
		g := ns[p].parent
		if p == ns[g].left {
			u := ns[g].right
			if u != nilNode && ns[u].red {
				ns[p].red = false
				ns[u].red = false
				ns[g].red = true
				z = g
			} else {
				if z == ns[p].right {
					z = p
					t.rotateLeft(z)
					ns = t.nodes
					p = ns[z].parent
					g = ns[p].parent
				}
				ns[p].red = false
				ns[g].red = true
				t.rotateRight(g)
				ns = t.nodes
			}
		} else {
			u := ns[g].left
			if u != nilNode && ns[u].red {
				ns[p].red = false
				ns[u].red = false
				ns[g].red = true
				z = g
			} else {
				if z == ns[p].left {
					z = p
					t.rotateRight(z)
					ns = t.nodes
					p = ns[z].parent
					g = ns[p].parent
				}
				ns[p].red = false
				ns[g].red = true
				t.rotateLeft(g)
				ns = t.nodes
			}
		}
	}
	t.nodes[t.root].red = false
}

func (t *TreeMap[V]) rotateLeft(x int32) {
	t.rotations++
	ns := t.nodes
	y := ns[x].right
	ns[x].right = ns[y].left
	if ns[y].left != nilNode {
		ns[ns[y].left].parent = x
	}
	ns[y].parent = ns[x].parent
	switch {
	case ns[x].parent == nilNode:
		t.root = y
	case x == ns[ns[x].parent].left:
		ns[ns[x].parent].left = y
	default:
		ns[ns[x].parent].right = y
	}
	ns[y].left = x
	ns[x].parent = y
}

func (t *TreeMap[V]) rotateRight(x int32) {
	t.rotations++
	ns := t.nodes
	y := ns[x].left
	ns[x].left = ns[y].right
	if ns[y].right != nilNode {
		ns[ns[y].right].parent = x
	}
	ns[y].parent = ns[x].parent
	switch {
	case ns[x].parent == nilNode:
		t.root = y
	case x == ns[ns[x].parent].right:
		ns[ns[x].parent].right = y
	default:
		ns[ns[x].parent].left = y
	}
	ns[y].right = x
	ns[x].parent = y
}

// Range calls fn for every pair in ascending key order until fn returns
// false. The iteration is non-recursive (explicit stack) so very deep trees
// cannot overflow the goroutine stack.
func (t *TreeMap[V]) Range(fn func(key string, v *V) bool) {
	// In-order traversal with parent links, O(1) extra space.
	n := t.root
	if n == nilNode {
		return
	}
	for t.nodes[n].left != nilNode {
		n = t.nodes[n].left
	}
	for n != nilNode {
		if !fn(t.nodes[n].key, &t.nodes[n].val) {
			return
		}
		n = t.successor(n)
	}
}

func (t *TreeMap[V]) successor(n int32) int32 {
	ns := t.nodes
	if ns[n].right != nilNode {
		n = ns[n].right
		for ns[n].left != nilNode {
			n = ns[n].left
		}
		return n
	}
	p := ns[n].parent
	for p != nilNode && n == ns[p].right {
		n = p
		p = ns[p].parent
	}
	return p
}

// Min returns the smallest key, or false if empty.
func (t *TreeMap[V]) Min() (string, bool) {
	if t.root == nilNode {
		return "", false
	}
	n := t.root
	for t.nodes[n].left != nilNode {
		n = t.nodes[n].left
	}
	return t.nodes[n].key, true
}

// Max returns the largest key, or false if empty.
func (t *TreeMap[V]) Max() (string, bool) {
	if t.root == nilNode {
		return "", false
	}
	n := t.root
	for t.nodes[n].right != nilNode {
		n = t.nodes[n].right
	}
	return t.nodes[n].key, true
}

// Reset empties the tree, retaining the node arena.
func (t *TreeMap[V]) Reset() {
	t.nodes = t.nodes[:0]
	t.root = nilNode
	t.keyBytes = 0
}

// Clone returns an independent copy with the node arena reserved for
// max(Len, presize) nodes. Links are arena indices, so the nodes copy
// wholesale; key strings are immutable and shared.
func (t *TreeMap[V]) Clone(presize int) Map[V] {
	c := *t
	c.nodes = append(make([]treeNode[V], 0, max(len(t.nodes), presize)), t.nodes...)
	return &c
}

// Footprint estimates resident bytes: the node arena plus key storage.
func (t *TreeMap[V]) Footprint() int64 {
	nodeSize := int64(stringHeaderSize) + valueSize[V]() + 3*4 + 8 // links + color (padded)
	return int64(cap(t.nodes))*nodeSize + t.keyBytes
}

// Stats returns rebalance counters.
func (t *TreeMap[V]) Stats() Stats {
	return Stats{Rotations: t.rotations, Capacity: cap(t.nodes)}
}

// checkInvariants verifies the red-black properties; used by tests.
// It returns the black-height and panics on violation.
func (t *TreeMap[V]) checkInvariants() int {
	if t.root == nilNode {
		return 0
	}
	if t.nodes[t.root].red {
		panic("dict: red root")
	}
	return t.check(t.root, "")
}

func (t *TreeMap[V]) check(n int32, lo string) int {
	if n == nilNode {
		return 1
	}
	nd := t.nodes[n]
	if nd.red {
		for _, c := range []int32{nd.left, nd.right} {
			if c != nilNode && t.nodes[c].red {
				panic("dict: red node with red child")
			}
		}
	}
	if nd.left != nilNode && t.nodes[nd.left].key >= nd.key {
		panic("dict: left child key out of order")
	}
	if nd.right != nilNode && t.nodes[nd.right].key <= nd.key {
		panic("dict: right child key out of order")
	}
	lh := t.check(nd.left, lo)
	rh := t.check(nd.right, nd.key)
	if lh != rh {
		panic("dict: unequal black heights")
	}
	if !nd.red {
		lh++
	}
	return lh
}

func compareStrings(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// compareBytesString compares a byte-slice key against a string key without
// allocating.
func compareBytesString(a []byte, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}
