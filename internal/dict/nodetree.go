package dict

// NodeTreeMap is a red-black tree with individually heap-allocated nodes —
// the faithful analogue of libstdc++'s std::map, where every insertion
// allocates one node and lookups chase pointers through scattered heap
// memory. TreeMap (the arena variant) implements the same algorithm over
// contiguous storage and is measurably faster; both are provided so the
// Figure 4 experiment can use the paper's actual data structure and the
// ablation benchmarks can quantify what the layout alone is worth. Neither
// tree is the library default — the zero-value Kind is Hash.
type NodeTreeMap[V any] struct {
	root      *treeNodePtr[V]
	count     int
	keyBytes  int64
	rotations int
}

type treeNodePtr[V any] struct {
	key                 string
	val                 V
	left, right, parent *treeNodePtr[V]
	red                 bool
}

// NewNodeTreeMap creates an empty node-based tree dictionary. Presize is
// meaningless for a node-per-insert structure and is ignored, exactly as
// std::map ignores reserve-style hints.
func NewNodeTreeMap[V any](Options) *NodeTreeMap[V] {
	return &NodeTreeMap[V]{}
}

// Len returns the number of stored keys.
func (t *NodeTreeMap[V]) Len() int { return t.count }

// Get returns the value stored under key.
func (t *NodeTreeMap[V]) Get(key string) (V, bool) {
	n := t.root
	for n != nil {
		switch {
		case key < n.key:
			n = n.left
		case key > n.key:
			n = n.right
		default:
			return n.val, true
		}
	}
	var zero V
	return zero, false
}

// GetBytes is Get for a byte-slice key without string conversion.
func (t *NodeTreeMap[V]) GetBytes(key []byte) (V, bool) {
	n := t.root
	for n != nil {
		c := compareBytesString(key, n.key)
		switch {
		case c < 0:
			n = n.left
		case c > 0:
			n = n.right
		default:
			return n.val, true
		}
	}
	var zero V
	return zero, false
}

// Ref returns a pointer to the value under key, inserting a zero value if
// absent. Unlike the arena variants, the pointer remains valid for the
// life of the map (nodes never move), matching std::map's reference
// stability.
func (t *NodeTreeMap[V]) Ref(key string) *V {
	return t.ref(key, nil)
}

// RefBytes is Ref for a byte-slice key; the key is copied into a string
// only on insertion.
func (t *NodeTreeMap[V]) RefBytes(key []byte) *V {
	return t.ref("", key)
}

// RefHash is RefBytes; an ordered tree has no use for the hash.
func (t *NodeTreeMap[V]) RefHash(key []byte, _ uint64) *V {
	return t.ref("", key)
}

func (t *NodeTreeMap[V]) ref(skey string, bkey []byte) *V {
	var parent *treeNodePtr[V]
	n := t.root
	lastCmp := 0
	for n != nil {
		var c int
		if bkey != nil {
			c = compareBytesString(bkey, n.key)
		} else {
			c = compareStrings(skey, n.key)
		}
		if c == 0 {
			return &n.val
		}
		parent = n
		lastCmp = c
		if c < 0 {
			n = n.left
		} else {
			n = n.right
		}
	}
	if bkey != nil {
		skey = string(bkey)
	}
	node := &treeNodePtr[V]{key: skey, parent: parent, red: true} // one allocation per insert
	t.count++
	t.keyBytes += int64(len(skey))
	switch {
	case parent == nil:
		t.root = node
	case lastCmp < 0:
		parent.left = node
	default:
		parent.right = node
	}
	t.insertFixup(node)
	return &node.val
}

func (t *NodeTreeMap[V]) insertFixup(z *treeNodePtr[V]) {
	for z != t.root && z.parent.red {
		p := z.parent
		g := p.parent
		if p == g.left {
			if u := g.right; u != nil && u.red {
				p.red, u.red, g.red = false, false, true
				z = g
			} else {
				if z == p.right {
					z = p
					t.rotateLeft(z)
					p = z.parent
					g = p.parent
				}
				p.red, g.red = false, true
				t.rotateRight(g)
			}
		} else {
			if u := g.left; u != nil && u.red {
				p.red, u.red, g.red = false, false, true
				z = g
			} else {
				if z == p.left {
					z = p
					t.rotateRight(z)
					p = z.parent
					g = p.parent
				}
				p.red, g.red = false, true
				t.rotateLeft(g)
			}
		}
	}
	t.root.red = false
}

func (t *NodeTreeMap[V]) rotateLeft(x *treeNodePtr[V]) {
	t.rotations++
	y := x.right
	x.right = y.left
	if y.left != nil {
		y.left.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.left:
		x.parent.left = y
	default:
		x.parent.right = y
	}
	y.left = x
	x.parent = y
}

func (t *NodeTreeMap[V]) rotateRight(x *treeNodePtr[V]) {
	t.rotations++
	y := x.left
	x.left = y.right
	if y.right != nil {
		y.right.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.right:
		x.parent.right = y
	default:
		x.parent.left = y
	}
	y.right = x
	x.parent = y
}

// Range calls fn for every pair in ascending key order until fn returns
// false, using parent links (O(1) space).
func (t *NodeTreeMap[V]) Range(fn func(key string, v *V) bool) {
	n := t.root
	if n == nil {
		return
	}
	for n.left != nil {
		n = n.left
	}
	for n != nil {
		if !fn(n.key, &n.val) {
			return
		}
		n = t.successor(n)
	}
}

func (t *NodeTreeMap[V]) successor(n *treeNodePtr[V]) *treeNodePtr[V] {
	if n.right != nil {
		n = n.right
		for n.left != nil {
			n = n.left
		}
		return n
	}
	p := n.parent
	for p != nil && n == p.right {
		n = p
		p = p.parent
	}
	return p
}

// Reset empties the tree. Nodes are released to the garbage collector —
// there is no arena to retain, as in std::map::clear.
func (t *NodeTreeMap[V]) Reset() {
	t.root = nil
	t.count = 0
	t.keyBytes = 0
}

// Clone returns an independent copy: one allocation per node, as copying a
// std::map costs. There is nothing to reserve, so presize is ignored.
func (t *NodeTreeMap[V]) Clone(int) Map[V] {
	c := *t
	c.root = cloneNodes(t.root, nil)
	return &c
}

// cloneNodes copies the subtree under n (a red-black tree: depth O(log n)).
func cloneNodes[V any](n, parent *treeNodePtr[V]) *treeNodePtr[V] {
	if n == nil {
		return nil
	}
	c := &treeNodePtr[V]{key: n.key, val: n.val, parent: parent, red: n.red}
	c.left, c.right = cloneNodes(n.left, c), cloneNodes(n.right, c)
	return c
}

// Footprint estimates resident bytes: per-node header + key storage, plus
// the allocator size-class overhead node-based structures pay.
func (t *NodeTreeMap[V]) Footprint() int64 {
	nodeSize := int64(stringHeaderSize) + valueSize[V]() + 3*8 + 8 // key + val + 3 pointers + color word
	return int64(t.count)*nodeSize + t.keyBytes
}

// Stats returns rebalance counters.
func (t *NodeTreeMap[V]) Stats() Stats {
	return Stats{Rotations: t.rotations, Capacity: t.count}
}

// checkInvariants verifies the red-black properties; used by tests. It
// returns the black-height and panics on violation.
func (t *NodeTreeMap[V]) checkInvariants() int {
	if t.root == nil {
		return 0
	}
	if t.root.red {
		panic("dict: red root")
	}
	return t.checkNode(t.root)
}

func (t *NodeTreeMap[V]) checkNode(n *treeNodePtr[V]) int {
	if n == nil {
		return 1
	}
	if n.red {
		if (n.left != nil && n.left.red) || (n.right != nil && n.right.red) {
			panic("dict: red node with red child")
		}
	}
	if n.left != nil && n.left.key >= n.key {
		panic("dict: left child key out of order")
	}
	if n.right != nil && n.right.key <= n.key {
		panic("dict: right child key out of order")
	}
	lh := t.checkNode(n.left)
	rh := t.checkNode(n.right)
	if lh != rh {
		panic("dict: unequal black heights")
	}
	if !n.red {
		lh++
	}
	return lh
}
