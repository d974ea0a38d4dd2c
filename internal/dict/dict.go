// Package dict provides the word-count dictionaries whose selection is the
// paper's fourth optimization (Section 3.4, Figure 4): an ordered map backed
// by a red-black tree (the std::map of the paper) and a chained hash table
// with configurable pre-sizing (the std::unordered_map, "pre-sized to hold
// 4K items").
//
// Hash and the arena tree are arena-based: nodes/entries live in a
// contiguous slice addressed by int32 indices rather than as individually
// allocated heap objects, and Hash also keeps its key bytes in one byte
// arena, so a hash table over a pointer-free value type holds no pointers
// at all — the garbage collector never scans it. This keeps the
// per-structure memory footprint precisely accountable (Figure 4's 420 MB
// vs 12.8 GB observation) and makes Reset recycling cheap: the counting
// loops fill one scratch dictionary per strand, keep an exact-size Clone
// per document and Reset the scratch. The price is a lifetime rule for
// keys handed out by Range, stated on Map.
//
// The dictionaries are not safe for concurrent mutation; the operators give
// each parallel strand its own dictionary and merge, or shard a global
// dictionary, exactly as the paper's Cilk code must.
package dict

import (
	"fmt"
	"reflect"
)

// Kind selects a dictionary implementation.
type Kind int

const (
	// Hash is the chained hash table dictionary, the analogue of
	// std::unordered_map. It is the zero value and therefore the library
	// default: the kind the calibrated cost model picks for the paper
	// workflow (optimizer.TestZeroValueKindIsWhatTheModelPicks). Iteration
	// order is insertion order and bears no relation to key order.
	Hash Kind = iota
	// Tree is the arena-allocated red-black tree dictionary: the same
	// algorithm as std::map over contiguous storage, an ablation point
	// against NodeTree. Iteration order is ascending by key.
	Tree
	// NodeTree is the node-per-allocation red-black tree, the faithful
	// analogue of the paper's std::map (every insert allocates, lookups
	// chase pointers through scattered heap memory). Iteration order is
	// ascending by key.
	NodeTree
)

// String returns the paper's label for the kind ("u-map" / "map" as in
// Figure 4); the arena tree, which the paper does not have, is labelled
// "map-arena". The labels, not the constant values, are what command-line
// flags and the cost-model cache carry.
func (k Kind) String() string {
	switch k {
	case Hash:
		return "u-map"
	case Tree:
		return "map-arena"
	case NodeTree:
		return "map"
	default:
		return "unknown"
	}
}

// ParseKind resolves the paper's label for a dictionary kind ("map",
// "u-map"/"umap", "map-arena"/"arena") back to the Kind — the inverse of
// Kind.String, shared by command-line flags and serialized cost models.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "map":
		return NodeTree, nil
	case "u-map", "umap":
		return Hash, nil
	case "map-arena", "arena":
		return Tree, nil
	default:
		return Hash, fmt.Errorf("dict: unknown kind %q (want map, u-map or map-arena)", s)
	}
}

// Kinds returns every dictionary kind, in declaration order (the default
// first).
func Kinds() []Kind { return []Kind{Hash, Tree, NodeTree} }

// Map is a string-keyed dictionary. All three implementations satisfy it.
//
// Key lifetime: a key string handed to Range's callback may alias the
// dictionary's own storage (Hash keeps key bytes in one arena it recycles).
// It stays valid while the dictionary only grows and is invalidated by that
// dictionary's next Reset — a caller that Resets a dictionary must not have
// retained its keys, and copies them (strings.Clone, or Ref into another
// dictionary, which copies or retains as it needs) if it wants them longer.
// Keys passed in are never retained by Hash; the tree kinds keep the string
// given to Ref.
type Map[V any] interface {
	// Get returns the value stored under key.
	Get(key string) (V, bool)
	// GetBytes is Get for a byte-slice key, avoiding a string conversion.
	GetBytes(key []byte) (V, bool)
	// Ref returns a pointer to the value stored under key, inserting a
	// zero value first if absent. The pointer is invalidated by the next
	// insertion and must not be retained.
	Ref(key string) *V
	// RefBytes is Ref for a byte-slice key; the key is copied only when an
	// insertion actually happens, so counting loops do not allocate for
	// words already present.
	RefBytes(key []byte) *V
	// RefHash is RefBytes for a caller that already holds hash =
	// HashBytes(key) — the tokenizer computes it while it scans the token —
	// so one hash serves every dictionary the token is looked up in. The
	// tree kinds ignore hash.
	RefHash(key []byte, hash uint64) *V
	// Len returns the number of stored keys.
	Len() int
	// Range calls fn for every (key, value) pair until fn returns false.
	// The tree kinds range in ascending key order, Hash in insertion
	// order. See the key lifetime note above.
	Range(fn func(key string, v *V) bool)
	// Reset empties the dictionary, retaining allocated capacity.
	Reset()
	// Clone returns an independent dictionary of the same kind and
	// contents, with capacity reserved for max(Len, presize) items and no
	// more: a table grown by doubling, or a scratch table sized by an
	// earlier, larger use, clones to exactly what its contents need.
	// Later writes to or a Reset of either side do not affect the other.
	Clone(presize int) Map[V]
	// Footprint estimates the resident bytes held by the dictionary,
	// including key storage.
	Footprint() int64
	// Stats returns implementation counters.
	Stats() Stats
}

// Stats exposes the internal events Figure 4's analysis attributes costs
// to: rehash count ("resize operations, which requires re-hashing all
// elements") and tree rebalance rotations.
type Stats struct {
	// Rehashes counts whole-table rehash operations (Hash only).
	Rehashes int
	// Rotations counts rebalancing rotations (Tree only).
	Rotations int
	// Capacity is the number of slots/buckets currently allocated.
	Capacity int
}

// Options configures dictionary construction.
type Options struct {
	// Presize reserves capacity for this many items up front. For Hash this
	// allocates the bucket array and entry arena (the paper's "pre-sized to
	// hold 4K items"); for Tree it reserves the node arena.
	Presize int
}

// New constructs a dictionary of the given kind.
func New[V any](kind Kind, opt Options) Map[V] {
	switch kind {
	case Hash:
		return NewHashMap[V](opt)
	case Tree:
		return NewTreeMap[V](opt)
	case NodeTree:
		return NewNodeTreeMap[V](opt)
	default:
		panic("dict: unknown kind")
	}
}

// valueSize returns the in-arena size of V in bytes, for footprint
// accounting.
func valueSize[V any]() int64 {
	var v V
	return int64(reflect.TypeOf(&v).Elem().Size())
}

const stringHeaderSize = 16 // pointer + length on 64-bit
