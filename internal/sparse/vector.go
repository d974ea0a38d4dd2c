// Package sparse implements sparse numeric vectors and the kernels K-Means
// and TF/IDF need. The paper identifies "using sparse vectors to represent
// inherently sparse data" as one of the two key optimizations separating its
// K-Means from WEKA's dense implementation; this package is that
// representation.
//
// A Vector stores only non-zero components as parallel slices of strictly
// increasing indices and their values. Against a corpus vocabulary of
// hundreds of thousands of terms, documents have a few hundred non-zeros, so
// sparse dot products and norms are two to three orders of magnitude cheaper
// than dense ones.
//
// # Rounding
//
// A kernel's result is a function of its inputs only — not of GOARCH. The
// Go spec lets a compiler fuse x*y + z into one fused multiply-add, which
// rounds once where the separate operations round twice; arm64, ppc64le,
// s390x and riscv64 do so, amd64 does not. So every result-affecting
// product that feeds an add or a subtract is written float64(x*y): an
// explicit conversion rounds, which forbids the fusion. This holds in the
// six packages whose floats reach a result — sparse, kmeans, tfidf,
// simsearch, corpus and zipf — and CI cross-compiles them for those four
// architectures with -gcflags=-S and fails on any fused instruction. On
// amd64 the conversions change no generated instruction. The blocked
// kernel's AVX2 assembly (block_amd64.s) is separate VMULPD and VADDPD,
// never VFMADD, for the same reason float64(x*y) exists. The one place
// float math may fuse is plan choice: the optimizer's cost estimates and
// serve's admission estimates pick a plan or a Retry-After, and every
// plan computes the same bits.
//
// "The same bits" means every non-NaN result. A NaN stays a NaN, but its
// payload is unspecified: where two NaNs meet, the operand order decides
// which propagates. Validate rejects non-finite values, so no valid vector
// carries one in.
package sparse

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Vector is a sparse vector: Idx holds strictly increasing component
// indices and Val the corresponding non-zero values. The zero value is the
// empty (all-zero) vector.
type Vector struct {
	Idx []uint32
	Val []float64
}

// NNZ returns the number of stored (non-zero) components.
func (v *Vector) NNZ() int { return len(v.Idx) }

// Dim returns one past the largest stored index, i.e. the minimum dense
// dimension that can hold the vector.
func (v *Vector) Dim() int {
	if len(v.Idx) == 0 {
		return 0
	}
	return int(v.Idx[len(v.Idx)-1]) + 1
}

// ErrInvalid reports a malformed sparse vector.
var ErrInvalid = errors.New("sparse: invalid vector")

// Validate checks the representation invariants: parallel slices of equal
// length, strictly increasing indices, finite non-zero values.
func (v *Vector) Validate() error {
	if len(v.Idx) != len(v.Val) {
		return fmt.Errorf("%w: len(Idx)=%d len(Val)=%d", ErrInvalid, len(v.Idx), len(v.Val))
	}
	for i := range v.Idx {
		if i > 0 && v.Idx[i] <= v.Idx[i-1] {
			return fmt.Errorf("%w: indices not strictly increasing at %d (%d <= %d)",
				ErrInvalid, i, v.Idx[i], v.Idx[i-1])
		}
		if v.Val[i] == 0 {
			return fmt.Errorf("%w: explicit zero at index %d", ErrInvalid, v.Idx[i])
		}
		if math.IsNaN(v.Val[i]) || math.IsInf(v.Val[i], 0) {
			return fmt.Errorf("%w: non-finite value %v at index %d", ErrInvalid, v.Val[i], v.Idx[i])
		}
	}
	return nil
}

// At returns the component at index i (zero if not stored).
func (v *Vector) At(i uint32) float64 {
	k := sort.Search(len(v.Idx), func(j int) bool { return v.Idx[j] >= i })
	if k < len(v.Idx) && v.Idx[k] == i {
		return v.Val[k]
	}
	return 0
}

// Clone returns a deep copy, with both slices allocated at exactly NNZ
// capacity.
func (v *Vector) Clone() Vector {
	if len(v.Idx) == 0 {
		return Vector{}
	}
	c := Vector{
		Idx: make([]uint32, len(v.Idx)),
		Val: make([]float64, len(v.Val)),
	}
	copy(c.Idx, v.Idx)
	copy(c.Val, v.Val)
	return c
}

// Reset empties the vector, retaining capacity for recycling.
func (v *Vector) Reset() {
	v.Idx = v.Idx[:0]
	v.Val = v.Val[:0]
}

// Append adds a component with an index larger than any stored one. It
// panics if ordering would be violated; zero values are skipped.
func (v *Vector) Append(idx uint32, val float64) {
	if val == 0 {
		return
	}
	if n := len(v.Idx); n > 0 && idx <= v.Idx[n-1] {
		panic(fmt.Sprintf("sparse: Append index %d not greater than last %d", idx, v.Idx[n-1]))
	}
	v.Idx = append(v.Idx, idx)
	v.Val = append(v.Val, val)
}

// Dot returns the inner product of two sparse vectors by index-merge.
func Dot(a, b *Vector) float64 {
	s := 0.0
	i, j := 0, 0
	for i < len(a.Idx) && j < len(b.Idx) {
		switch {
		case a.Idx[i] < b.Idx[j]:
			i++
		case a.Idx[i] > b.Idx[j]:
			j++
		default:
			s += float64(a.Val[i] * b.Val[j])
			i++
			j++
		}
	}
	return s
}

// DotDense returns the inner product of a sparse vector with a dense one.
// Components of v at indices beyond len(dense) contribute zero.
func DotDense(v *Vector, dense []float64) float64 {
	s := 0.0
	n := uint32(len(dense))
	for i, idx := range v.Idx {
		if idx >= n {
			break
		}
		s += float64(v.Val[i] * dense[idx])
	}
	return s
}

// NormSq returns the squared Euclidean norm.
func (v *Vector) NormSq() float64 {
	s := 0.0
	for _, x := range v.Val {
		s += float64(x * x)
	}
	return s
}

// Norm returns the Euclidean norm.
func (v *Vector) Norm() float64 { return math.Sqrt(v.NormSq()) }

// Sum returns the sum of the stored values (the L1 norm for non-negative
// vectors such as term-frequency vectors).
func (v *Vector) Sum() float64 {
	s := 0.0
	for _, x := range v.Val {
		s += x
	}
	return s
}

// Scale multiplies every component in place.
func (v *Vector) Scale(a float64) {
	for i := range v.Val {
		v.Val[i] *= a
	}
}

// Normalize scales the vector to unit Euclidean norm in place. The zero
// vector is left unchanged. It returns the original norm.
func (v *Vector) Normalize() float64 {
	n := v.Norm()
	if n > 0 {
		v.Scale(1 / n)
	}
	return n
}

// AddInto accumulates a*v into the dense slice. The slice must be large
// enough to hold v's largest index; AddInto panics otherwise, because a
// silent partial accumulation would corrupt centroid sums.
func AddInto(dense []float64, v *Vector, a float64) {
	if d := v.Dim(); d > len(dense) {
		panic(fmt.Sprintf("sparse: AddInto dense dim %d < vector dim %d", len(dense), d))
	}
	for i, idx := range v.Idx {
		dense[idx] += float64(a * v.Val[i])
	}
}

// DistSqDense returns the squared Euclidean distance between a sparse
// vector and a dense one as |d|^2 - 2 v·d + |v|^2, given both squared
// norms: O(nnz(v)) instead of O(dim), clamped at zero because cancellation
// can leave a tiny negative. This is the K-Means++ seeding kernel (the
// assignment loop inlines the same expression over its blocked dots); a
// vector against its own scatter scores exactly 0.
func DistSqDense(v *Vector, vNormSq float64, dense []float64, denseNormSq float64) float64 {
	d := denseNormSq - 2*DotDense(v, dense) + vNormSq
	if d < 0 {
		d = 0
	}
	return d
}

// Equal reports whether two vectors have identical representations.
func Equal(a, b *Vector) bool {
	if len(a.Idx) != len(b.Idx) {
		return false
	}
	for i := range a.Idx {
		if a.Idx[i] != b.Idx[i] || a.Val[i] != b.Val[i] {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether two vectors have the same sparsity pattern
// and component-wise values within tol.
func ApproxEqual(a, b *Vector, tol float64) bool {
	if len(a.Idx) != len(b.Idx) {
		return false
	}
	for i := range a.Idx {
		if a.Idx[i] != b.Idx[i] || math.Abs(a.Val[i]-b.Val[i]) > tol {
			return false
		}
	}
	return true
}

// ToDense materializes the vector into a dense slice of the given
// dimension. It panics if dim is too small.
func (v *Vector) ToDense(dim int) []float64 {
	if d := v.Dim(); d > dim {
		panic(fmt.Sprintf("sparse: ToDense dim %d < vector dim %d", dim, d))
	}
	out := make([]float64, dim)
	for i, idx := range v.Idx {
		out[idx] = v.Val[i]
	}
	return out
}

// FromDense builds a sparse vector from a dense slice, dropping zeros. The
// nonzero count is known up front, so both slices are allocated once at
// exactly NNZ length — no append growth. Both passes are branch-free: the
// fill stores every slot and advances past the non-zero ones, stopping at
// the last.
func FromDense(dense []float64) Vector {
	nnz := 0
	for _, x := range dense {
		nnz += nonzero(x)
	}
	if nnz == 0 {
		return Vector{}
	}
	idx, val := make([]uint32, nnz), make([]float64, nnz)
	k := 0
	for i, x := range dense {
		idx[k] = uint32(i)
		val[k] = x
		if k += nonzero(x); k == nnz {
			break
		}
	}
	return Vector{Idx: idx, Val: val}
}

// nonzero is 1 for v != 0 (NaN included, ±0 excluded) and 0 otherwise,
// without a branch: FromDense advances by it instead of testing, because
// a dense row's zero/non-zero pattern defeats the branch predictor. Shifting out the sign leaves zero exactly for ±0.
func nonzero(v float64) int {
	u := math.Float64bits(v) << 1
	return int((u | -u) >> 63)
}
