package sparse

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genVector produces a random valid sparse vector for property tests.
func genVector(r *rand.Rand, maxDim int) Vector {
	nnz := r.Intn(maxDim/4 + 1)
	seen := make(map[uint32]bool)
	var v Vector
	for len(seen) < nnz {
		seen[uint32(r.Intn(maxDim))] = true
	}
	idxs := make([]uint32, 0, nnz)
	for i := range seen {
		idxs = append(idxs, i)
	}
	// insertion sort (small n)
	for i := 1; i < len(idxs); i++ {
		for j := i; j > 0 && idxs[j] < idxs[j-1]; j-- {
			idxs[j], idxs[j-1] = idxs[j-1], idxs[j]
		}
	}
	for _, i := range idxs {
		val := r.NormFloat64()
		for val == 0 {
			val = r.NormFloat64()
		}
		v.Idx = append(v.Idx, i)
		v.Val = append(v.Val, val)
	}
	return v
}

// Generate implements quick.Generator for Vector.
func (Vector) Generate(r *rand.Rand, size int) reflect.Value {
	return reflect.ValueOf(genVector(r, size*4+8))
}

func TestValidateAcceptsGenerated(t *testing.T) {
	f := func(v Vector) bool { return v.Validate() == nil }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := []Vector{
		{Idx: []uint32{1}, Val: nil},
		{Idx: []uint32{2, 1}, Val: []float64{1, 1}},
		{Idx: []uint32{1, 1}, Val: []float64{1, 1}},
		{Idx: []uint32{0}, Val: []float64{0}},
		{Idx: []uint32{0}, Val: []float64{math.NaN()}},
		{Idx: []uint32{0}, Val: []float64{math.Inf(1)}},
	}
	for i, v := range cases {
		if v.Validate() == nil {
			t.Errorf("case %d: malformed vector accepted: %+v", i, v)
		}
	}
}

func TestDotSymmetric(t *testing.T) {
	f := func(a, b Vector) bool {
		return math.Abs(Dot(&a, &b)-Dot(&b, &a)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDotMatchesDense(t *testing.T) {
	f := func(a, b Vector) bool {
		dim := a.Dim()
		if d := b.Dim(); d > dim {
			dim = d
		}
		if dim == 0 {
			return Dot(&a, &b) == 0
		}
		da, db := a.ToDense(dim), b.ToDense(dim)
		want := 0.0
		for i := range da {
			want += da[i] * db[i]
		}
		return math.Abs(Dot(&a, &b)-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDotDenseMatchesDot(t *testing.T) {
	f := func(a, b Vector) bool {
		dim := a.Dim()
		if d := b.Dim(); d > dim {
			dim = d
		}
		if dim == 0 {
			return true
		}
		db := b.ToDense(dim)
		return math.Abs(DotDense(&a, db)-Dot(&a, &b)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDotDenseShortSliceTruncates(t *testing.T) {
	v := Vector{Idx: []uint32{0, 5}, Val: []float64{2, 3}}
	dense := []float64{10, 0, 0} // index 5 out of range: contributes 0
	if got := DotDense(&v, dense); got != 20 {
		t.Fatalf("DotDense = %v, want 20", got)
	}
}

func TestNormProperties(t *testing.T) {
	f := func(v Vector) bool {
		n := v.Norm()
		if n < 0 {
			return false
		}
		if len(v.Idx) == 0 {
			return n == 0
		}
		return math.Abs(n*n-v.NormSq()) < 1e-9*(1+v.NormSq())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCauchySchwarz(t *testing.T) {
	f := func(a, b Vector) bool {
		return math.Abs(Dot(&a, &b)) <= a.Norm()*b.Norm()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalize(t *testing.T) {
	f := func(v Vector) bool {
		if len(v.Idx) == 0 {
			v.Normalize()
			return v.Norm() == 0
		}
		orig := v.Norm()
		got := v.Normalize()
		return math.Abs(got-orig) < 1e-12 && math.Abs(v.Norm()-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScaleLinearity(t *testing.T) {
	f := func(a, b Vector) bool {
		d := Dot(&a, &b)
		a2 := a.Clone()
		a2.Scale(3)
		return math.Abs(Dot(&a2, &b)-3*d) < 1e-9*(1+math.Abs(d))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistSqDenseMatchesDirect(t *testing.T) {
	f := func(v Vector, seed int64) bool {
		dim := v.Dim() + 3
		r := rand.New(rand.NewSource(seed))
		dense := make([]float64, dim)
		normSq := 0.0
		for i := range dense {
			dense[i] = r.NormFloat64()
			normSq += dense[i] * dense[i]
		}
		got := DistSqDense(&v, v.NormSq(), dense, normSq)
		want := 0.0
		dv := v.ToDense(dim)
		for i := range dense {
			d := dv[i] - dense[i]
			want += d * d
		}
		return math.Abs(got-want) < 1e-7*(1+want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistSqDenseClampsNegative(t *testing.T) {
	v := Vector{Idx: []uint32{0}, Val: []float64{1}}
	// Deliberately inconsistent normSq to force cancellation below zero.
	if d := DistSqDense(&v, 1, []float64{1}, 1-1e-9); d < 0 {
		t.Fatalf("DistSqDense returned negative %v", d)
	}
}

func TestAtLookup(t *testing.T) {
	v := Vector{Idx: []uint32{2, 7, 40}, Val: []float64{1.5, -2, 3}}
	for i := uint32(0); i < 50; i++ {
		want := 0.0
		switch i {
		case 2:
			want = 1.5
		case 7:
			want = -2
		case 40:
			want = 3
		}
		if got := v.At(i); got != want {
			t.Fatalf("At(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestDenseRoundTrip(t *testing.T) {
	f := func(v Vector) bool {
		if v.Dim() == 0 {
			return true
		}
		w := FromDense(v.ToDense(v.Dim()))
		return Equal(&v, &w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAppendPanicsOnDisorder(t *testing.T) {
	var v Vector
	v.Append(5, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Append out of order did not panic")
		}
	}()
	v.Append(5, 2)
}

func TestAppendSkipsZero(t *testing.T) {
	var v Vector
	v.Append(1, 0)
	v.Append(2, 3)
	if v.NNZ() != 1 || v.Idx[0] != 2 {
		t.Fatalf("unexpected vector %+v", v)
	}
}

func TestAddIntoPanicsWhenTooSmall(t *testing.T) {
	v := Vector{Idx: []uint32{9}, Val: []float64{1}}
	defer func() {
		if recover() == nil {
			t.Fatal("AddInto with short dense slice did not panic")
		}
	}()
	AddInto(make([]float64, 5), &v, 1)
}

func TestBuilderSortsAndMerges(t *testing.T) {
	var b Builder
	b.Add(5, 1)
	b.Add(2, 3)
	b.Add(5, 2)
	b.Add(0, -1)
	b.Add(7, 4)
	b.Add(7, -4) // cancels to zero: dropped
	var v Vector
	b.Build(&v)
	want := Vector{Idx: []uint32{0, 2, 5}, Val: []float64{-1, 3, 3}}
	if !Equal(&v, &want) {
		t.Fatalf("built %+v, want %+v", v, want)
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderEmpty(t *testing.T) {
	var b Builder
	v := Vector{Idx: []uint32{1}, Val: []float64{1}}
	b.Build(&v)
	if v.NNZ() != 0 {
		t.Fatalf("Build from empty builder left %d nnz", v.NNZ())
	}
}

func TestBuilderMatchesDenseSum(t *testing.T) {
	f := func(pairs []struct {
		I uint8
		V float64
	}) bool {
		var b Builder
		dense := make([]float64, 256)
		for _, p := range pairs {
			if math.IsNaN(p.V) || math.IsInf(p.V, 0) {
				continue
			}
			v := p.V / 1e300 // bound magnitudes so repeated sums stay finite
			b.Add(uint32(p.I), v)
			dense[p.I] += v
		}
		var v Vector
		b.Build(&v)
		want := FromDense(dense)
		return ApproxEqual(&v, &want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderReuseNoCrossContamination(t *testing.T) {
	var b Builder
	b.Add(1, 1)
	var v1, v2 Vector
	b.Build(&v1)
	b.Reset()
	b.Add(2, 2)
	b.Build(&v2)
	if v2.NNZ() != 1 || v2.Idx[0] != 2 {
		t.Fatalf("reused builder leaked state: %+v", v2)
	}
}

func BenchmarkDotSparse(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x, y := genVector(r, 100_000), genVector(r, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dot(&x, &y)
	}
}

func BenchmarkDotDense(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := genVector(r, 100_000)
	dense := make([]float64, 100_000)
	for i := range dense {
		dense[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DotDense(&x, dense)
	}
}

// TestSortPendingMatchesStdSort: the builder's sort (insertion below the
// cutover, radix above it) orders distinct indices and keeps every value
// with its index.
func TestSortPendingMatchesStdSort(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		size := int(n)
		var b Builder
		perm := r.Perm(size * 3)
		for i := 0; i < size; i++ {
			id := uint32(perm[i]) // distinct
			b.Add(id, float64(id)*1.5)
		}
		b.sortPending()
		for i := 1; i < size; i++ {
			if b.idx[i] <= b.idx[i-1] {
				return false
			}
		}
		for i, id := range b.idx {
			if b.val[i] != float64(id)*1.5 { // pairs stayed together
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildDistinctMatchesBuild(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		size := int(n%120) + 1
		perm := r.Perm(size * 2)
		var b1, b2 Builder
		for i := 0; i < size; i++ {
			id := uint32(perm[i])
			v := r.NormFloat64()
			b1.Add(id, v)
			b2.Add(id, v)
		}
		var v1, v2 Vector
		b1.Build(&v1)
		b2.BuildDistinct(&v2)
		return Equal(&v1, &v2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildDistinctSortedFastPath(t *testing.T) {
	var b Builder
	for i := uint32(0); i < 100; i += 2 {
		b.Add(i, float64(i)+1)
	}
	var v Vector
	b.BuildDistinct(&v)
	if v.NNZ() != 50 || v.Idx[49] != 98 {
		t.Fatalf("sorted fast path wrong: %d nnz", v.NNZ())
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildDistinctPanicsOnDuplicate(t *testing.T) {
	var b Builder
	b.Add(3, 1)
	b.Add(3, 2)
	var v Vector
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate index not detected")
		}
	}()
	b.BuildDistinct(&v)
}

func TestBuildDistinctDropsZeros(t *testing.T) {
	var b Builder
	b.Add(5, 0)
	b.Add(2, 3)
	var v Vector
	b.BuildDistinct(&v)
	if v.NNZ() != 1 || v.Idx[0] != 2 {
		t.Fatalf("zeros kept: %+v", v)
	}
}
