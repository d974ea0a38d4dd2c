package sparse

// useAVX2 selects DotsInto's 8-lane kernel: the assembly in block_amd64.s
// when the CPU has AVX2 and the OS saves YMM state, the pure-Go dots8
// otherwise. It is decided once, at package init.
var useAVX2 = hasAVX2()

// hasAVX2 checks CPUID.1:ECX.OSXSAVE, then that XCR0 enables SSE and AVX
// state (the OS saves YMM registers across switches), then
// CPUID.(7,0):EBX.AVX2.
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(1<<27) == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0x6 != 0x6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// dotsAVX2 is the 8-lane kernel in vector registers: one sweep of the
// document's nonzeros per pair of blocks (dots16AVX2, four YMM
// accumulators), and dots8AVX2 for an odd last block. Each lane adds the
// same products in the same order as dots8, so the two kernels agree bit
// for bit on every non-NaN result (see the type comment). The assembly
// stops at the first index at or past dim itself — the break DotDense
// takes — so no document is pre-scanned, and one whose indices do not
// ascend still reads nothing outside the layout. A document whose first
// index is already out of range never reaches it, because a dim-0 layout
// has no row to point at.
func (l *BlockLayout) dotsAVX2(v *Vector, dots []float64) {
	idxs := v.Idx
	nb := len(l.blocks)
	if len(idxs) == 0 || idxs[0] >= uint32(l.dim) {
		clear(dots[:nb*8])
		return
	}
	n := len(idxs)
	vals := v.Val[:n]
	bi := 0
	for ; bi+2 <= nb; bi += 2 {
		out := dots[bi*8 : bi*8+16]
		dots16AVX2(&l.blocks[bi][0], &l.blocks[bi+1][0], l.dim, &idxs[0], &vals[0], n, &out[0])
	}
	if bi < nb {
		out := dots[bi*8 : bi*8+8]
		dots8AVX2(&l.blocks[bi][0], l.dim, &idxs[0], &vals[0], n, &out[0])
	}
}

// dots16AVX2 writes out[0:8] from blk0's lanes and out[8:16] from blk1's,
// sweeping idx[0:n] up to the first index at or past dim. It needs n >= 1
// and idx[0] < dim.
//
//go:noescape
func dots16AVX2(blk0, blk1 *float64, dim int, idx *uint32, val *float64, n int, out *float64)

// dots8AVX2 is dots16AVX2 for one block.
//
//go:noescape
func dots8AVX2(blk *float64, dim int, idx *uint32, val *float64, n int, out *float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
