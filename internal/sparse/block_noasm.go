//go:build !amd64

package sparse

// useAVX2 is false off amd64: the pure-Go dots8 and dots4 are the only
// kernels.
const useAVX2 = false

func (l *BlockLayout) dotsAVX2(v *Vector, dots []float64) { l.dots8(v, dots) }
