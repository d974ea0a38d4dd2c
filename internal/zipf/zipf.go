// Package zipf provides a deterministic pseudo-random generator and a
// bounded Zipf-Mandelbrot sampler, used to synthesize document corpora whose
// vocabulary statistics match the paper's Table 1 datasets.
//
// Natural-language word frequencies follow a Zipfian law; sampling term IDs
// from Zipf(s, V) and mapping IDs to synthetic words reproduces the
// sparsity profile that makes the paper's dictionary and sparse-vector
// trade-offs appear: a few very hot words, a long tail of rare ones, and a
// distinct-word count that grows sublinearly with corpus size (Heaps' law).
package zipf

import "math"

// RNG is a small, fast, deterministic generator (xorshift* family). It is
// not cryptographically secure; it exists so corpus generation is exactly
// reproducible across runs and platforms, independent of math/rand's seeding
// behavior.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded from seed via SplitMix64 so that nearby
// seeds produce uncorrelated streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator.
func (r *RNG) Seed(seed uint64) {
	// Run the seed through SplitMix64 twice; a zero state would lock
	// xorshift at zero forever.
	s := splitmix64(seed)
	s = splitmix64(s)
	if s == 0 {
		s = 0x9e3779b97f4a7c15
	}
	r.state = s
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("zipf: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal deviate (Box-Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// LogNormal returns exp(mu + sigma*N(0,1)), used for document lengths.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + float64(sigma*r.NormFloat64()))
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Sampler draws ranks from a bounded Zipf-Mandelbrot distribution:
// P(k) ∝ 1/(k+q)^s for k in [1, V]. Sampling uses a precomputed CDF and
// binary search: O(V) memory once, O(log V) per draw, fully deterministic.
type Sampler struct {
	cdf []float64 // cdf[k] = P(rank <= k+1)
	s   float64
	q   float64
}

// NewSampler builds a sampler over ranks 1..v with exponent s and
// Mandelbrot shift q. It panics if v < 1 or s <= 0.
func NewSampler(v int, s, q float64) *Sampler {
	if v < 1 {
		panic("zipf: vocabulary size < 1")
	}
	if s <= 0 {
		panic("zipf: exponent <= 0")
	}
	cdf := make([]float64, v)
	sum := 0.0
	for k := 1; k <= v; k++ {
		sum += math.Pow(float64(k)+q, -s)
		cdf[k-1] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[v-1] = 1 // guard against rounding
	return &Sampler{cdf: cdf, s: s, q: q}
}

// V returns the number of ranks.
func (z *Sampler) V() int { return len(z.cdf) }

// Sample draws a rank in [0, V) (0-based: rank 0 is the most frequent).
func (z *Sampler) Sample(r *RNG) int {
	u := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// P returns the probability of 0-based rank k.
func (z *Sampler) P(k int) float64 {
	if k == 0 {
		return z.cdf[0]
	}
	return z.cdf[k] - z.cdf[k-1]
}

// ExpectedDistinct estimates the expected number of distinct ranks seen
// after n draws: sum over k of 1-(1-P(k))^n. Used to calibrate vocabulary
// size against the paper's Table 1 distinct-word targets without generating
// the corpus.
func (z *Sampler) ExpectedDistinct(n int) float64 {
	total := 0.0
	fn := float64(n)
	for k := range z.cdf {
		p := z.P(k)
		// 1-(1-p)^n via expm1/log1p for numerical stability at tiny p.
		total += -math.Expm1(fn * math.Log1p(-p))
	}
	return total
}
