package datagen

import "math"

// RNG is a small deterministic SplitMix64 generator. UDBench needs
// byte-for-byte reproducible datasets across runs and platforms, so it
// does not depend on math/rand's generator or ordering.
type RNG struct {
	state uint64
}

// NewRNG seeds a generator.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next raw 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("datagen: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Pick returns a uniformly chosen element of items.
func Pick[T any](r *RNG, items []T) T {
	return items[r.Intn(len(items))]
}

// Zipf draws Zipf-distributed ranks in [0, n) with exponent theta.
// theta = 0 degenerates to uniform. Implemented with the standard
// inverse-CDF rejection method over the generalized harmonic numbers,
// precomputed once.
type Zipf struct {
	rng   *RNG
	n     int
	theta float64
	cdf   []float64
}

// NewZipf builds a Zipf sampler over n items with skew theta >= 0.
func NewZipf(rng *RNG, n int, theta float64) *Zipf {
	if n <= 0 {
		panic("datagen: Zipf with n <= 0")
	}
	z := &Zipf{rng: rng, n: n, theta: theta}
	z.cdf = make([]float64, n)
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
		z.cdf[i-1] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

// Next draws the next rank in [0, n); rank 0 is the most popular.
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	// Binary search the CDF.
	lo, hi := 0, z.n-1
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
