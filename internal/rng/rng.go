// Package rng provides a deterministic, seedable pseudo-random number
// generator and the distributions needed by the HCMD reproduction.
//
// All stochastic components of the repository (protein benchmark generation,
// cost-matrix synthesis, volunteer population, availability models) draw from
// this package so that every experiment is reproducible bit-for-bit from a
// single seed, independent of Go release or platform.
//
// The core generator is xoshiro256** (Blackman & Vigna), seeded through
// SplitMix64 as its authors recommend.
package rng

import "math"

// Source is a deterministic random source implementing xoshiro256**.
// The zero value is not valid; use New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via SplitMix64.
// Distinct seeds yield statistically independent streams.
func New(seed uint64) *Source {
	var src Source
	NewInto(&src, seed)
	return &src
}

// NewInto seeds dst in place, exactly as New(seed) would — the
// allocation-free path for pooled objects that embed their Source by value.
func NewInto(dst *Source, seed uint64) {
	sm := seed
	for i := range dst.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		dst.s[i] = z ^ (z >> 31)
	}
	// xoshiro must not be seeded with all zeros; SplitMix64 cannot produce
	// four consecutive zeros, but guard anyway for safety.
	if dst.s[0]|dst.s[1]|dst.s[2]|dst.s[3] == 0 {
		dst.s[0] = 0x9e3779b97f4a7c15
	}
}

// Split derives an independent child stream from the source. It consumes
// one value from the parent, so parent and child sequences do not overlap
// in practice.
func (r *Source) Split() *Source {
	return New(r.Uint64())
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n)) // negligible bias for n << 2^64
}

// Shuffle permutes the elements of a slice of any indexable collection using
// the provided swap function, Fisher-Yates style.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a normally distributed value with mean 0 and
// standard deviation 1, using the polar (Marsaglia) method.
func (r *Source) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// Normal returns a normally distributed value with the given mean and
// standard deviation.
func (r *Source) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// LogNormal returns a log-normally distributed value whose underlying
// normal has parameters mu and sigma.
func (r *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// ExpFloat64 returns an exponentially distributed value with rate 1.
func (r *Source) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Exponential returns an exponentially distributed value with the given mean.
func (r *Source) Exponential(mean float64) float64 {
	return mean * r.ExpFloat64()
}

// Bernoulli returns true with probability p.
func (r *Source) Bernoulli(p float64) bool {
	return r.Float64() < p
}
