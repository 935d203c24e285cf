// Package rng provides a small, fast, deterministic pseudo-random
// number generator for the simulator.
//
// The standard library's math/rand is avoided on purpose: its stream
// for a given seed is not guaranteed stable across Go releases, and
// the whole reproduction depends on bit-identical traces for a given
// seed. The generator here is xoshiro256**, seeded via splitmix64,
// which is the reference seeding procedure recommended by its authors.
package rng

import "math"

// Source is a deterministic xoshiro256** generator. It is not safe for
// concurrent use; the simulator is single-goroutine by design.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from the given seed using splitmix64.
// Any seed, including zero, yields a valid generator state.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		src.s[i] = z ^ (z >> 31)
	}
	return &src
}

// Split derives an independent child generator from the current state.
// The parent advances, so successive Split calls yield distinct children.
func (r *Source) Split() *Source {
	return New(r.Uint64())
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

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

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's method.
// It panics if n == 0.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Rejection sampling on the high bits to avoid modulo bias.
	for {
		v := r.Uint64()
		if v < -n%n { // v < (2^64 mod n)
			continue
		}
		return v % n
	}
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	return int64(r.Uint64n(uint64(n)))
}

// Uniform returns a uniform float64 in [lo, hi).
func (r *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a normally distributed float64 with mean mu and
// standard deviation sigma, using the Marsaglia polar method.
func (r *Source) Norm(mu, sigma float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return mu + sigma*u*math.Sqrt(-2*math.Log(s)/s)
	}
}

// Exp returns an exponentially distributed float64 with the given mean.
// It panics if mean <= 0.
func (r *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exp with non-positive mean")
	}
	// 1-Float64 avoids log(0).
	return -mean * math.Log(1-r.Float64())
}

// Poisson returns a Poisson-distributed count with the given mean.
// Small means use Knuth's product-of-uniforms method; large means
// (where the product would underflow and the cost is linear in the
// mean) switch to a rounded, clamped normal approximation, which is
// accurate to well under a percent at lambda = 30 and improves from
// there. It panics if lambda <= 0.
func (r *Source) Poisson(lambda float64) int {
	if lambda <= 0 {
		panic("rng: Poisson with non-positive lambda")
	}
	if lambda < 30 {
		limit := math.Exp(-lambda)
		k := 0
		p := r.Float64()
		for p > limit {
			k++
			p *= r.Float64()
		}
		return k
	}
	k := int(math.Round(r.Norm(lambda, math.Sqrt(lambda))))
	if k < 0 {
		k = 0
	}
	return k
}

// Pareto returns a Pareto-distributed float64 with scale (minimum) xm
// and shape alpha, via inverse-transform sampling: xm * U^(-1/alpha).
// Shapes alpha <= 1 have infinite mean — the classic heavy-tailed
// service-time model. It panics if xm <= 0 or alpha <= 0.
func (r *Source) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		panic("rng: Pareto with non-positive scale or shape")
	}
	// 1-Float64 avoids the U=0 pole.
	return xm * math.Pow(1-r.Float64(), -1/alpha)
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool { return r.Float64() < p }
