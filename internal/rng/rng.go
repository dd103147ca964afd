// Package rng provides deterministic, splittable pseudo-random number
// generation for parallel simulations.
//
// The package is built around two primitives:
//
//   - SplitMix64, a tiny 64-bit generator used to seed other generators and
//     to derive independent streams from a single run seed, and
//   - Xoshiro256**, a fast, high-quality generator used for bulk sampling.
//
// Every parallel worker in the simulator owns its own stream, split
// deterministically from the run seed, so simulation results are reproducible
// for a fixed (seed, worker count) pair without any cross-goroutine
// synchronization on the random state.
//
// The package also provides exact discrete samplers (uniform integers without
// modulo bias, Bernoulli, binomial, multinomial, geometric) used by the
// count-based fast paths of the allocation algorithms.
package rng

import "math/bits"

// SplitMix64 is a 64-bit generator with a single word of state. It is used
// for seeding and for deriving independent streams. Its output sequence for
// a given state is the standard splitmix64 sequence (Steele et al.).
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64-bit value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Mix64 applies the splitmix64 finalizer to x. It is a strong 64-bit mixing
// function, useful for hashing small tuples into seeds.
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Rand is a xoshiro256** generator. The zero value is invalid; use New or
// NewFrom to construct one.
type Rand struct {
	s0, s1, s2, s3 uint64
}

// New returns a generator deterministically seeded from seed via SplitMix64,
// as recommended by the xoshiro authors.
func New(seed uint64) *Rand {
	r := new(Rand)
	r.Seed(seed)
	return r
}

// Seed reinitializes r in place, exactly as New(seed) constructs it, but
// without allocating. It lets callers embed Rand by value (e.g. the
// simulator's per-ball streams).
func (r *Rand) Seed(seed uint64) {
	sm := SplitMix64{state: seed}
	r.s0, r.s1, r.s2, r.s3 = sm.Next(), sm.Next(), sm.Next(), sm.Next()
	// Guard against the (astronomically unlikely) all-zero state, which is
	// a fixed point of xoshiro.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9E3779B97F4A7C15
	}
}

// Split derives a new, statistically independent generator from r. The
// derived stream depends only on r's current state, so splitting is
// deterministic and the parent may continue to be used afterwards.
func (r *Rand) Split() *Rand {
	dst := new(Rand)
	r.SplitInto(dst)
	return dst
}

// SplitInto reinitializes dst exactly as Split would initialize its result,
// but into caller-owned storage, so hot paths can split streams without
// allocating (dst may live in a reusable arena).
func (r *Rand) SplitInto(dst *Rand) {
	// Draw two words from the parent and mix them into a fresh seed.
	a, b := r.Uint64(), r.Uint64()
	dst.Seed(Mix64(a) ^ bits.RotateLeft64(Mix64(b), 32))
}

// SplitN derives n independent generators, one per parallel worker.
func (r *Rand) SplitN(n int) []*Rand {
	out := make([]*Rand, n)
	for i := range out {
		out[i] = r.Split()
	}
	return out
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 {
	result := bits.RotateLeft64(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = bits.RotateLeft64(r.s3, 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0. The
// implementation is Lemire's nearly-divisionless method, which avoids modulo
// bias exactly.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a uniformly random permutation of [0, n) (Fisher–Yates).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes the n elements addressed by swap uniformly at random.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// SampleDistinct returns k distinct uniform values from [0, n) in random
// order. It panics if k > n or k < 0. For k much smaller than n it uses
// rejection from a small set; otherwise it uses a partial Fisher–Yates.
func (r *Rand) SampleDistinct(k, n int) []int {
	if k < 0 || k > n {
		panic("rng: SampleDistinct requires 0 <= k <= n")
	}
	if k == 0 {
		return nil
	}
	if k*8 < n {
		// Rejection sampling: expected < 2 draws per element.
		out := make([]int, 0, k)
		seen := make(map[int]struct{}, k)
		for len(out) < k {
			v := r.Intn(n)
			if _, dup := seen[v]; !dup {
				seen[v] = struct{}{}
				out = append(out, v)
			}
		}
		return out
	}
	// Partial Fisher–Yates over an explicit index array.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}
