// Package rng provides deterministic pseudo-random number generation and
// discrete sampling primitives used throughout the OASIS library.
//
// Every randomised component in the repository draws its randomness from an
// *rng.RNG seeded explicitly, so that experiments are reproducible
// bit-for-bit. The generator is xoshiro256** seeded via splitmix64, which has
// a 256-bit state, passes BigCrush, and is significantly faster than the
// standard library's default source while remaining allocation-free.
package rng

import (
	"errors"
	"math"
	"math/bits"
)

// RNG is a deterministic pseudo-random number generator (xoshiro256**).
// It is not safe for concurrent use; create one RNG per goroutine.
type RNG struct {
	s [4]uint64
	// cached spare normal deviate for Box-Muller
	hasSpare bool
	spare    float64
}

// New returns a generator seeded from the given seed. Distinct seeds yield
// statistically independent streams. A zero seed is valid.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from seed using splitmix64, which
// guarantees the xoshiro state is never all-zero.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	for i := 0; i < 4; i++ {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	r.hasSpare = false
}

// State is a serialisable snapshot of a generator, used by the session
// subsystem to persist samplers across process restarts.
type State struct {
	S        [4]uint64 `json:"s"`
	HasSpare bool      `json:"hasSpare,omitempty"`
	Spare    float64   `json:"spare,omitempty"`
}

// State captures the generator's current state.
func (r *RNG) State() State {
	return State{S: r.s, HasSpare: r.hasSpare, Spare: r.spare}
}

// ErrBadState is returned by Restore for the all-zero xoshiro256** state —
// the one invalid state of the generator (it would emit zeros forever). A
// captured State is never all-zero (Seed guarantees it), so encountering one
// means the snapshot is truncated or corrupted.
var ErrBadState = errors.New("rng: all-zero generator state (corrupted snapshot)")

// Restore resets the generator to a previously captured state, so the stream
// continues exactly where the snapshot left off. The generator is unchanged
// when an error is returned.
func (r *RNG) Restore(st State) error {
	if st.S == ([4]uint64{}) {
		return ErrBadState
	}
	r.s = st.S
	r.hasSpare = st.HasSpare
	r.spare = st.Spare
	return nil
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
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

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
// It uses Lemire's nearly-divisionless bounded sampling.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := mul64(x, bound)
	if lo < bound {
		threshold := (-bound) % bound
		for lo < threshold {
			x = r.Uint64()
			hi, lo = mul64(x, bound)
		}
	}
	_ = lo
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo). bits.Mul64 is
// an intrinsic on every 64-bit platform (one widening multiply), which
// matters because every bounded draw on the sampling hot path goes through
// it.
func mul64(a, b uint64) (hi, lo uint64) {
	return bits.Mul64(a, b)
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Normal returns a standard normal deviate (Box-Muller with caching).
func (r *RNG) Normal() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * f
	r.hasSpare = true
	return u * f
}

// NormalScaled returns mean + stddev*Normal().
func (r *RNG) NormalScaled(mean, stddev float64) float64 {
	return mean + stddev*r.Normal()
}

// Exp returns an exponentially distributed deviate with rate 1.
func (r *RNG) Exp() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Geometric returns a geometric deviate: the number of failures before the
// first success in Bernoulli(p) trials. p must be in (0, 1].
func (r *RNG) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("rng: Geometric with p <= 0")
	}
	return int(math.Floor(r.Exp() / -math.Log1p(-p)))
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts performs a Fisher-Yates shuffle of s in place.
func (r *RNG) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Shuffle performs a Fisher-Yates shuffle using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// SampleWithoutReplacement returns k distinct indices drawn uniformly from
// [0, n). It panics if k > n. The result is in random order.
func (r *RNG) SampleWithoutReplacement(n, k int) []int {
	if k > n {
		panic("rng: sample size exceeds population")
	}
	if k*4 >= n {
		// Dense case: partial Fisher-Yates.
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		for i := 0; i < k; i++ {
			j := i + r.Intn(n-i)
			p[i], p[j] = p[j], p[i]
		}
		return p[:k]
	}
	// Sparse case: rejection via set.
	seen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for len(out) < k {
		x := r.Intn(n)
		if _, dup := seen[x]; dup {
			continue
		}
		seen[x] = struct{}{}
		out = append(out, x)
	}
	return out
}
