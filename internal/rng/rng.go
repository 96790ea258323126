// Package rng provides the deterministic random-number substrate used by
// every randomized component of the library: possible-world sampling,
// dataset synthesis and the randomized baselines.
//
// Two generators are provided. SplitMix64 is a tiny, fast generator that is
// primarily used to derive seeds for independent streams. Xoshiro256 is the
// main generator (xoshiro256** by Blackman and Vigna), giving high-quality
// 64-bit outputs with a 256-bit state.
//
// The package also exposes stateless hash "coins" (EdgeCoin) that decide the
// presence of an edge in a given possible world without storing the world.
// This is what makes implicit worlds (see internal/sampler) possible: world i
// of an uncertain graph is fully determined by (seed, i) and can be
// re-materialized at any time.
package rng

// SplitMix64 is the splitmix64 generator of Steele, Lea and Flood. Its main
// use here is seeding: it turns any 64-bit seed into a stream of
// well-distributed values, so correlated user seeds (0, 1, 2, ...) still
// yield uncorrelated generator states.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a generator seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64-bit value of the stream.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 applies the splitmix64 finalizer to x. It is a strong 64-bit mixing
// function (bijective, full avalanche) used to build stateless coins.
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Xoshiro256 implements xoshiro256**. The zero value is invalid; use
// NewXoshiro256.
type Xoshiro256 struct {
	s [4]uint64
}

// NewXoshiro256 returns a generator whose state is derived from seed via
// splitmix64, as recommended by the xoshiro authors.
func NewXoshiro256(seed uint64) *Xoshiro256 {
	sm := NewSplitMix64(seed)
	var x Xoshiro256
	for i := range x.s {
		x.s[i] = sm.Next()
	}
	// An all-zero state is a fixed point; splitmix64 cannot produce four
	// zeros from any seed, but guard anyway.
	if x.s[0]|x.s[1]|x.s[2]|x.s[3] == 0 {
		x.s[0] = 0x9e3779b97f4a7c15
	}
	return &x
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64-bit value of the stream.
func (x *Xoshiro256) Uint64() uint64 {
	result := rotl(x.s[1]*5, 7) * 9
	t := x.s[1] << 17
	x.s[2] ^= x.s[0]
	x.s[3] ^= x.s[1]
	x.s[1] ^= x.s[2]
	x.s[0] ^= x.s[3]
	x.s[2] ^= t
	x.s[3] = rotl(x.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (x *Xoshiro256) Float64() float64 {
	return float64(x.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (x *Xoshiro256) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	bound := uint64(n)
	for {
		v := x.Uint64()
		hi, lo := mul128(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aLo * bLo
	lo = t & mask32
	c := t >> 32
	t = aHi*bLo + c
	w1 := t & mask32
	w2 := t >> 32
	t = aLo*bHi + w1
	hi = aHi*bHi + w2 + t>>32
	lo |= t << 32
	return hi, lo
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (x *Xoshiro256) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := x.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomizes the order of the first n elements using swap.
func (x *Xoshiro256) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := x.Intn(i + 1)
		swap(i, j)
	}
}

// Stream derives the seed of an independent substream. Combining the parent
// seed with the stream index through two rounds of mixing keeps substreams
// (world samplers, parallel workers, dataset generators) uncorrelated.
func Stream(seed uint64, stream uint64) uint64 {
	return Mix64(Mix64(seed^0x6a09e667f3bcc909) + stream*0x9e3779b97f4a7c15)
}

// EdgeHash returns the raw 64-bit hash behind EdgeCoin: the edge is present
// iff EdgeHash(seed, world, edge) < CoinThreshold(p). Exposing the hash lets
// bulk materializers (per-world edge bitmaps) compare against the threshold
// branchlessly; EdgeCoin(seed, w, e, t) == (EdgeHash(seed, w, e) < t) by
// construction.
func EdgeHash(seed uint64, world uint64, edge uint64) uint64 {
	return Mix64(seed ^ Mix64(world*0xd1342543de82ef95+edge*0xaf251af3b0f025b5))
}

// EdgeCoin reports whether an edge with survival threshold thresh is present
// in world i of the stream identified by seed. thresh must be the value
// returned by CoinThreshold(p).
//
// The coin is a pure function of (seed, world, edge): re-evaluating it always
// yields the same answer, which lets callers traverse a possible world
// without storing it.
func EdgeCoin(seed uint64, world uint64, edge uint64, thresh uint64) bool {
	return EdgeHash(seed, world, edge) < thresh
}

// CoinThreshold converts an edge probability p in [0, 1] into the uint64
// threshold used by EdgeCoin. p = 1 maps to the maximum threshold so that the
// coin always succeeds.
func CoinThreshold(p float64) uint64 {
	if p >= 1 {
		return ^uint64(0)
	}
	if p <= 0 {
		return 0
	}
	return uint64(p * float64(1<<63) * 2)
}
