// Package randgen is the simulator's random-generation subsystem: a
// splittable counter-based PRNG plus constant-time samplers for the
// distributions the workload layer draws on every request (Zipf keys via a
// Walker/Vose alias table, exponential inter-arrival gaps and normal jitter
// via ziggurat tables, and a table-driven exp for log-normal multipliers).
//
// The package exists because profiles after the zero-allocation node work
// showed ~half of single-node wall clock going to workload *generation*:
// rejection-inversion Zipf (log/pow per draw), stdlib variate helpers behind
// interface indirection, and math.Exp on every jittered latency. Everything
// here is branch-light straight-line integer and float arithmetic with all
// tables built once up front.
//
// Streams are splittable: Split(seed, id) derives an independent
// deterministic stream for any (seed, id) pair, so every node, driver and
// background subsystem owns its own sequence instead of sharing one
// *rand.Rand. A stream's draw sequence is a pure function of its (seed, id)
// — consuming other streams, in any order, never perturbs it. That property
// is what lets the cluster's parallel engine replay bit-identically against
// the sequential one.
package randgen

import "math/bits"

// golden is 2⁶⁴/φ, the splitmix64 increment; adding it walks a
// low-discrepancy sequence through the 64-bit state space.
const golden = 0x9e3779b97f4a7c15

// mix64 is the splitmix64 output function (Stafford variant 13): a
// bijective avalanche mix, so distinct counters give statistically
// independent outputs.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// mixGamma derives a stream increment from z: well-mixed, odd (so the
// counter walks the full 2⁶⁴ period), and with enough bit transitions that
// consecutive counters differ in many positions — the SplittableRandom
// recipe.
func mixGamma(z uint64) uint64 {
	z = (z ^ (z >> 33)) * 0xff51afd7ed558ccd
	z = (z ^ (z >> 33)) * 0xc4ceb9fe1a85ec53
	z = (z ^ (z >> 33)) | 1
	if bits.OnesCount64(z^(z>>1)) < 24 {
		z ^= 0xaaaaaaaaaaaaaaaa
	}
	return z
}

// SplitSeed derives the sub-seed for stream id of seed: a pure function,
// so any layer can re-derive the same stream without plumbing state. The
// cluster uses it for per-node kernel seeds; nodes use it again for
// per-subsystem streams.
func SplitSeed(seed, id uint64) uint64 {
	return mix64(seed ^ mix64((id+1)*golden))
}

// Stream is a splitmix64 counter-based PRNG: state walks by a fixed odd
// gamma and each output is one avalanche mix of the counter. Draws cost a
// multiply-xor-shift handful — no memory traffic — and the whole state is
// two words, so a Stream is cheap enough to give every subsystem its own.
//
// Stream is not safe for concurrent use; the simulator's discipline is one
// stream per node-local subsystem, each driven by exactly one goroutine.
type Stream struct {
	state uint64
	gamma uint64
}

// New returns the root stream of seed.
func New(seed uint64) *Stream {
	h := mix64(seed)
	return &Stream{state: h, gamma: mixGamma(h ^ golden)}
}

// Split returns stream id of seed: independent of the root stream and of
// every sibling — Split(seed, i) and Split(seed, j≠i) never share state.
func Split(seed, id uint64) *Stream {
	return New(SplitSeed(seed, id))
}

// Uint64 returns the next 64 uniform bits. It also satisfies
// math/rand/v2's Source interface, so a Stream can feed stdlib samplers
// (the reference implementations the equivalence tests compare against).
func (s *Stream) Uint64() uint64 {
	s.state += s.gamma
	return mix64(s.state)
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits. The
// conversion rounds the product here, so once inlined it cannot fuse with a
// caller's add or subtract into an FMA.
func (s *Stream) Float64() float64 {
	return float64(float64(s.Uint64()>>11) * 0x1p-53)
}

// Uint64N returns a uniform integer in [0, n) by Lemire's nearly
// divisionless method — one multiply in the common case, no modulo bias.
func (s *Stream) Uint64N(n uint64) uint64 {
	if n == 0 {
		panic("randgen: Uint64N with n == 0")
	}
	hi, lo := bits.Mul64(s.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(s.Uint64(), n)
		}
	}
	return hi
}

// Int64N returns a uniform integer in [0, n); it panics if n <= 0
// (math/rand/v2 semantics).
func (s *Stream) Int64N(n int64) int64 {
	if n <= 0 {
		panic("randgen: Int64N with n <= 0")
	}
	return int64(s.Uint64N(uint64(n)))
}

// IntN returns a uniform integer in [0, n); it panics if n <= 0.
func (s *Stream) IntN(n int) int {
	if n <= 0 {
		panic("randgen: IntN with n <= 0")
	}
	return int(s.Uint64N(uint64(n)))
}
