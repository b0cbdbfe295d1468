// Package tensor provides the minimal dense float32 arithmetic used by the
// simulated training framework: vectors, a deterministic pseudo-random
// initializer, and content checksums.
//
// The point of doing real arithmetic (rather than only modelling durations)
// is that it lets the recovery protocols be validated end to end: after a
// failure and a just-in-time recovery, the training loss trajectory must
// match a failure-free run bit for bit, exactly as the paper claims for its
// deterministic validation mode (§6.2).
package tensor

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
)

// Vector is a dense float32 vector.
type Vector []float32

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// AXPY computes v += a*x elementwise. It panics if lengths differ.
func (v Vector) AXPY(a float32, x Vector) {
	if len(v) != len(x) {
		panic(fmt.Sprintf("tensor: AXPY length mismatch %d vs %d", len(v), len(x)))
	}
	for i := range v {
		v[i] += a * x[i]
	}
}

// Add computes v += x elementwise.
func (v Vector) Add(x Vector) { v.AXPY(1, x) }

// Equal reports exact elementwise equality (bitwise, so NaN != NaN).
func (v Vector) Equal(x Vector) bool {
	if len(v) != len(x) {
		return false
	}
	for i := range v {
		if math.Float32bits(v[i]) != math.Float32bits(x[i]) {
			return false
		}
	}
	return true
}

// Checksum returns an FNV-1a hash of the exact bit pattern of v. It is the
// buffer checksum used by the replay-log validation (§4.1).
func (v Vector) Checksum() uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, x := range v {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(x))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// RNG is a deterministic xorshift64* pseudo-random generator. It is
// intentionally independent of math/rand so checkpointed RNG state is a
// single word, mirroring how training scripts checkpoint their RNG state.
type RNG struct {
	State uint64
}

// NewRNG returns a generator seeded with seed (zero is remapped).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{State: seed}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	x := r.State
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.State = x
	return x * 0x2545F4914F6CDD1D
}

// Float32 returns a uniform float32 in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) / (1 << 24)
}

// FillUniform fills v with uniforms in [-scale, scale).
func (r *RNG) FillUniform(v Vector, scale float32) {
	for i := range v {
		v[i] = (2*r.Float32() - 1) * scale
	}
}

// Tanh is the activation used by the toy models; math.Tanh is deterministic
// across runs on the same platform, which is all the validation needs.
func Tanh(x float32) float32 { return float32(math.Tanh(float64(x))) }

// TanhPrime is the derivative of Tanh expressed via the activation value.
func TanhPrime(y float32) float32 { return 1 - y*y }
