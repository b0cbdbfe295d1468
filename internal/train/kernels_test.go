package train

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"jitckpt/internal/cuda"
	"jitckpt/internal/tensor"
)

// specials are the float32 values the two kernel paths must agree on beyond
// ordinary numbers: signed zeros, infinities, NaNs with and without payload,
// subnormals and values whose products overflow.
var specials = []uint32{
	0x00000000, 0x80000000, // ±0
	0x7f800000, 0xff800000, // ±Inf
	0x7fc00000, 0xffc00000, 0x7fc12345, 0x7f800001, // NaNs: quiet, negative, payload, signalling
	0x00000001, 0x807fffff, 0x00400000, // subnormals
	0x7f7fffff, 0xff7fffff, 0x7effffff, // huge
	0x3f800000, 0xbf800000, // ±1
}

// kernelInputs draws n floats: mostly ordinary values across many binades,
// every fourth or so a special.
func kernelInputs(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		if rng.Intn(4) == 0 {
			v[i] = math.Float32frombits(specials[rng.Intn(len(specials))])
		} else {
			v[i] = float32(rng.NormFloat64() * math.Pow(2, float64(rng.Intn(40)-20)))
		}
	}
	return v
}

// checkKernelsMatch runs every kernel with a wide path both ways, wide then
// Go and Go alone, over the same consts and four equal-length vectors, and
// requires the same bits from each, except that a NaN matches any NaN. Neither IEEE 754 nor Go fixes
// which operand's payload a two-NaN operation keeps: x86 keeps the first
// source's, and for a commutative operation the Go compiler's register
// allocator picks which operand that is (it compiles b1*m + (1-b1)*gi with
// the second product first). Every other result, ±0 and ±Inf included, is
// the same whichever operand comes first.
func checkKernelsMatch(t *testing.T, k [9]float32, in [4][]float32) {
	t.Helper()
	clone := func() (a, b [4][]float32) {
		for i := range in {
			a[i], b[i] = slices.Clone(in[i]), slices.Clone(in[i])
		}
		return a, b
	}
	same := func(kernel string, got, want [4][]float32) {
		t.Helper()
		for i := range got {
			for j := range got[i] {
				g, w := math.Float32bits(got[i][j]), math.Float32bits(want[i][j])
				if g != w && !(got[i][j] != got[i][j] && want[i][j] != want[i][j]) {
					t.Fatalf("%s, %d elements: vector %d element %d is %#08x, the Go loop gives %#08x (consts %v, inputs %v)",
						kernel, len(got[i]), i, j, g, w, k, in)
				}
			}
		}
	}

	ak := adamConsts{k[0], k[1], k[2], k[3], k[4], k[5], k[6], k[7], k[8]}
	wide, ref := clone()
	adamGo(wide[0], wide[1], wide[2], wide[3], &ak, adamWide(wide[0], wide[1], wide[2], wide[3], &ak))
	adamGo(ref[0], ref[1], ref[2], ref[3], &ak, 0)
	same("adam.step", wide, ref)

	wide, ref = clone()
	axpy(wide[0], wide[1], k[3])
	axpyGo(ref[0], ref[1], k[3])
	same("axpy", wide, ref)

	wide, ref = clone()
	scaleInto(wide[0], wide[1], k[4])
	scaleGo(ref[0], ref[1], k[4])
	same("scaleInto", wide, ref)
}

// TestKernelsMatchGo holds the wide kernels to their Go loops bit for bit
// (NaN payloads aside, see checkKernelsMatch), at every length from 0 to 67 (so every tail length after every multiple of
// four) and with specials mixed into both the vectors and the constants.
func TestKernelsMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for n := 0; n <= 67; n++ {
		for trial := 0; trial < 20; trial++ {
			var in [4][]float32
			for i := range in {
				in[i] = kernelInputs(rng, n)
			}
			// Realistic Adam constants at a random step, or specials.
			b1, b2, step := float32(0.9), float32(0.999), float64(1+rng.Intn(1000))
			k := [9]float32{0.5, b1, 1 - b1, b2, 1 - b2,
				float32(1 - math.Pow(float64(b1), step)), float32(1 - math.Pow(float64(b2), step)), 1e-2, 1e-8}
			if trial%4 == 3 {
				copy(k[:], kernelInputs(rng, len(k)))
			}
			checkKernelsMatch(t, k, in)
		}
	}
}

// FuzzKernelsMatchGo reads nine constants and then four equal vectors of
// float32 bits from raw, and holds the wide kernels to their Go loops.
func FuzzKernelsMatchGo(f *testing.F) {
	seed := func(vals ...uint32) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	f.Add(seed(0x3f000000, 0x3f666666, 0x3dcccccd, 0x3f7fbe77, 0x3a83126f, 0x3dcccccd, 0x3a83126f, 0x3c23d70a, 0x322bcc77))
	f.Add(append(seed(0x3f800000, 0x3f666666, 0x3dcccccd, 0x3f7fbe77, 0x3a83126f, 0, 0x80000000, 0x7f800000, 0x7fc00000), seed(specials...)...))
	f.Add(seed(specials...))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 36 {
			return
		}
		floats := make([]float32, len(raw)/4)
		for i := range floats {
			floats[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		var k [9]float32
		copy(k[:], floats)
		data := floats[9:]
		n := len(data) / 4
		var in [4][]float32
		for i := range in {
			in[i] = data[i*n : (i+1)*n]
		}
		checkKernelsMatch(t, k, in)
	})
}

// TestKernelsRefuseShortBuffers launches every kernel with each buffer one
// element short, and with no arguments at all: each must be an error, never
// a panic and never a read past a buffer.
func TestKernelsRefuseShortBuffers(t *testing.T) {
	const rows, cols, n = 3, 5, 6
	vec := func(n int) tensor.Vector { return tensor.NewVector(n) }
	launches := map[string]cuda.KernelArgs{
		"linear.fwd":    {Bufs: []tensor.Vector{vec(rows * cols), vec(cols), vec(rows)}, IArgs: []int64{rows, cols}},
		"tanh.fwd":      {Bufs: []tensor.Vector{vec(n), vec(n)}},
		"tanh.bwd":      {Bufs: []tensor.Vector{vec(n), vec(n), vec(n)}},
		"linear.bwd.dw": {Bufs: []tensor.Vector{vec(rows), vec(cols), vec(rows * cols)}, IArgs: []int64{rows, cols}},
		"linear.bwd.dx": {Bufs: []tensor.Vector{vec(rows * cols), vec(rows), vec(cols)}, IArgs: []int64{rows, cols}},
		"mse.loss":      {Bufs: []tensor.Vector{vec(n), vec(n), vec(n), vec(1)}},
		"slice.copy":    {Bufs: []tensor.Vector{vec(n), vec(2)}, IArgs: []int64{n - 2}},
		"sgd.step":      {Bufs: []tensor.Vector{vec(n), vec(n), vec(n)}, FArgs: []float32{0.1, 0.9, 1}},
		"adam.step":     {Bufs: []tensor.Vector{vec(n), vec(n), vec(n), vec(n)}, FArgs: []float32{0.1, 0.9, 0.999, 1e-8, 1}, IArgs: []int64{1}},
		"acc.add":       {Bufs: []tensor.Vector{vec(n), vec(n)}},
		"zero":          {Bufs: []tensor.Vector{vec(n)}},
	}
	kernels := Kernels()
	if len(launches) != len(kernels) {
		t.Fatalf("the test launches %d kernels, the registry has %d", len(launches), len(kernels))
	}
	launch := func(name string, a cuda.KernelArgs) (err error) {
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("%s panicked: %v", name, p)
			}
		}()
		return kernels[name](a)
	}
	for name, a := range launches {
		if err := launch(name, a); err != nil {
			t.Fatalf("%s refused a well-shaped launch: %v", name, err)
		}
		if err := launch(name, cuda.KernelArgs{}); err == nil {
			t.Errorf("%s accepted a launch with no arguments", name)
		}
		for i := range a.Bufs {
			// A copy's length is its destination's, and zero fills any buffer.
			if name == "zero" || name == "slice.copy" && i == 1 {
				continue
			}
			short := a
			short.Bufs = slices.Clone(a.Bufs)
			short.Bufs[i] = short.Bufs[i][:len(short.Bufs[i])-1]
			if err := launch(name, short); err == nil {
				t.Errorf("%s accepted buffer %d one element short", name, i)
			}
		}
	}
	// An offset that starts outside the source.
	for _, off := range []int64{-1, n - 1} {
		a := launches["slice.copy"]
		a.IArgs = []int64{off}
		if err := launch("slice.copy", a); err == nil {
			t.Errorf("slice.copy accepted offset %d into %d elements", off, n)
		}
	}
}

var sinkF32 float32

// BenchmarkAdamStep times one adam.step over 16 384 elements, a Hidden-128
// layer's weights.
func BenchmarkAdamStep(b *testing.B) {
	const n = 128 * 128
	rng := rand.New(rand.NewSource(1))
	w, g, m, v := make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n)
	for i := range w {
		w[i], g[i] = float32(rng.NormFloat64()), float32(rng.NormFloat64())
	}
	k := adamConsts{scale: 0.5, b1: 0.9, omb1: 1 - float32(0.9), b2: 0.999, omb2: 1 - float32(0.999), c1: 0.1, c2: 0.001, lr: 1e-2, eps: 1e-8}
	b.SetBytes(4 * 4 * n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adamGo(w, g, m, v, &k, adamWide(w, g, m, v, &k))
	}
	sinkF32 = w[0]
}
