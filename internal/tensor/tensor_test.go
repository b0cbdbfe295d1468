package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAXPY(t *testing.T) {
	v := Vector{1, 2, 3}
	x := Vector{10, 20, 30}
	v.AXPY(0.5, x)
	want := Vector{6, 12, 18}
	if !v.Equal(want) {
		t.Fatalf("AXPY: got %v want %v", v, want)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Vector{1}.AXPY(1, Vector{1, 2})
}

func TestCloneIsDeep(t *testing.T) {
	v := Vector{1, 2, 3}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone shares backing array")
	}
}

func TestChecksumDetectsSingleBitChange(t *testing.T) {
	rng := NewRNG(42)
	v := NewVector(1024)
	rng.FillUniform(v, 1)
	before := v.Checksum()
	bits := math.Float32bits(v[512]) ^ 1
	v[512] = math.Float32frombits(bits)
	if v.Checksum() == before {
		t.Fatal("checksum unchanged after bit flip")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRNG(7).Uint64() == NewRNG(8).Uint64() {
		t.Fatal("different seeds produced identical first value")
	}
}

func TestRNGZeroSeedRemapped(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck generator")
	}
}

func TestRNGStateIsCheckpointable(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 17; i++ {
		r.Uint64()
	}
	saved := r.State
	want := []uint64{r.Uint64(), r.Uint64(), r.Uint64()}
	restored := &RNG{State: saved}
	for i, w := range want {
		if got := restored.Uint64(); got != w {
			t.Fatalf("restored RNG diverged at draw %d: %d vs %d", i, got, w)
		}
	}
}

func TestRNGFloat32Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float32()
		if f < 0 || f >= 1 {
			t.Fatalf("Float32 out of range: %v", f)
		}
	}
}

// Property: checksum is a pure function of content.
func TestChecksumPureProperty(t *testing.T) {
	f := func(data []float32) bool {
		v := Vector(data)
		return v.Checksum() == v.Clone().Checksum()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkChecksum(b *testing.B) {
	v := NewVector(1 << 16)
	NewRNG(1).FillUniform(v, 1)
	b.SetBytes(int64(4 * len(v)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Checksum()
	}
}
