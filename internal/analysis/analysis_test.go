package analysis

import (
	"math"
	"testing"
	"testing/quick"
)

// wastedPeriodicAt is eq. 1 divided by N·t, the wasted time per GPU per unit
// useful time for periodic checkpointing at frequency c:
// w(c) = c·o + N·f·r + N·f/(2c). It is the reference that OptimalFrequency
// and WastedPeriodicOptimal are checked against.
func wastedPeriodicAt(p Params, c float64) float64 {
	nf := float64(p.N) * p.F
	return c*p.O + nf*p.R + nf/(2*c)
}

func TestOptimalFrequencyMinimizesWaste(t *testing.T) {
	// Property: W(c*) <= W(c* ± ε) for any positive parameters (eq. 3 is
	// the argmin of eq. 1).
	f := func(oRaw, fRaw, rRaw uint16, nRaw uint8) bool {
		p := Params{
			O: float64(oRaw%1000)/10 + 0.1,
			F: PerDay(float64(fRaw%100)/1000 + 1e-5),
			R: float64(rRaw % 300),
			N: int(nRaw)%4096 + 1,
		}
		c := OptimalFrequency(p)
		if c <= 0 {
			return false
		}
		w := wastedPeriodicAt(p, c)
		return w <= wastedPeriodicAt(p, c*1.01)+1e-12 &&
			w <= wastedPeriodicAt(p, c*0.99)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWastedAtOptimalMatchesClosedForm(t *testing.T) {
	p := Params{O: 5, F: PerDay(0.002), R: 9.9, N: 1024}
	direct := wastedPeriodicAt(p, OptimalFrequency(p))
	closed := WastedPeriodicOptimal(p)
	if math.Abs(direct-closed) > 1e-12 {
		t.Fatalf("closed form %v != direct %v", closed, direct)
	}
}

func TestBertWorkedExample(t *testing.T) {
	// Eq. 9: c* ≈ sqrt(N)/6hr. For N=4 that is one checkpoint every ~3
	// hours (0.33/hr); for N=1024, ~5.54/hr (§6.5).
	c4, _ := BertExample(4)
	if c4 < 0.30 || c4 > 0.37 {
		t.Fatalf("c*(4) = %v/hr, want ~0.33", c4)
	}
	c1024, _ := BertExample(1024)
	if c1024 < 5.2 || c1024 > 5.9 {
		t.Fatalf("c*(1024) = %v/hr, want ~5.54", c1024)
	}
	// Eq. 10: w* = 4.8e-4 sqrt(N) + 2.3e-7 N.
	for _, n := range []int{4, 64, 1024, 8192} {
		_, w := BertExample(n)
		want := 4.8e-4*math.Sqrt(float64(n)) + 2.3e-7*float64(n)
		if math.Abs(w-want)/want > 0.03 {
			t.Fatalf("w*(%d) = %v, want ~%v", n, w, want)
		}
	}
	// §6.5 wasted fractions: 0.1% at N=4, ~1.53% at N=1024.
	_, w4 := BertExample(4)
	if wf := WastedFraction(w4); wf < 0.0008 || wf > 0.0012 {
		t.Fatalf("wf(4) = %v, want ~0.096%%", wf)
	}
	_, w1024 := BertExample(1024)
	if wf := WastedFraction(w1024); wf < 0.014 || wf > 0.017 {
		t.Fatalf("wf(1024) = %v, want ~1.53%%", wf)
	}
}

func TestJITBeatsPeriodicAtScale(t *testing.T) {
	// The headline analytical claim: JIT wasted work grows much slower
	// with N, so it wins for large jobs.
	base := Params{O: 5, F: PerDay(0.002), R: 9.9, M: 0.418, OJit: 0}
	for _, n := range []int{1024, 8192} {
		p := base
		p.N = n
		if WastedUserJIT(p) >= WastedPeriodicOptimal(p) {
			t.Fatalf("user JIT does not beat periodic at N=%d", n)
		}
		if WastedTransparentJIT(p) >= WastedUserJIT(p) {
			t.Fatalf("transparent JIT should beat user JIT at N=%d", n)
		}
	}
}

func TestTransparentJITFlatInN(t *testing.T) {
	// Table 8: transparent JIT's wasted fraction stays nearly flat
	// because only N·f·m/2 grows, and m is sub-second.
	base := Params{O: 5, F: PerDay(0.002), R: 9.9, M: 0.279, OJit: 0.0069}
	p4, p8192 := base, base
	p4.N = 4
	p8192.N = 8192
	w4 := WastedFraction(WastedTransparentJIT(p4))
	w8192 := WastedFraction(WastedTransparentJIT(p8192))
	if w8192 > w4*1.2 {
		t.Fatalf("transparent JIT not flat: %v -> %v", w4, w8192)
	}
}

func TestDollarCost(t *testing.T) {
	// §5.1: 1000 GPUs, 1 error/day, 15 min lost, $4/hr -> $30,000/month;
	// 10,000 GPUs at 10/day -> $3M (quadratic).
	if got := DollarCost(1000, 1, 0.25, 4); math.Abs(got-30000) > 1 {
		t.Fatalf("1000-GPU cost = %v, want 30000", got)
	}
	if got := DollarCost(10000, 10, 0.25, 4); math.Abs(got-3e6) > 1 {
		t.Fatalf("10000-GPU cost = %v, want 3e6", got)
	}
}

func TestScaleModelMonotonicity(t *testing.T) {
	base := Params{O: 5, F: PerDay(0.002), R: 9.9, M: 0.418}
	rows := ScaleModel(base, []int{4, 1024, 8192})
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].CStarPerHour <= rows[i-1].CStarPerHour {
			t.Fatal("c* must grow with N")
		}
		if rows[i].WfPeriodic <= rows[i-1].WfPeriodic {
			t.Fatal("periodic wf must grow with N")
		}
	}
	// At N=8192 periodic must lose to both JIT variants.
	last := rows[2]
	if last.WfPeriodic <= last.WfUserJIT || last.WfPeriodic <= last.WfTransparentJIT {
		t.Fatalf("periodic should lose at 8192: %+v", last)
	}
}

func TestCrossover(t *testing.T) {
	base := Params{O: 5, F: PerDay(0.002), R: 9.9, M: 0.418, OJit: 0.002}
	n := CrossoverN(base, 1<<20)
	if n < 0 {
		t.Fatal("JIT never wins, which contradicts the paper")
	}
	// Verify it is a true crossover point.
	if n > 1 {
		p := base
		p.N = n - 1
		if WastedUserJIT(p) < WastedPeriodicOptimal(p) {
			t.Fatalf("JIT already wins at %d", n-1)
		}
	}
	p := base
	p.N = n + 1
	if WastedUserJIT(p) >= WastedPeriodicOptimal(p) {
		t.Fatalf("JIT does not win just past crossover %d", n)
	}
	// With no steady-state JIT overhead (costmodel's defaults), JIT already
	// wins at one GPU, and the crossover is that first GPU count.
	base.OJit = 0
	p = base
	if p.N = 1; WastedUserJIT(p) >= WastedPeriodicOptimal(p) {
		t.Fatal("JIT does not win at one GPU")
	}
	if n := CrossoverN(base, 1<<20); n != 1 {
		t.Fatalf("crossover at N=%d where JIT wins at one GPU, want 1", n)
	}
}

func TestDegenerateParams(t *testing.T) {
	if OptimalFrequency(Params{}) != 0 {
		t.Fatal("zero params should give zero frequency")
	}
	if WastedFraction(math.Inf(1)) != 1 {
		t.Fatal("infinite waste fraction should clamp to 1")
	}
}

func TestWastedFractionBoundsProperty(t *testing.T) {
	f := func(w uint32) bool {
		v := WastedFraction(float64(w) / 1000)
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScaleModel(b *testing.B) {
	base := Params{O: 5, F: PerDay(0.002), R: 9.9, M: 0.418}
	ns := []int{4, 16, 64, 256, 1024, 4096, 8192}
	for i := 0; i < b.N; i++ {
		ScaleModel(base, ns)
	}
}
