// Package analysis implements the paper's §5 failure-overhead model:
// optimal periodic-checkpointing frequency (eq. 3), wasted GPU work for
// periodic checkpointing at that frequency (eqs. 4–6), wasted work for
// user-level and transparent just-in-time checkpointing (eqs. 7–8), the
// §5.1 dollar-cost estimate, and the BERT-L-PT worked example (eqs. 9–10).
//
// All quantities use seconds and per-second rates; converters to and from
// simulated time live with the callers.
package analysis

import (
	"fmt"
	"math"
)

// Params are the model inputs of §5.2.
type Params struct {
	// O is the overhead time of one checkpoint on one GPU, seconds.
	O float64
	// F is the failure rate of one GPU, failures per second.
	F float64
	// R is the fixed recovery cost per failure per GPU, seconds
	// (checkpoint download, process and GPU init, data preparation).
	R float64
	// N is the number of GPUs.
	N int
	// M is the minibatch time, seconds (JIT models only).
	M float64
	// OJit is the steady-state JIT overhead per GPU per unit time
	// (dimensionless; measured near zero in §6).
	OJit float64
}

// PerDay converts a per-day rate to per-second.
func PerDay(x float64) float64 { return x / 86400 }

// OptimalFrequency returns c* = sqrt(N·f / 2o), checkpoints per second
// (eq. 3).
func OptimalFrequency(p Params) float64 {
	if p.O <= 0 || p.F <= 0 || p.N <= 0 {
		return 0
	}
	return math.Sqrt(float64(p.N) * p.F / (2 * p.O))
}

// WastedPeriodicOptimal returns w* at the optimal frequency (eq. 5):
// w* = sqrt(N·f·o/2) + N·f·r + sqrt(N·f·o/2).
func WastedPeriodicOptimal(p Params) float64 {
	nf := float64(p.N) * p.F
	term := math.Sqrt(nf * p.O / 2)
	return term + nf*p.R + term
}

// WastedFraction converts wasted-per-useful time w into the wasted time
// fraction w_f = w / (1 + w) (eq. 6).
func WastedFraction(w float64) float64 {
	if math.IsInf(w, 1) {
		return 1
	}
	return w / (1 + w)
}

// WastedUserJIT returns wasted time per GPU per unit useful time for
// user-level JIT checkpointing (eq. 7 divided by N·t):
// w = f·o + o_jit + N·f·r + N·f·m/2.
func WastedUserJIT(p Params) float64 {
	nf := float64(p.N) * p.F
	return p.F*p.O + p.OJit + nf*p.R + nf*p.M/2
}

// WastedTransparentJIT returns wasted time per GPU per unit useful time
// for transparent JIT checkpointing of transient errors (eq. 8):
// w = o_jit + N·f·m/2. The fixed cost r vanishes because the CPU process
// survives, and no checkpoint copy happens at all.
func WastedTransparentJIT(p Params) float64 {
	return p.OJit + float64(p.N)*p.F*p.M/2
}

// DollarCost estimates the monthly cost of failure-wasted GPU time under
// periodic checkpointing (§5.1): N GPUs, errorsPerDay failures/day for the
// whole job, each wasting lostHours across all N GPUs, at $/GPU-hour.
func DollarCost(n int, errorsPerDay, lostHoursPerError, dollarPerGPUHour float64) float64 {
	return float64(n) * errorsPerDay * 30 * lostHoursPerError * dollarPerGPUHour
}

// Scaling is one row of the paper's Table 8 for one model and one N.
type Scaling struct {
	N int
	// CStarPerHour is the optimal periodic frequency, checkpoints/hour.
	CStarPerHour float64
	// WfPeriodic, WfUserJIT, WfTransparentJIT are wasted time fractions.
	WfPeriodic       float64
	WfUserJIT        float64
	WfTransparentJIT float64
}

// ScaleModel evaluates the three policies across GPU counts for one
// model's measured constants (o, r, m from Tables 4–5, the failure rate
// from the OPT job).
func ScaleModel(base Params, ns []int) []Scaling {
	out := make([]Scaling, 0, len(ns))
	for _, n := range ns {
		p := base
		p.N = n
		out = append(out, Scaling{
			N:                n,
			CStarPerHour:     OptimalFrequency(p) * 3600,
			WfPeriodic:       WastedFraction(WastedPeriodicOptimal(p)),
			WfUserJIT:        WastedFraction(WastedUserJIT(p)),
			WfTransparentJIT: WastedFraction(WastedTransparentJIT(p)),
		})
	}
	return out
}

// BertExample reproduces the §6.5 worked example for BERT-L-PT
// (o = 5 s, r = 9.9 s, f ≈ 2×10⁻³ per GPU per day): it returns c* in
// checkpoints/hour and w* for the given N, matching eqs. 9–10.
func BertExample(n int) (cStarPerHour, wStar float64) {
	p := Params{O: 5, R: 9.9, F: PerDay(2.0 / 1000), N: n}
	return OptimalFrequency(p) * 3600, WastedPeriodicOptimal(p)
}

// CrossoverN finds the smallest N (by doubling then bisection) at which
// user-level JIT's wasted fraction beats optimal periodic checkpointing.
// It returns 0 if JIT already wins at n=1, and -1 if it never wins below
// the limit.
func CrossoverN(base Params, limit int) int {
	wins := func(n int) bool {
		p := base
		p.N = n
		return WastedUserJIT(p) < WastedPeriodicOptimal(p)
	}
	if wins(1) {
		return 0
	}
	lo, hi := 1, 2
	for !wins(hi) {
		hi *= 2
		if hi > limit {
			return -1
		}
	}
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if wins(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// String renders a scaling row like the paper's Table 8 cells.
func (s Scaling) String() string {
	return fmt.Sprintf("N=%d c*=%.2f/hr wf(PC)=%.2f%% wf(UJIT)=%.2f%% wf(TJIT)=%.2f%%",
		s.N, s.CStarPerHour, 100*s.WfPeriodic, 100*s.WfUserJIT, 100*s.WfTransparentJIT)
}
