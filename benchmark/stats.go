package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0..1) of an ascending slice by linear
// interpolation between closest ranks; NaN when s is empty.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// median returns the median of xs (any order).
func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// mean returns the arithmetic mean of xs; NaN when xs is empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailPercentile picks the highest reportable percentile of n samples:
// the largest of 99.9, 99 and 90 that still has at least ten samples
// beyond it. ok is false when even p90 does not (n < 100); the report
// then prints min/max instead.
func tailPercentile(n int) (pct float64, ok bool) {
	for _, p := range []float64{99.9, 99, 90} {
		// Compare in integers: n*(1000-10p)/1000 >= 10.
		if n*int(math.Round(1000-10*p)) >= 10*1000 {
			return p, true
		}
	}
	return 0, false
}

// timing summarizes one series of per-pass measurements.
type timing struct {
	N        int
	Median   float64
	Min, Max float64
	TailPct  float64 // 0 when no percentile is reportable
	Tail     float64
}

func summarize(xs []float64) timing {
	s := sorted(xs)
	t := timing{N: len(s), Median: quantile(s, 0.5)}
	if len(s) == 0 {
		return t
	}
	t.Min, t.Max = s[0], s[len(s)-1]
	if p, ok := tailPercentile(len(s)); ok {
		t.TailPct, t.Tail = p, quantile(s, p/100)
	}
	return t
}
