package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// The reportable tail percentile is the highest with at least ten samples
// beyond it; below 100 samples there is none and the report prints
// min/max.
func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64 // 0 = none
	}{
		{1, 0}, {20, 0}, {99, 0},
		{100, 90}, {240, 90}, {999, 90},
		{1000, 99}, {9999, 99},
		{10000, 99.9}, {1 << 20, 99.9},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if !ok {
			got = 0
		}
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if ok && float64(c.n)*(100-got)/100 < 10-1e-9 {
			t.Errorf("tailPercentile(%d) = p%v has fewer than ten samples beyond it", c.n, got)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 240)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending input: summarize must sort
	}
	s := summarize(xs)
	if s.N != 240 || !near(s.Median, 120.5) || s.Min != 1 || s.Max != 240 {
		t.Fatalf("summarize = %+v", s)
	}
	if s.TailPct != 90 || !near(s.Tail, 1+0.9*239) {
		t.Fatalf("tail = p%v %v, want p90 %v", s.TailPct, s.Tail, 1+0.9*239)
	}
	small := summarize([]float64{3, 1, 2})
	if small.TailPct != 0 || small.Median != 2 || small.Min != 1 || small.Max != 3 {
		t.Fatalf("small summarize = %+v", small)
	}
}

func TestMedianAndVariantMedians(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// Mean over variants of each variant's median: one slow variant does
	// not drag the others' medians, and one outlier pass does not move its
	// variant's.
	got := variantMedians([][]float64{{10, 11, 100}, {20, 21, 19}})
	if !near(got, (11.0+20.0)/2) {
		t.Errorf("variantMedians = %v, want 15.5", got)
	}
}

func TestNoisy(t *testing.T) {
	if noisy(100, 104) || noisy(104, 100) {
		t.Error("4% canary drift flagged noisy")
	}
	if !noisy(100, 106) || !noisy(106, 100) {
		t.Error("6% canary drift not flagged noisy")
	}
}
