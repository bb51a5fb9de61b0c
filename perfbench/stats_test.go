package main

import (
	"math"
	"testing"
	"time"
)

func ascending(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		value      float64
		percentile float64
	}{
		// 1000 samples: p99 is the 990th and 10 lie beyond it.
		{n: 1000, value: 990, percentile: 99},
		// 500 samples: p99 would leave 5 beyond, so the highest
		// percentile with 10 beyond is p98 (the 490th sample).
		{n: 500, value: 490, percentile: 98},
		// 11 samples: only the first sample has 10 beyond it.
		{n: 11, value: 1, percentile: 100.0 / 11},
		// 10 or fewer: no percentile qualifies, the median stands in.
		{n: 10, value: 5, percentile: 50},
	} {
		got := tailPercentile(ascending(tc.n), 0.99)
		if got.Value != tc.value || math.Abs(got.Percentile-tc.percentile) > 1e-9 || got.Samples != tc.n {
			t.Errorf("n=%d: got %+v, want value %v at p%v", tc.n, got, tc.value, tc.percentile)
		}
		if tc.n > minBeyond {
			beyond := 0
			for _, x := range ascending(tc.n) {
				if x > got.Value {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: only %d samples beyond the reported tail", tc.n, beyond)
			}
		}
	}
}

func TestNearestRankMedian(t *testing.T) {
	if got := nearestRank(ascending(4), 0.5); got != 2 {
		t.Fatalf("median of 1..4 = %v, want 2", got)
	}
	if got := nearestRank(nil, 0.5); got != 0 {
		t.Fatalf("median of nothing = %v, want 0", got)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	base := time.Unix(0, 0)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	iv := func(from, to int) interval { return interval{at(from), at(to)} }
	for _, tc := range []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100 * time.Millisecond},
		{"disjoint", []interval{iv(10, 20), iv(30, 50)}, 70 * time.Millisecond},
		// [10,30) and [20,40) overlap: together they cover 30 ms, not 40.
		{"overlapping", []interval{iv(10, 30), iv(20, 40)}, 70 * time.Millisecond},
		{"nested", []interval{iv(10, 60), iv(20, 30)}, 50 * time.Millisecond},
		// Children reaching outside the parent count only inside it.
		{"clipped", []interval{iv(-5, 5), iv(90, 120)}, 85 * time.Millisecond},
		{"covering", []interval{iv(0, 60), iv(50, 100)}, 0},
	} {
		if got := selfTime(at(0), at(100), tc.children); got != tc.want {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestErrorRateCountsEveryKindOfFailure(t *testing.T) {
	a := accounting{Attempted: 200, Failed: 1, Mismatched: 2, Missing: 1}
	if got := a.errorRate(); got != 0.02 {
		t.Fatalf("error rate %v, want 0.02", got)
	}
	if got := (accounting{}).errorRate(); got != 0 {
		t.Fatalf("empty error rate %v, want 0", got)
	}
}

func TestMidMeanDropsOuterQuarters(t *testing.T) {
	if got := midMean([]float64{100, 1, 2, 3, 4, 5, 6, -50}); got != 3.5 {
		t.Fatalf("midMean = %v, want 3.5 (mean of 2..5)", got)
	}
	if got := midMean([]float64{7}); got != 7 {
		t.Fatalf("midMean of one sample = %v, want 7", got)
	}
}
