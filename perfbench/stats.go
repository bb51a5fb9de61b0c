package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile; with fewer, the percentile is an extrapolation of a
// handful of outliers and swings from run to run.
const minBeyond = 10

// tail is one reported latency percentile: the value, the percentile
// actually used (lowered from the requested one when too few samples
// lie beyond it) and the sample count it was taken from.
type tail struct {
	Value      float64
	Percentile float64
	Samples    int
}

// nearestRank returns the q-quantile (0 < q <= 1) of sorted samples by
// the nearest-rank rule: the smallest sample with at least q*n samples
// at or below it.
func nearestRank(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// tailPercentile reports the q-quantile of sorted samples when at least
// minBeyond samples lie beyond it, and otherwise the highest percentile
// that has that many. With minBeyond or fewer samples no percentile
// qualifies and the median stands in, labelled as percentile 50.
func tailPercentile(sorted []float64, q float64) tail {
	n := len(sorted)
	if n <= minBeyond {
		return tail{Value: nearestRank(sorted, 0.5), Percentile: 50, Samples: n}
	}
	// Nearest rank at q leaves n - ceil(q*n) samples beyond; the last
	// index that leaves minBeyond of them is n - minBeyond - 1.
	if n-int(math.Ceil(q*float64(n))) >= minBeyond {
		return tail{Value: nearestRank(sorted, q), Percentile: 100 * q, Samples: n}
	}
	p := float64(n-minBeyond) / float64(n)
	return tail{Value: sorted[n-minBeyond-1], Percentile: 100 * p, Samples: n}
}

// sortedCopy returns the samples in ascending order without touching
// the caller's slice.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the nearest-rank median of unsorted samples (0 when empty).
func median(xs []float64) float64 {
	return nearestRank(sortedCopy(xs), 0.5)
}

// midMean is the interquartile mean: the mean of the middle half of the
// samples by rank (0 when empty). It resists outliers like a median but
// keeps the resolution of a mean.
func midMean(xs []float64) float64 {
	sorted := sortedCopy(xs)
	n := len(sorted)
	if n == 0 {
		return 0
	}
	lo, hi := n/4, n-n/4
	var sum float64
	for _, x := range sorted[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// interval is a half-open time span [Start, End).
type interval struct {
	Start, End time.Time
}

// unionWithin returns how much of [start, end) the intervals cover,
// counting overlapping intervals once. Parts of an interval outside
// [start, end) do not count.
func unionWithin(start, end time.Time, ivs []interval) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := iv.Start, iv.End
		if s.Before(start) {
			s = start
		}
		if e.After(end) {
			e = end
		}
		if e.After(s) {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Start.Before(clipped[j].Start) })
	var covered time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.Start.After(cur.End):
			covered += cur.End.Sub(cur.Start)
			cur = iv
		case iv.End.After(cur.End):
			cur.End = iv.End
		}
	}
	if len(clipped) > 0 {
		covered += cur.End.Sub(cur.Start)
	}
	return covered
}

// selfTime is a span's duration minus the part of it that its children
// cover.
func selfTime(start, end time.Time, children []interval) time.Duration {
	return end.Sub(start) - unionWithin(start, end, children)
}

// ratio divides, returning 0 for an empty base so that a layer that did
// no work reads 0 rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// accounting tallies one measured window's outcomes.
type accounting struct {
	Attempted  int64
	Failed     int64 // operation returned an error
	Mismatched int64 // bytes differed from the recorded checksum
	Missing    int64 // acked state absent after the catalog reopened
}

func (a *accounting) add(o accounting) {
	a.Attempted += o.Attempted
	a.Failed += o.Failed
	a.Mismatched += o.Mismatched
	a.Missing += o.Missing
}

// bad counts every outcome that makes an operation wrong.
func (a accounting) bad() int64 { return a.Failed + a.Mismatched + a.Missing }

// errorRate is (failed + byte-mismatched + durability-missing) /
// attempted.
func (a accounting) errorRate() float64 {
	return ratio(float64(a.bad()), float64(a.Attempted))
}
