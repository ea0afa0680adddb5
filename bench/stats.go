package main

import (
	"math"
	"sort"
)

// median returns the middle value (mean of the middle two for even n);
// NaN for an empty sample.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linear-interpolation quantile of xs (not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentile reports the p-th percentile (nearest rank) only where at
// least minBeyond samples lie beyond it — the choosing-metrics rule that a
// tail number must be backed by samples, not by interpolation into an empty
// tail. ok is false when the sample is too small.
func tailPercentile(xs []float64, p float64, minBeyond int) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return math.NaN(), false
	}
	return s[rank-1], true
}

// clampedGeoMean is the geometric mean of xs after clamping each value to
// [lo, hi]; non-finite values clamp to hi (an interval that cannot be
// computed is as bad as the widest one). NaN for an empty sample.
func clampedGeoMean(xs []float64, lo, hi float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(clamp(x, lo, hi))
	}
	return math.Exp(sum / float64(len(xs)))
}

func clamp(x, lo, hi float64) float64 {
	if math.IsNaN(x) || x > hi {
		return hi
	}
	if x < lo {
		return lo
	}
	return x
}

// bar is one returned chart bar as the wire carries it.
type bar struct {
	Category string  `json:"category"`
	Count    float64 `json:"count"`
	CI       float64 `json:"ci"`
}

// relCI is one chart's relative confidence-interval half-width: the mean of
// ci/count over its bars. A bar with a zero or negative count has no defined
// ratio and counts as 1 (the clamp's ceiling).
func relCI(bars []bar) float64 {
	if len(bars) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, b := range bars {
		if b.Count > 0 {
			sum += b.CI / b.Count
		} else {
			sum++
		}
	}
	return sum / float64(len(bars))
}

// coverage counts the bars whose count ± ci contains the exact value; a bar
// the truth does not know has exact value 0. The slack absorbs float
// round-off on bars Audit Join computed exactly (ci = 0). An answer with no
// bars misses every bar the chart should have shown.
func coverage(bars []bar, truth map[string]float64) (covered, total int) {
	if len(bars) == 0 { // no estimate yet: every bar the chart should show is missed
		return 0, min(len(truth), topN)
	}
	for _, b := range bars {
		exact := truth[b.Category]
		slack := 1e-9 * math.Max(1, math.Abs(exact))
		if math.Abs(b.Count-exact) <= b.CI+slack {
			covered++
		}
		total++
	}
	return covered, total
}

// iqrShare is the distance between the first and third quartile as a share
// of the median, with quartiles as Python's statistics.quantiles(n=4)
// (exclusive method) gives them — the spread the acceptance check uses.
func iqrShare(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	iqr, med := q(3)-q(1), median(s)
	switch {
	case iqr == 0:
		return 0
	case med == 0:
		return math.MaxFloat64 // JSON has no infinity
	}
	return iqr / math.Abs(med)
}
