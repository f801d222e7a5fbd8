package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks (the estimator of Python's statistics.quantiles with
// method="inclusive"). xs need not be sorted; NaN is returned for no data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	if math.IsInf(s[lo+1], 1) {
		if frac == 0 {
			return s[lo]
		}
		return math.Inf(1)
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean of xs, 0 for no data.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, 0 when den is 0 (a counter that saw no traffic).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
