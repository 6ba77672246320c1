package main

import (
	"math"
	"sort"
)

func sorted(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

func median(vals []float64) float64 {
	s := sorted(vals)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// summarise reduces a run's repeats to the value it reports (see
// aggregate), with median, range and count beside it. With the handful of
// repeats a run has, no percentile above the median is supportable and
// none is reported.
func summarise(vals []float64, d metricDef) stat {
	s := sorted(vals)
	st := stat{N: len(s), Values: vals}
	if len(s) == 0 {
		return st
	}
	st.Min, st.Max, st.Median = s[0], s[len(s)-1], median(s)
	st.Value = st.Median
	if d.agg == aggMean {
		st.Value = mean(s)
	}
	return st
}

// iqrShare is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method): the
// spread figure the benchmark contract uses.
func iqrShare(vals []float64) float64 {
	s := sorted(vals)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		lo := int(math.Floor(pos))
		lo = max(1, min(lo, n-1))
		frac := pos - float64(lo)
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / m)
}
