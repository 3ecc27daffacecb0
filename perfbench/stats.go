package main

import (
	"math"
	"sort"
	"strings"
)

// percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks (the "R-7" rule spreadsheets
// use). xs is not modified. An empty xs yields NaN.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// passRate is the benchmark's throughput estimator: the rate of the
// fastest pass after the warm ones. The shared host this was tuned on
// runs this program at two speeds, one about 1.6 times the other, in
// stretches lasting seconds to minutes, so a run-total rate (or a median
// or a p90) reports how much of the run fell in slow stretches and
// swings by 30% between identical runs. The fast speed is a ceiling no
// pass exceeds, and a run of dozens of short passes nearly always
// reaches it; a slowdown of the code lowers it.
func passRate(rates []float64, warm int) float64 {
	if warm >= len(rates) {
		warm = len(rates) - 1
	}
	if warm < 0 {
		warm = 0
	}
	return percentile(rates[warm:], 1)
}

// amdahl fits Amdahl's law to a two-point scaling curve: with speedup S
// on n workers, the serial fraction is f = (n/S - 1)/(n - 1), which for
// n = 2 is 2/S - 1. The result is clamped to [0, 1] — a superlinear or
// inverted measurement says the curve is noise-bound, not that a
// fraction lies outside the model.
func amdahl(speedup float64, n int) float64 {
	if n < 2 || speedup <= 0 {
		return 1
	}
	f := (float64(n)/speedup - 1) / float64(n-1)
	return math.Max(0, math.Min(1, f))
}

// metricName turns a scheme name into a metric-name component: "+" and
// ")" are dropped and "(" becomes "-", so "COC+4cosets" is "COC4cosets"
// and "Enc(WLCRC-16)" is "Enc-WLCRC-16".
func metricName(scheme string) string {
	return strings.NewReplacer("+", "", ")", "", "(", "-").Replace(scheme)
}
