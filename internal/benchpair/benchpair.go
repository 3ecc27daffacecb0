// Package benchpair times the arms of an in-process paired benchmark.
//
// A paired rung gates a ratio, not an absolute time: the time of one
// code path over another's, such as a production codec over the frozen
// reference it replaced, or the engine at four workers over the engine
// at one. Both arms run in one process, interleaved in short rounds, so
// they share the machine's state of the moment, and the median of the
// per-round ratios holds on a box where two separately timed runs
// spread too widely to compare. The ratio needs no baseline measured on
// another machine or day.
//
// Only _test.go files import this package.
package benchpair

import (
	"sort"
	"testing"
	"time"
)

// Pair is one ratio a rung reports: the time of Num over the time of
// Den, as a b.ReportMetric value under the unit Metric. Each call of an
// arm runs one pass over its fixture.
type Pair struct {
	Metric   string
	Num, Den func()
}

// Run times b.N rounds. In each round every arm of every pair runs
// passes times in a row, the arms in an order that rotates by one each
// round, and each pair's Num/Den time ratio of the round is kept. Run
// then reports each pair's median ratio over the rounds under its
// Metric. Set-up belongs before Run, which resets the timer.
func Run(b *testing.B, passes int, pairs ...Pair) {
	ratios := rounds(b.N, passes, b.ResetTimer, pairs)
	for k, p := range pairs {
		b.ReportMetric(median(ratios[k]), p.Metric)
	}
}

// rounds runs Run's n rounds after calling start, and returns each
// pair's per-round ratios.
func rounds(n, passes int, start func(), pairs []Pair) [][]float64 {
	arms := make([]func(), 0, 2*len(pairs)) // Num and Den of pairs[k] at 2k and 2k+1
	for _, p := range pairs {
		arms = append(arms, p.Num, p.Den)
	}
	took := make([]time.Duration, len(arms))
	ratios := make([][]float64, len(pairs))
	start()
	for i := 0; i < n; i++ {
		for j := range arms {
			a := (i + j) % len(arms)
			t0 := time.Now()
			for p := 0; p < passes; p++ {
				arms[a]()
			}
			took[a] = time.Since(t0)
		}
		for k := range pairs {
			ratios[k] = append(ratios[k], took[2*k].Seconds()/took[2*k+1].Seconds())
		}
	}
	return ratios
}

// median returns the median of xs, reordering them.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	return (xs[(n-1)/2] + xs[n/2]) / 2
}
