package pcm

import (
	"sort"
	"testing"
	"time"

	"wlcrc/internal/prng"
)

// settlePair is one (old, new) plane-resident line pair for the settle
// benchmarks, with its precomputed changed masks.
type settlePair struct {
	oldP, newP, masks []uint64
}

// settleFixture builds pairs of total-cell lines (dataCells of them
// data) whose cells each change, to a uniformly chosen different state,
// with probability pChange. A pool of pairs keeps the branch predictor
// from memorizing one line.
func settleFixture(total int, pChange float64) []settlePair {
	r := prng.New(20261017)
	pool := make([]settlePair, 64)
	for i := range pool {
		old := randStates(r, total)
		new := append([]State(nil), old...)
		for c := range new {
			if r.Bool(pChange) {
				new[c] = (new[c] + State(1+r.Intn(NumStates-1))) % NumStates
			}
		}
		p := settlePair{oldP: packTestPlanes(old), newP: packTestPlanes(new)}
		p.masks = make([]uint64, len(p.newP)/2)
		for c := range old {
			if old[c] != new[c] {
				p.masks[c/32] |= 1 << uint(c%32)
			}
		}
		pool[i] = p
	}
	return pool
}

// settleCases are the two traffic shapes the replay settle sees: a gcc
// write over a WLCRC-16 line (258 cells, ~47 programmed) and a
// ciphertext write over a VCC-8 line (268 cells, ~185 programmed).
var settleCases = []struct {
	name    string
	total   int
	pChange float64
}{
	{"gcc", 258, 47.0 / 258},
	{"ciphertext", 268, 185.0 / 268},
}

// BenchmarkDiffWriteMasks times the plane-resident energy and
// endurance accounting of one write.
func BenchmarkDiffWriteMasks(b *testing.B) {
	em := DefaultEnergy()
	for _, tc := range settleCases {
		pool := settleFixture(tc.total, tc.pChange)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink WriteStats
			for i := 0; i < b.N; i++ {
				p := &pool[i%len(pool)]
				st := em.DiffWriteMasks(p.oldP, p.newP, p.masks, 256)
				sink.Add(st)
			}
			if sink.Updated() == 0 {
				b.Fatal("no cells programmed")
			}
		})
	}
}

// BenchmarkCountDisturbMasks times the expected-value disturbance
// accounting of one write over the same line pairs.
func BenchmarkCountDisturbMasks(b *testing.B) {
	dm := DefaultDisturb()
	for _, tc := range settleCases {
		pool := settleFixture(tc.total, tc.pChange)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink DisturbStats
			for i := 0; i < b.N; i++ {
				p := &pool[i%len(pool)]
				sink.Add(dm.CountDisturbMasks(p.newP, p.masks, tc.total, 256, nil))
			}
			if sink.Errors() == 0 {
				b.Fatal("no disturbance counted")
			}
		})
	}
}

// BenchmarkDisturbPaired is the in-process paired rung of the settle
// layer's disturbance count: the chunked exposure walk
// (CountDisturbMasks) against the per-word walk it replaced
// (countDisturbWords), expected-value accounting, on the gcc and
// ciphertext pools of settleFixture. One op is one round: every arm
// counts its pool eight times, in an order that rotates each round, so
// the two arms of a pool share the machine's state of the moment. The
// rung reports, per pool, the median over the rounds of that round's
// chunk/word time ratio.
func BenchmarkDisturbPaired(b *testing.B) {
	dm := DefaultDisturb()
	type arm struct {
		pool  []settlePair
		total int
		walk  func(newP, masks []uint64, totalCells, dataCells int, rnd Sampler) DisturbStats
	}
	var arms []arm // chunk and word arm of settleCases[i] at 2i and 2i+1
	for _, tc := range settleCases {
		pool := settleFixture(tc.total, tc.pChange)
		arms = append(arms, arm{pool, tc.total, dm.CountDisturbMasks}, arm{pool, tc.total, dm.countDisturbWords})
	}
	const passes = 8 // pool passes per arm per round
	var sink DisturbStats
	run := func(a *arm) time.Duration {
		start := time.Now()
		for p := 0; p < passes; p++ {
			for k := range a.pool {
				sink.Add(a.walk(a.pool[k].newP, a.pool[k].masks, a.total, 256, nil))
			}
		}
		return time.Since(start)
	}
	ratios := make([][]float64, len(settleCases))
	took := make([]time.Duration, len(arms))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range arms {
			a := (i + j) % len(arms)
			took[a] = run(&arms[a])
		}
		for c := range settleCases {
			ratios[c] = append(ratios[c], took[2*c].Seconds()/took[2*c+1].Seconds())
		}
	}
	if sink.Errors() == 0 {
		b.Fatal("no disturbance counted")
	}
	for c, tc := range settleCases {
		sort.Float64s(ratios[c])
		n := len(ratios[c])
		b.ReportMetric((ratios[c][(n-1)/2]+ratios[c][n/2])/2, tc.name+"-chunk/word")
	}
}
