package vcc

import (
	"sort"
	"testing"
	"time"

	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
	"wlcrc/internal/prng"
)

// ctrPool is a steady-state pool of keyed encodes for one scheme: line
// k was last written at counter 1 from erased cells, so olds[k] holds
// that write's planes, and the timed encode writes data[k] at counter 2.
type ctrPool struct {
	olds [][]uint64
	data []memline.Line
}

func newCtrPool(s *Scheme, lines int) ctrPool {
	r := prng.New(20261019)
	width := coset.PlaneWords(s.TotalCells())
	p := ctrPool{olds: make([][]uint64, lines), data: make([]memline.Line, lines)}
	for k := range p.olds {
		first := randomLine(r)
		p.data[k] = randomLine(r)
		p.olds[k] = make([]uint64, width)
		s.EncodeCtrPlanesInto(p.olds[k], make([]uint64, width), uint64(k), 1, &first)
	}
	return p
}

// BenchmarkVCCPaired is the in-process paired rung of VCC's candidate
// sweep: Scheme.EncodeCtrPlanesInto (the generic sweep, uint64 costs
// under Table II) against the float sweep it replaced (refSweep), for
// VCC-2, VCC-4 and VCC-8 on a steady-state ciphertext pool. One op is
// one round: every arm encodes its pool eight times, in an order that
// rotates each round, so the two arms of a scheme share the machine's
// state of the moment. The rung reports, per scheme, the median over
// the rounds of that round's new/ref time ratio.
func BenchmarkVCCPaired(b *testing.B) {
	type arm struct {
		enc  func(dst, old []uint64, addr, ctr uint64, data *memline.Line)
		pool *ctrPool
		dst  []uint64
	}
	ns := []int{2, 4, 8}
	var names []string
	var arms []arm // new and ref arm of ns[i] at 2i and 2i+1
	for _, n := range ns {
		s, err := New(pcm.DefaultEnergy(), n, 0)
		if err != nil {
			b.Fatal(err)
		}
		names = append(names, s.Name())
		pool := newCtrPool(s, 128)
		width := coset.PlaneWords(s.TotalCells())
		arms = append(arms,
			arm{s.EncodeCtrPlanesInto, &pool, make([]uint64, width)},
			arm{newRefSweep(s).EncodeCtrPlanesInto, &pool, make([]uint64, width)})
	}
	const passes = 8 // pool passes per arm per round
	run := func(a *arm) time.Duration {
		start := time.Now()
		for p := 0; p < passes; p++ {
			for k := range a.pool.olds {
				a.enc(a.dst, a.pool.olds[k], uint64(k), 2, &a.pool.data[k])
			}
		}
		return time.Since(start)
	}
	ratios := make([][]float64, len(names))
	took := make([]time.Duration, len(arms))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range arms {
			a := (i + j) % len(arms)
			took[a] = run(&arms[a])
		}
		for c := range names {
			ratios[c] = append(ratios[c], took[2*c].Seconds()/took[2*c+1].Seconds())
		}
	}
	for c, name := range names {
		sort.Float64s(ratios[c])
		m := len(ratios[c])
		b.ReportMetric((ratios[c][(m-1)/2]+ratios[c][m/2])/2, name+"-new/ref")
	}
}
