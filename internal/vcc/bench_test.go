package vcc

import (
	"testing"

	"wlcrc/internal/benchpair"
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
	var pairs []benchpair.Pair
	for _, n := range []int{2, 4, 8} {
		s, err := New(pcm.DefaultEnergy(), n, 0)
		if err != nil {
			b.Fatal(err)
		}
		pool := newCtrPool(s, 128)
		width := coset.PlaneWords(s.TotalCells())
		arm := func(enc func(dst, old []uint64, addr, ctr uint64, data *memline.Line)) func() {
			dst := make([]uint64, width)
			return func() {
				for k := range pool.olds {
					enc(dst, pool.olds[k], uint64(k), 2, &pool.data[k])
				}
			}
		}
		pairs = append(pairs, benchpair.Pair{Metric: s.Name() + "-new/ref",
			Num: arm(s.EncodeCtrPlanesInto), Den: arm(newRefSweep(s).EncodeCtrPlanesInto)})
	}
	benchpair.Run(b, 8, pairs...) // eight pool passes per arm per round
}
