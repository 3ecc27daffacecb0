package vcc

import (
	"math/bits"

	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
	"wlcrc/internal/prng"
)

// MaxCandidates bounds the per-word candidate count (VCC-8).
const MaxCandidates = 8

// Candidates fills pad with the line's keystream and vecs[0..n) with the
// n virtual coset candidate vectors of (addr, ctr), one 8-word vector
// per candidate, reading the stream sequentially: candidate 0 is the
// zero vector and candidates 1..n-1 are the continuation of the pad
// stream. It is the reference generator the random-access Keystream the
// codec reads is held to. n must be in [1, MaxCandidates].
func (c Cipher) Candidates(addr, ctr uint64, n int,
	pad *[memline.LineWords]uint64, vecs *[MaxCandidates][memline.LineWords]uint64) {
	if n < 1 || n > MaxCandidates {
		panic("vcc: candidate count out of range")
	}
	sm := prng.NewSplitMix64(c.seed(addr, ctr))
	for w := range pad {
		pad[w] = sm.Uint64()
	}
	for w := range vecs[0] {
		vecs[0][w] = 0
	}
	for v := 1; v < n; v++ {
		for w := range vecs[v] {
			vecs[v][w] = sm.Uint64()
		}
	}
}

// refSweep is the float candidate sweep the generic sweep replaced: it
// generates every candidate of the line into an [8][8] array through
// Candidates, and per word prices each candidate in float64 through
// prod[s][k] = k·WriteEnergy(s), summed in ascending state order, with
// fieldIs on the XORed word. It is BenchmarkVCCPaired's reference arm
// and a second oracle in checkAgainstScalar.
type refSweep struct {
	s    *Scheme
	prod [pcm.NumStates][memline.WordCells + 1]float64
}

func newRefSweep(s *Scheme) *refSweep {
	r := &refSweep{s: s}
	for st := range r.prod {
		for k := range r.prod[st] {
			r.prod[st][k] = float64(k) * s.swar.Energy[st]
		}
	}
	return r
}

// EncodeCtrPlanesInto is Scheme.EncodeCtrPlanesInto through the float
// sweep.
func (r *refSweep) EncodeCtrPlanesInto(dst, old []uint64, addr, ctr uint64, data *memline.Line) {
	s := r.s
	var pad [memline.LineWords]uint64
	var vecs [MaxCandidates][memline.LineWords]uint64
	s.cipher.Candidates(addr, ctr, s.n, &pad, &vecs)

	var idx uint64
	for w := 0; w < memline.LineWords; w++ {
		spread := memline.InterleavePlanes(old[2*w], old[2*w+1])
		best, nlo, nhi := r.bestCandidate(data.Word(w)^pad[w], spread, &vecs, w)
		idx |= uint64(best) << uint(w*s.idxBits)
		dst[2*w], dst[2*w+1] = nlo, nhi
	}
	dst[tailWord], dst[tailWord+1] = memline.LoHiPlanes(idx)
}

// fieldPol returns the polarity word of the 2-bit value v: XORing a
// spread word with it turns exactly the cells holding v into 0b11.
func fieldPol(v uint8) uint64 {
	return ^(uint64(v&3) * spreadLo)
}

// fieldIs returns, at bit 2c, whether cell c of the spread word x holds
// the value whose polarity word is pol.
func fieldIs(x, pol uint64) uint64 {
	t := x ^ pol
	return t & (t >> 1) & spreadLo
}

// bestCandidate returns the index of word w's cheapest candidate and
// the state planes it stores; old is the word's stored states in the
// spread layout. Ties keep the lower index.
func (r *refSweep) bestCandidate(cw, old uint64, vecs *[MaxCandidates][memline.LineWords]uint64, w int) (best int, lo, hi uint64) {
	s := r.s
	k0 := spreadLo &^ fieldIs(old, fieldPol(0))
	k1 := spreadLo &^ fieldIs(old, fieldPol(1))
	k2 := spreadLo &^ fieldIs(old, fieldPol(2))
	k3 := spreadLo &^ fieldIs(old, fieldPol(3))
	p0, p1, p2, p3 := fieldPol(s.swar.Inv[0]), fieldPol(s.swar.Inv[1]), fieldPol(s.swar.Inv[2]), fieldPol(s.swar.Inv[3])
	prod := &r.prod
	price := func(x uint64) float64 {
		n0 := bits.OnesCount64(fieldIs(x, p0) & k0)
		n1 := bits.OnesCount64(fieldIs(x, p1) & k1)
		n2 := bits.OnesCount64(fieldIs(x, p2) & k2)
		n3 := bits.OnesCount64(fieldIs(x, p3) & k3)
		return prod[0][n0] + prod[1][n1] + prod[2][n2] + prod[3][n3]
	}
	bestCost := price(cw)
	for c := 1; c < s.n; c++ {
		if cost := price(cw ^ vecs[c][w]); cost < bestCost {
			best, bestCost = c, cost
		}
	}
	lo, hi = s.swar.ApplyPlanes(memline.LoHiPlanes(cw ^ vecs[best][w]))
	return best, lo, hi
}
