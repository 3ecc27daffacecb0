package vcc

import (
	"fmt"
	"math/bits"

	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
)

// Scheme is the VCC-n write encoder: counter-mode encryption fused with
// per-word virtual coset selection. Each 64-bit word of the line is
// encrypted with the (key, addr, ctr) pad, then the cheapest of n
// candidate XOR vectors (candidate 0 = raw ciphertext) is applied and
// the result stored through the fixed C1 mapping; the winning index
// lands in the word's auxiliary cells. Decode reads the indices,
// regenerates the identical candidates from (key, addr, ctr), and
// undoes the XORs — the round trip ends in plaintext.
//
// Unlike WLCRC there is no compression gate: the encoded path is taken
// on every write, incompressible or not, which is the whole point on
// encrypted traffic.
//
// Scheme implements core.CounterPlaneScheme (bit planes, the form
// replay frontends store lines through) and core.CounterScheme (cells,
// for perfbench's codec probes); both run the one candidate sweep,
// bestCandidate, and agree bit for bit. The sweep prices in the interleaved "spread"
// domain of a data word, where cell c sits at bits 2c and 2c+1: the
// old states are spread once per word, each candidate is priced
// straight from the XORed ciphertext word, and only the winner is
// compacted into state planes. Counts become energy through a product
// table (prod[s][k] = k·WriteEnergy(s)), summed over s in ascending
// order exactly as coset.SWARTable.Price sums, so no multiply runs per
// candidate.
//
// There is deliberately no counter-blind form, so core.PlaneCodec
// answers false for Scheme.
//
// Scheme is immutable after construction and safe for concurrent use;
// all per-call scratch lives on the caller's stack.
type Scheme struct {
	name    string
	n       int // candidates per word: 2, 4 or 8
	idxBits int // bits per stored index: log2(n)
	cipher  Cipher
	em      pcm.EnergyModel
	// swar applies the fixed C1 mapping (and its inverse) word-parallel.
	swar coset.SWARTable
	// symPol[s] is the spread polarity word of the data symbol C1 maps
	// to state s (see fieldIs); prod[s][k] is k·WriteEnergy(s). A word
	// has 32 cells, which bounds every per-state count.
	symPol [pcm.NumStates]uint64
	prod   [pcm.NumStates][memline.WordCells + 1]float64
}

// New builds a VCC scheme with n candidate vectors per word (2, 4 or 8)
// under the given energy model. key 0 means DefaultKey.
func New(em pcm.EnergyModel, n int, key uint64) (*Scheme, error) {
	idxBits := 0
	switch n {
	case 2:
		idxBits = 1
	case 4:
		idxBits = 2
	case 8:
		idxBits = 3
	default:
		return nil, fmt.Errorf("vcc: candidate count %d not in {2,4,8}", n)
	}
	s := &Scheme{
		name:    fmt.Sprintf("VCC-%d", n),
		n:       n,
		idxBits: idxBits,
		cipher:  Cipher{Key: key},
		em:      em,
		swar:    coset.C1.SWAR(&em),
	}
	for st := range s.prod {
		s.symPol[st] = fieldPol(s.swar.Inv[st])
		for k := range s.prod[st] {
			s.prod[st][k] = float64(k) * s.swar.Energy[st]
		}
	}
	return s, nil
}

// Name implements core.Scheme.
func (s *Scheme) Name() string { return s.name }

// Candidates returns the per-word candidate count n.
func (s *Scheme) Candidates() int { return s.n }

// auxCells is the number of cells holding candidate indices: 8 words x
// idxBits bits, two bits per cell.
func (s *Scheme) auxCells() int { return memline.LineWords * s.idxBits / 2 }

// TotalCells implements core.Scheme: 256 data cells plus the candidate
// index cells (4, 8 or 12 for n = 2, 4, 8). The per-line write counter
// is not charged here — counter-mode encryption already maintains it in
// the counter store, and VCC merely reuses it (the paper's "free"
// randomness source).
func (s *Scheme) TotalCells() int { return memline.LineCells + s.auxCells() }

// DataCells implements core.Scheme.
func (s *Scheme) DataCells() int { return memline.LineCells }

// EncodeCtrInto implements core.CounterScheme: encrypt data under
// (addr, ctr), pick each word's cheapest candidate vector word-parallel,
// store the winners through C1 and the indices in the aux cells. Every
// cell of dst is written.
func (s *Scheme) EncodeCtrInto(dst, old []pcm.State, addr, ctr uint64, data *memline.Line) {
	var pad [memline.LineWords]uint64
	var vecs [MaxCandidates][memline.LineWords]uint64
	s.cipher.Candidates(addr, ctr, s.n, &pad, &vecs)

	var idx [memline.LineWords]uint8
	for w := 0; w < memline.LineWords; w++ {
		cells := old[w*memline.WordCells : (w+1)*memline.WordCells]
		best, nlo, nhi := s.bestCandidate(data.Word(w)^pad[w], coset.InterleaveStates(cells), &vecs, w)
		idx[w] = uint8(best)
		coset.UnpackStates(nlo, nhi, dst[w*memline.WordCells:(w+1)*memline.WordCells])
	}
	s.packIndices(&idx, dst[memline.LineCells:s.TotalCells()])
}

// EncodeCtrPlanesInto implements core.CounterPlaneScheme: the same
// candidate sweep as EncodeCtrInto, spreading the stored planes of each
// word and writing each winner's planes directly; the indices go
// straight into the tail word pair.
func (s *Scheme) EncodeCtrPlanesInto(dst, old []uint64, addr, ctr uint64, data *memline.Line) {
	var pad [memline.LineWords]uint64
	var vecs [MaxCandidates][memline.LineWords]uint64
	s.cipher.Candidates(addr, ctr, s.n, &pad, &vecs)

	var idx uint64
	for w := 0; w < memline.LineWords; w++ {
		spread := memline.InterleavePlanes(old[2*w], old[2*w+1])
		best, nlo, nhi := s.bestCandidate(data.Word(w)^pad[w], spread, &vecs, w)
		idx |= uint64(best) << uint(w*s.idxBits)
		dst[2*w], dst[2*w+1] = nlo, nhi
	}
	dst[tailWord], dst[tailWord+1] = auxPlanes(idx, memline.LineWords*s.idxBits)
}

// spreadLo selects bit 2c of every cell c of a spread word.
const spreadLo = 0x5555555555555555

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
// the state planes it stores: the ciphertext word cw XORed with the
// candidate, mapped through C1. old is the word's stored states in the
// spread layout (cell c at bits 2c and 2c+1). Candidate c programs the
// cells whose symbol in cw^vecs[c][w] maps to state s wherever the
// stored state is not already s, so each candidate costs one XOR and
// four masked popcounts, priced through prod; candidate 0 is the zero
// vector, so the ciphertext is priced directly. Ties keep the lower
// index. Only the winner is compacted into planes.
func (s *Scheme) bestCandidate(cw, old uint64, vecs *[MaxCandidates][memline.LineWords]uint64, w int) (best int, lo, hi uint64) {
	// k<st>: cells not already in state st, at their even bits; p<st>:
	// the polarity word of the symbol C1 maps to st.
	k0 := spreadLo &^ fieldIs(old, fieldPol(0))
	k1 := spreadLo &^ fieldIs(old, fieldPol(1))
	k2 := spreadLo &^ fieldIs(old, fieldPol(2))
	k3 := spreadLo &^ fieldIs(old, fieldPol(3))
	p0, p1, p2, p3 := s.symPol[0], s.symPol[1], s.symPol[2], s.symPol[3]
	prod := &s.prod
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

// DecodeCtrInto implements core.CounterScheme: read the indices,
// regenerate each word's pad and winning candidate word of (addr, ctr)
// through Keystream, and undo the winning XOR and the pad. dst is fully
// overwritten.
func (s *Scheme) DecodeCtrInto(cells []pcm.State, addr, ctr uint64, dst *memline.Line) {
	ks := s.cipher.Keystream(addr, ctr)
	var idx [memline.LineWords]uint8
	s.unpackIndices(cells[memline.LineCells:s.TotalCells()], &idx)
	for w := 0; w < memline.LineWords; w++ {
		slo, shi := coset.PackStates(cells[w*memline.WordCells:])
		dlo, dhi := s.swar.ApplyInvPlanes(slo, shi)
		cw := memline.InterleavePlanes(dlo, dhi)
		dst.SetWord(w, cw^ks.Candidate(int(idx[w]), w)^ks.Pad(w))
	}
}

// DecodeCtrPlanesInto implements core.CounterPlaneScheme: DecodeCtrInto
// reading the data words and the tail indices straight from the planes.
func (s *Scheme) DecodeCtrPlanesInto(planes []uint64, addr, ctr uint64, dst *memline.Line) {
	ks := s.cipher.Keystream(addr, ctr)
	idx := auxBits(planes[tailWord], planes[tailWord+1], memline.LineWords*s.idxBits)
	mask := uint64(s.n - 1)
	for w := 0; w < memline.LineWords; w++ {
		dlo, dhi := s.swar.ApplyInvPlanes(planes[2*w], planes[2*w+1])
		c := int(idx >> uint(w*s.idxBits) & mask)
		dst.SetWord(w, memline.InterleavePlanes(dlo, dhi)^ks.Candidate(c, w)^ks.Pad(w))
	}
}

// tailWord is the plane-pair index of the word holding cells 256+, where
// the candidate indices live.
const tailWord = 2 * (memline.LineCells / memline.WordCells)

// auxPlanes lays nbits bits of v (the per-word indices, idxBits each,
// LSB-first) into the aux cells 256+ of the tail word pair under the
// identity AuxPack mapping — bit 2k is the low plane and bit 2k+1 the
// high plane of cell 256+k — the plane form of packIndices. Every other
// bit of the pair is zero.
func auxPlanes(v uint64, nbits int) (lo, hi uint64) {
	for j := 0; j < nbits; j += 2 {
		lo |= (v >> uint(j) & 1) << uint(j/2)
		hi |= (v >> uint(j+1) & 1) << uint(j/2)
	}
	return lo, hi
}

// auxBits inverts auxPlanes.
func auxBits(lo, hi uint64, nbits int) (v uint64) {
	for j := 0; j < nbits; j += 2 {
		v |= (lo>>uint(j/2)&1)<<uint(j) | (hi>>uint(j/2)&1)<<uint(j+1)
	}
	return v
}

// packIndices stores the eight per-word candidate indices, idxBits bits
// each LSB-first, into the auxiliary cells through the fixed AuxPack
// mapping.
func (s *Scheme) packIndices(idx *[memline.LineWords]uint8, aux []pcm.State) {
	var bits [memline.LineWords * 3]uint8
	k := 0
	for w := 0; w < memline.LineWords; w++ {
		for b := 0; b < s.idxBits; b++ {
			bits[k] = idx[w] >> uint(b) & 1
			k++
		}
	}
	coset.PackBitsToStates(bits[:k], aux)
}

// unpackIndices inverts packIndices.
func (s *Scheme) unpackIndices(aux []pcm.State, idx *[memline.LineWords]uint8) {
	var bits [memline.LineWords * 3]uint8
	coset.UnpackBits(aux, bits[:memline.LineWords*s.idxBits])
	k := 0
	for w := 0; w < memline.LineWords; w++ {
		idx[w] = 0
		for b := 0; b < s.idxBits; b++ {
			idx[w] |= bits[k] & 1 << uint(b)
			k++
		}
	}
}
