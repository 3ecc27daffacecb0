package vcc

import (
	"fmt"

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
// Scheme implements core.CounterScheme (cells) and
// core.CounterPlaneScheme (bit planes, the form replay frontends store
// lines through); both share one candidate sweep and agree bit for bit.
// The counter-blind EncodeInto/DecodeInto forms use (addr=0, ctr=0) — a
// degenerate static-whitening mode kept for the generic Scheme
// contract; replay frontends always drive the counter-aware path. There
// is deliberately no counter-blind plane form, so core.PlaneCodec
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
	// swar prices and applies the fixed C1 mapping word-parallel; tab is
	// the scalar CostTable the reference encoder and tests price with.
	swar coset.SWARTable
	tab  coset.CostTable
}

// New builds a VCC scheme with n candidate vectors per word (2, 4 or 8)
// under the given energy model. key 0 means DefaultKey.
func New(em pcm.EnergyModel, n int, key uint64) (*Scheme, error) {
	bits := 0
	switch n {
	case 2:
		bits = 1
	case 4:
		bits = 2
	case 8:
		bits = 3
	default:
		return nil, fmt.Errorf("vcc: candidate count %d not in {2,4,8}", n)
	}
	return &Scheme{
		name:    fmt.Sprintf("VCC-%d", n),
		n:       n,
		idxBits: bits,
		cipher:  Cipher{Key: key},
		em:      em,
		swar:    coset.C1.SWAR(&em),
		tab:     coset.C1.CostTable(&em),
	}, nil
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

// Encode implements core.Scheme (allocating wrapper, addr=0, ctr=0).
func (s *Scheme) Encode(old []pcm.State, data *memline.Line) []pcm.State {
	out := make([]pcm.State, s.TotalCells())
	s.EncodeInto(out, old, data)
	return out
}

// EncodeInto implements core.Scheme with the degenerate (addr=0, ctr=0)
// stream.
func (s *Scheme) EncodeInto(dst, old []pcm.State, data *memline.Line) {
	s.EncodeCtrInto(dst, old, 0, 0, data)
}

// Decode implements core.Scheme (allocating wrapper, addr=0, ctr=0).
func (s *Scheme) Decode(cells []pcm.State) memline.Line {
	var l memline.Line
	s.DecodeInto(cells, &l)
	return l
}

// DecodeInto implements core.Scheme with the degenerate (addr=0, ctr=0)
// stream.
func (s *Scheme) DecodeInto(cells []pcm.State, dst *memline.Line) {
	s.DecodeCtrInto(cells, 0, 0, dst)
}

// EncodeCtrInto implements core.CounterScheme: encrypt data under
// (addr, ctr), pick each word's cheapest candidate vector word-parallel,
// store the winners through C1 and the indices in the aux cells. Every
// cell of dst is written.
func (s *Scheme) EncodeCtrInto(dst, old []pcm.State, addr, ctr uint64, data *memline.Line) {
	var pad [memline.LineWords]uint64
	var vecs [MaxCandidates][memline.LineWords]uint64
	s.cipher.Candidates(addr, ctr, s.n, &pad, &vecs)

	var idx [memline.LineWords]uint8
	var p coset.WordPlanes
	for w := 0; w < memline.LineWords; w++ {
		p.Init(data.Word(w)^pad[w], old[w*memline.WordCells:(w+1)*memline.WordCells])
		best, nlo, nhi := s.bestCandidate(&p, &vecs, w)
		idx[w] = uint8(best)
		coset.UnpackStates(nlo, nhi, dst[w*memline.WordCells:(w+1)*memline.WordCells])
	}
	s.packIndices(&idx, dst[memline.LineCells:s.TotalCells()])
}

// EncodeCtrPlanesInto implements core.CounterPlaneScheme: the same
// candidate sweep as EncodeCtrInto, pricing against the stored planes
// through SetOldPlanes and writing each winner's planes directly; the
// indices go straight into the tail word pair.
func (s *Scheme) EncodeCtrPlanesInto(dst, old []uint64, addr, ctr uint64, data *memline.Line) {
	var pad [memline.LineWords]uint64
	var vecs [MaxCandidates][memline.LineWords]uint64
	s.cipher.Candidates(addr, ctr, s.n, &pad, &vecs)

	var idx uint64
	var p coset.WordPlanes
	for w := 0; w < memline.LineWords; w++ {
		p.SetData(data.Word(w) ^ pad[w])
		p.SetOldPlanes(old[2*w], old[2*w+1])
		best, nlo, nhi := s.bestCandidate(&p, &vecs, w)
		idx |= uint64(best) << uint(w*s.idxBits)
		dst[2*w], dst[2*w+1] = nlo, nhi
	}
	dst[tailWord], dst[tailWord+1] = auxPlanes(idx, memline.LineWords*s.idxBits)
}

// bestCandidate returns the index of word w's cheapest candidate and
// the state planes it stores: the ciphertext XORed with the candidate,
// mapped through C1. p holds the ciphertext word's data planes and the
// stored states. Candidate 0 is the zero vector, so the ciphertext is
// priced directly; ties keep the lower index.
func (s *Scheme) bestCandidate(p *coset.WordPlanes, vecs *[MaxCandidates][memline.LineWords]uint64, w int) (best int, lo, hi uint64) {
	bestCost, _ := s.swar.CostCount(p, coset.AllCells)
	blo, bhi := p.Lo, p.Hi
	for c := 1; c < s.n; c++ {
		// LoHiPlanes is linear over XOR, so the candidate's planes are
		// two XORs — the word is never re-extracted.
		vlo, vhi := memline.LoHiPlanes(vecs[c][w])
		vlo, vhi = p.Lo^vlo, p.Hi^vhi
		var cnt [4]int
		s.swar.CountsPlanes(vlo, vhi, p, coset.AllCells, &cnt)
		if cost, _ := s.swar.CostOf(&cnt); cost < bestCost {
			best, bestCost, blo, bhi = c, cost, vlo, vhi
		}
	}
	lo, hi = s.swar.ApplyPlanes(blo, bhi)
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

// encodeWordScalar is the per-cell reference of the SWAR word path: it
// prices every candidate with the scalar CostTable, applies the winner
// symbol by symbol, and returns the chosen index. Equivalence tests and
// fuzz targets assert SWAR == scalar bit for bit.
func (s *Scheme) encodeWordScalar(cipherWord uint64, vecs *[MaxCandidates][memline.LineWords]uint64, w int, old, out []pcm.State) uint8 {
	best, bestCost := 0, 0.0
	for c := 0; c < s.n; c++ {
		var syms [memline.WordCells]uint8
		memline.WordSymbols(cipherWord^vecs[c][w], &syms)
		cost := s.tab.BlockCost(syms[:], old[:memline.WordCells])
		if c == 0 || cost < bestCost {
			best, bestCost = c, cost
		}
	}
	var syms [memline.WordCells]uint8
	memline.WordSymbols(cipherWord^vecs[best][w], &syms)
	s.tab.Encode(syms[:], out[:memline.WordCells])
	return uint8(best)
}
