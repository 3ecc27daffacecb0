package core

import (
	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
)

// Plane-native codecs of the whole-line schemes: FlipMin, FNW, and the
// (restricted) line-coset family. Each loads the data and the old
// planes into pair registers (coset.Regs), prices and applies its
// candidates through the block kernel, and stores new state as planes,
// so neither PackStates nor UnpackStates runs on the hot path; the
// tests hold each to a per-cell scalar reference with the same
// candidate sweeps and tie-breaks, and the separable ones to the
// optimality oracle (oracle_test.go).

// planeOrSet stores state s into cell c of a plane-resident line whose
// target bits are known to be zero (an OR-only PlaneSet for freshly
// zeroed tail words).
func planeOrSet(planes []uint64, c int, s pcm.State) {
	w, b := c>>5, uint(c&31)
	planes[2*w] |= uint64(s&1) << b
	planes[2*w+1] |= uint64(s>>1) << b
}

// zeroTail clears every plane word of dst from cell 256 up — the aux
// region writers then OR their states in, and the tail-zero invariant
// holds for free.
func zeroTail(dst []uint64) {
	for i := tailWord; i < len(dst); i++ {
		dst[i] = 0
	}
}

// setTailBitsPlanes packs auxiliary bits into the (zeroed) tail under
// the identity AuxPack layout: bit 2k goes to the low plane and bit
// 2k+1 to the high plane of cell 256+k — the plane form of
// coset.PackBitsToStates over the aux region.
func setTailBitsPlanes(dst []uint64, bits []uint8) {
	for j, b := range bits {
		c := memline.LineCells + j/2
		w, pos := c>>5, uint(c&31)
		dst[2*w+j%2] |= uint64(b&1) << pos
	}
}

// tailBitsPlanes reads back the bits stored by setTailBitsPlanes.
func tailBitsPlanes(planes []uint64, bits []uint8) {
	for j := range bits {
		c := memline.LineCells + j/2
		w, pos := c>>5, uint(c&31)
		bits[j] = uint8(planes[2*w+j%2]>>pos) & 1
	}
}

// FlipMin ---------------------------------------------------------------

// EncodePlanesInto implements PlaneScheme: XOR the line's pair
// registers with each candidate's register planes, price the result 64
// cells per popcount through the C1 weights, then store only the
// winner's planes.
func (f *FlipMin) EncodePlanesInto(dst, old []uint64, data *memline.Line) {
	var p coset.Regs
	p.Load(data, old)
	bestIdx, bestCost := 0, 0.0
	for i := range f.maskRegs {
		var cnt [4]int
		for r := 0; r < coset.MaxRegs; r++ {
			m := &f.maskRegs[i][r]
			f.swar.CountReg(p.Lo[r]^m[0], p.Hi[r]^m[1], &p.OldIs[r], &cnt)
		}
		if cost, _ := f.swar.Price(&cnt); i == 0 || cost < bestCost {
			bestIdx, bestCost = i, cost
		}
	}
	var lo, hi [coset.MaxRegs]uint64
	for r := range lo {
		m := &f.maskRegs[bestIdx][r]
		lo[r], hi[r] = f.swar.ApplyReg(p.Lo[r]^m[0], p.Hi[r]^m[1])
	}
	coset.StoreRegs(dst, &lo, &hi, memline.LineCells)
	setTailBits4(dst, uint8(bestIdx))
}

// DecodePlanesInto implements PlaneScheme.
func (f *FlipMin) DecodePlanesInto(planes []uint64, dst *memline.Line) {
	idx := int(tailBits4(planes))
	rawDecodePlanes(planes, dst)
	for w := 0; w < memline.LineWords; w++ {
		dst.SetWord(w, dst.Word(w)^f.maskWords[idx][w])
	}
}

// decodeRegs decodes the stored states of a line's data registers
// through the per-block candidates idx and returns the data words.
func decodeRegs(planes []uint64, tabs []coset.SWARTable, g *coset.Blocks, idx []uint8) (words [memline.LineWords]uint64) {
	var lo, hi [coset.MaxRegs]uint64
	coset.LoadRegs(planes, &lo, &hi)
	coset.DecodeBlocks(tabs, g, idx, &lo, &hi)
	for r := range lo {
		words[2*r], words[2*r+1] = coset.RegWords(lo[r], hi[r])
	}
	return words
}

// FNW -------------------------------------------------------------------

// EncodePlanesInto implements PlaneScheme. Each 128-bit block is one
// pair register, so keep-vs-flip is four popcounts per candidate.
func (f *FNW) EncodePlanesInto(dst, old []uint64, data *memline.Line) {
	var p coset.Regs
	p.Load(data, old)
	var idx [fnwBlocks]uint8
	coset.BestBlocks(f.swar[:], &p, fnwGeom, idx[:])
	var lo, hi [coset.MaxRegs]uint64
	coset.ApplyBlocks(f.swar[:], &p, fnwGeom, idx[:], &lo, &hi)
	coset.StoreRegs(dst, &lo, &hi, memline.LineCells)
	setTailBits4(dst, idx[0]|idx[1]<<1|idx[2]<<2|idx[3]<<3)
}

// DecodePlanesInto implements PlaneScheme.
func (f *FNW) DecodePlanesInto(planes []uint64, dst *memline.Line) {
	bits := tailBits4(planes)
	var idx [fnwBlocks]uint8
	for b := range idx {
		idx[b] = bits >> uint(b) & 1
	}
	*dst = memline.FromWords(decodeRegs(planes, f.swar[:], fnwGeom, idx[:]))
}

// LineCosets ------------------------------------------------------------

func (s *LineCosets) writeAuxPlanes(dst []uint64, block, idx int) {
	base := memline.LineCells + block*s.auxPerBlk
	if s.auxPerBlk == 1 {
		planeOrSet(dst, base, pcm.State(idx))
		return
	}
	pair := s.pairs[idx]
	planeOrSet(dst, base, pair[0])
	planeOrSet(dst, base+1, pair[1])
}

// readAuxPlanes returns block's candidate index; an aux encoding no
// candidate owns decodes as candidate 0.
func (s *LineCosets) readAuxPlanes(planes []uint64, block int) uint8 {
	base := memline.LineCells + block*s.auxPerBlk
	if s.auxPerBlk == 1 {
		idx := coset.PlaneGet(planes, base)
		if int(idx) >= len(s.cands) {
			idx = 0
		}
		return uint8(idx)
	}
	if idx := s.pairIdx[coset.PlaneGet(planes, base)][coset.PlaneGet(planes, base+1)]; idx >= 0 {
		return uint8(idx)
	}
	return 0
}

// EncodePlanesInto implements PlaneScheme.
func (s *LineCosets) EncodePlanesInto(dst, old []uint64, data *memline.Line) {
	var p coset.Regs
	p.Load(data, old)
	var idx [memline.LineCells]uint8
	coset.BestBlocks(s.swar, &p, s.geom, idx[:s.nblocks])
	s.storeBlocks(dst, &p, idx[:s.nblocks])
}

// storeBlocks writes the data cells of the chosen per-block candidates
// and their aux encodings.
func (s *LineCosets) storeBlocks(dst []uint64, p *coset.Regs, idx []uint8) {
	var lo, hi [coset.MaxRegs]uint64
	coset.ApplyBlocks(s.swar, p, s.geom, idx, &lo, &hi)
	coset.StoreRegs(dst, &lo, &hi, memline.LineCells)
	zeroTail(dst)
	for b, i := range idx {
		s.writeAuxPlanes(dst, b, int(i))
	}
}

// DecodePlanesInto implements PlaneScheme.
func (s *LineCosets) DecodePlanesInto(planes []uint64, dst *memline.Line) {
	var idx [memline.LineCells]uint8
	for b := 0; b < s.nblocks; b++ {
		idx[b] = s.readAuxPlanes(planes, b)
	}
	*dst = memline.FromWords(decodeRegs(planes, s.swar, s.geom, idx[:s.nblocks]))
}

// RestrictedLineCosets --------------------------------------------------

// EncodePlanesInto implements PlaneScheme.
func (s *RestrictedLineCosets) EncodePlanesInto(dst, old []uint64, data *memline.Line) {
	var p coset.Regs
	p.Load(data, old)
	n := s.nblocks
	var cost [3 * rlcMaxBlocks]float64
	coset.EvalBlocks(s.swar, &p, s.geom, cost[:3*n])
	var costs [2]float64
	var choices [2][rlcMaxBlocks]bool
	for g := 0; g < 2; g++ {
		var total float64
		for b := 0; b < n; b++ {
			c1, ca := cost[3*b], cost[3*b+1+g]
			if ca < c1 {
				choices[g][b] = true
				total += ca
			} else {
				total += c1
			}
		}
		costs[g] = total
	}
	group := 0
	if costs[1] < costs[0] {
		group = 1
	}
	var idx [rlcMaxBlocks]uint8
	var bits [1 + rlcMaxBlocks]uint8
	bits[0] = uint8(group)
	for b, alt := range choices[group][:n] {
		if alt {
			idx[b] = uint8(1 + group)
			bits[1+b] = 1
		}
	}
	var lo, hi [coset.MaxRegs]uint64
	coset.ApplyBlocks(s.swar, &p, s.geom, idx[:n], &lo, &hi)
	coset.StoreRegs(dst, &lo, &hi, memline.LineCells)
	zeroTail(dst)
	setTailBitsPlanes(dst, bits[:1+n])
}

// DecodePlanesInto implements PlaneScheme.
func (s *RestrictedLineCosets) DecodePlanesInto(planes []uint64, dst *memline.Line) {
	var bits [1 + rlcMaxBlocks]uint8
	tailBitsPlanes(planes, bits[:1+s.nblocks])
	var idx [rlcMaxBlocks]uint8
	for b, bit := range bits[1 : 1+s.nblocks] {
		idx[b] = bit * (1 + bits[0])
	}
	*dst = memline.FromWords(decodeRegs(planes, s.swar, s.geom, idx[:s.nblocks]))
}
