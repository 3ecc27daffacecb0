package core

import (
	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
)

// Plane-native codecs of the whole-line schemes: FlipMin, FNW, and the
// (restricted) line-coset family. Each reads old state via SetOldPlanes
// and emits new state as planes, so neither PackStates nor UnpackStates
// runs on the hot path; the tests hold each to a per-cell scalar
// reference with the same candidate sweeps and tie-breaks.

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

// EncodePlanesInto implements PlaneScheme: XOR the line's bit-planes
// with each candidate's plane pair, price the result word-parallel
// through the C1 weights, then store only the winner's planes.
func (f *FlipMin) EncodePlanesInto(dst, old []uint64, data *memline.Line) {
	var lp linePlanes
	lp.initPlanes(data, old)
	bestIdx, bestCost := 0, -1.0
	for i := range f.maskPlanes {
		var cnt [4]int
		for w := 0; w < memline.LineWords; w++ {
			p := &lp[w]
			m := &f.maskPlanes[i][w]
			f.swar.CountsPlanes(p.Lo^m[0], p.Hi^m[1], p, coset.AllCells, &cnt)
		}
		cost, _ := f.swar.CostOf(&cnt)
		if bestCost < 0 || cost < bestCost {
			bestIdx, bestCost = i, cost
		}
	}
	for w := 0; w < memline.LineWords; w++ {
		m := &f.maskPlanes[bestIdx][w]
		dst[2*w], dst[2*w+1] = f.swar.ApplyPlanes(lp[w].Lo^m[0], lp[w].Hi^m[1])
	}
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

// FNW -------------------------------------------------------------------

// EncodePlanesInto implements PlaneScheme.
func (f *FNW) EncodePlanesInto(dst, old []uint64, data *memline.Line) {
	var lp linePlanes
	lp.initPlanes(data, old)
	var ns newStates
	var bits uint8
	for b := 0; b < fnwBlocks; b++ {
		lo := b * fnwBlockCells
		hi := lo + fnwBlockCells
		costKeep, _ := lp.blockCost(&f.swarKeep, lo, hi)
		costFlip, _ := lp.blockCost(&f.swarFlip, lo, hi)
		tab := &f.swarKeep
		if costFlip < costKeep {
			bits |= 1 << uint(b)
			tab = &f.swarFlip
		}
		ns.applyBlock(tab, &lp, lo, hi)
	}
	ns.writePlanes(dst, memline.LineCells)
	setTailBits4(dst, bits)
}

// DecodePlanesInto implements PlaneScheme.
func (f *FNW) DecodePlanesInto(planes []uint64, dst *memline.Line) {
	bits := tailBits4(planes)
	var sp lineStatePlanes
	sp.fromPlanes(planes, memline.LineWords)
	var dw dataWords
	for b := 0; b < fnwBlocks; b++ {
		lo := b * fnwBlockCells
		tab := &f.swarKeep
		if bits>>uint(b)&1 == 1 {
			tab = &f.swarFlip
		}
		dw.decodeBlock(tab, &sp, lo, lo+fnwBlockCells)
	}
	for w := 0; w < memline.LineWords; w++ {
		dst.SetWord(w, dw.word(w))
	}
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

func (s *LineCosets) readAuxPlanes(planes []uint64, block int) int {
	base := memline.LineCells + block*s.auxPerBlk
	if s.auxPerBlk == 1 {
		idx := int(coset.PlaneGet(planes, base))
		if idx >= len(s.cands) {
			idx = 0
		}
		return idx
	}
	key := [2]pcm.State{coset.PlaneGet(planes, base), coset.PlaneGet(planes, base+1)}
	if idx, ok := s.pairIdx[key]; ok {
		return idx
	}
	return 0
}

// EncodePlanesInto implements PlaneScheme.
func (s *LineCosets) EncodePlanesInto(dst, old []uint64, data *memline.Line) {
	var lp linePlanes
	lp.initPlanes(data, old)
	var ns newStates
	zeroTail(dst)
	for b := 0; b < s.nblocks; b++ {
		lo := b * s.blockCells
		hi := lo + s.blockCells
		idx, _ := lp.bestBlock(s.swar, lo, hi)
		ns.applyBlock(&s.swar[idx], &lp, lo, hi)
		s.writeAuxPlanes(dst, b, idx)
	}
	ns.writePlanes(dst, memline.LineCells)
}

// DecodePlanesInto implements PlaneScheme.
func (s *LineCosets) DecodePlanesInto(planes []uint64, dst *memline.Line) {
	var sp lineStatePlanes
	sp.fromPlanes(planes, memline.LineWords)
	var dw dataWords
	for b := 0; b < s.nblocks; b++ {
		lo := b * s.blockCells
		dw.decodeBlock(&s.swar[s.readAuxPlanes(planes, b)], &sp, lo, lo+s.blockCells)
	}
	for w := 0; w < memline.LineWords; w++ {
		dst.SetWord(w, dw.word(w))
	}
}

// RestrictedLineCosets --------------------------------------------------

// EncodePlanesInto implements PlaneScheme.
func (s *RestrictedLineCosets) EncodePlanesInto(dst, old []uint64, data *memline.Line) {
	var lp linePlanes
	lp.initPlanes(data, old)
	var costs [2]float64
	var choices [2][rlcMaxBlocks]uint8
	for g := 0; g < 2; g++ {
		alt := &s.swarAlt[g]
		var total float64
		for b := 0; b < s.nblocks; b++ {
			lo := b * s.blockCells
			hi := lo + s.blockCells
			c1, _ := lp.blockCost(&s.swar1, lo, hi)
			ca, _ := lp.blockCost(alt, lo, hi)
			if ca < c1 {
				choices[g][b] = 1
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
	alt := &s.swarAlt[group]
	choice := &choices[group]

	var ns newStates
	var bits [1 + rlcMaxBlocks]uint8
	bits[0] = uint8(group)
	for b := 0; b < s.nblocks; b++ {
		lo := b * s.blockCells
		tab := &s.swar1
		if choice[b] == 1 {
			tab = alt
		}
		ns.applyBlock(tab, &lp, lo, lo+s.blockCells)
		bits[1+b] = choice[b]
	}
	ns.writePlanes(dst, memline.LineCells)
	zeroTail(dst)
	setTailBitsPlanes(dst, bits[:1+s.nblocks])
}

// DecodePlanesInto implements PlaneScheme.
func (s *RestrictedLineCosets) DecodePlanesInto(planes []uint64, dst *memline.Line) {
	var bits [1 + rlcMaxBlocks]uint8
	tailBitsPlanes(planes, bits[:1+s.nblocks])
	alt := &s.swarAlt[bits[0]&1]
	var sp lineStatePlanes
	sp.fromPlanes(planes, memline.LineWords)
	var dw dataWords
	for b := 0; b < s.nblocks; b++ {
		lo := b * s.blockCells
		tab := &s.swar1
		if bits[1+b] == 1 {
			tab = alt
		}
		dw.decodeBlock(tab, &sp, lo, lo+s.blockCells)
	}
	for w := 0; w < memline.LineWords; w++ {
		dst.SetWord(w, dw.word(w))
	}
}
