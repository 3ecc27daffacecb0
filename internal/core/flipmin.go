package core

import (
	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/prng"
)

// FlipMin (Jacobvitz, Calderbank & Sorin [14]) maps each line to a coset
// of codeword candidates and writes the cheapest member. As in the
// paper's evaluation, our adaptation uses 16 candidates over the whole
// 512-bit line, generated pseudo-randomly with the technique of PRES
// [32] (seeded xoshiro vectors; candidate 0 is the all-zero vector so the
// original data is always a member). The candidate index occupies four
// bits = two auxiliary cells.
type FlipMin struct {
	// maskWords holds every candidate mask as words, so the winner's
	// data can be rebuilt by whole-word XOR at decode.
	maskWords [16][memline.LineWords]uint64
	// maskRegs caches every mask's pair-register planes. LoHiPlanes is
	// linear over XOR, so the planes of (line ^ mask) are two XORs per
	// register — the 16-candidate sweep never re-extracts the data.
	maskRegs [16][coset.MaxRegs][2]uint64
	// swar prices symbol-over-state through the default C1 mapping; the
	// 16-candidate sweep is four popcounts per register per candidate.
	swar coset.SWARTable
}

// flipMinSeed pins the pseudo-random candidate set; it is part of the
// code definition, not a tuning knob.
const flipMinSeed = 0xF11BA5ED

// NewFlipMin returns the FlipMin scheme.
func NewFlipMin(cfg Config) *FlipMin {
	f := &FlipMin{}
	r := prng.New(flipMinSeed)
	for i := range f.maskWords {
		var mask memline.Line
		if i > 0 {
			r.Fill(mask[:])
		}
		f.maskWords[i] = mask.Words()
		for r := range f.maskRegs[i] {
			lo0, hi0 := memline.LoHiPlanes(f.maskWords[i][2*r])
			lo1, hi1 := memline.LoHiPlanes(f.maskWords[i][2*r+1])
			f.maskRegs[i][r] = [2]uint64{coset.Pair(lo0, lo1), coset.Pair(hi0, hi1)}
		}
	}
	f.swar = coset.C1.SWAR(&cfg.Energy)
	return f
}

// Name implements Scheme.
func (*FlipMin) Name() string { return "FlipMin" }

// TotalCells implements Scheme.
func (*FlipMin) TotalCells() int { return memline.LineCells + 2 }

// DataCells implements Scheme.
func (*FlipMin) DataCells() int { return memline.LineCells }

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
	mask := &f.maskWords[tailBits4(planes)]
	for w := 0; w < memline.LineWords; w++ {
		dst.SetWord(w, rawDecodeWord(planes[2*w], planes[2*w+1])^mask[w])
	}
}
