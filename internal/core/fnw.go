package core

import (
	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
)

// FNW is Flip-N-Write (Cho & Lee [7]) adapted to MLC PCM as the paper's
// evaluation does: the line is partitioned into four 128-bit blocks, and
// each block is stored either as-is or bitwise complemented, whichever
// needs less differential-write energy. One flip bit per block — four
// bits, two auxiliary cells per line — matches FlipMin's space overhead
// (§VIII). It is a blockCode row of two candidates: C1, and C1 of the
// complemented symbol (complementing a bit pair complements the
// symbol).
type FNW struct{ blockCode }

// fnwBlocks is the number of independently-flippable blocks per line.
const fnwBlocks = 4

// NewFNW returns the FNW scheme.
func NewFNW(cfg Config) *FNW {
	var flipped coset.Mapping
	for v := uint8(0); v < 4; v++ {
		flipped[v] = coset.C1[^v&3]
	}
	row := blockCode{
		name:     "FNW",
		geom:     coset.UniformBlocks(memline.LineCells, memline.LineCells/fnwBlocks),
		auxWidth: 1,
		auxBit:   uniformAux(2*memline.LineCells, 1, fnwBlocks),
		groups:   []auxGroup{identityGroup(1, 2)},
	}
	return &FNW{*newBlockCode(row, &cfg.Energy, []coset.Mapping{coset.C1, flipped})}
}
