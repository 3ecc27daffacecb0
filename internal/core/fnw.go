package core

import (
	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
)

// FNW is Flip-N-Write (Cho & Lee [7]) adapted to MLC PCM as the paper's
// evaluation does: the line is partitioned into four 128-bit blocks, and
// each block is stored either as-is or bitwise complemented, whichever
// needs less differential-write energy. One flip bit per block — four
// bits, two auxiliary cells per line — matches FlipMin's space overhead
// (§VIII).
type FNW struct {
	em pcm.EnergyModel
	// swar[0] prices a symbol stored as-is through C1 and swar[1] its
	// complement (complementing a bit pair complements the symbol); a
	// block's flip bit is its candidate index.
	swar [2]coset.SWARTable
}

// fnwBlocks is the number of independently-flippable blocks per line.
const fnwBlocks = 4

// fnwBlockCells is the number of cells per 128-bit block.
const fnwBlockCells = memline.LineCells / fnwBlocks

// fnwGeom is the block geometry: one pair register per block.
var fnwGeom = coset.UniformBlocks(memline.LineCells, fnwBlockCells)

// NewFNW returns the FNW scheme.
func NewFNW(cfg Config) *FNW {
	var flipped coset.Mapping
	for v := uint8(0); v < 4; v++ {
		flipped[v] = coset.C1[^v&3]
	}
	return &FNW{
		em:   cfg.Energy,
		swar: [2]coset.SWARTable{coset.C1.SWAR(&cfg.Energy), flipped.SWAR(&cfg.Energy)},
	}
}

// Name implements Scheme.
func (*FNW) Name() string { return "FNW" }

// TotalCells implements Scheme.
func (*FNW) TotalCells() int { return memline.LineCells + 2 }

// DataCells implements Scheme.
func (*FNW) DataCells() int { return memline.LineCells }
