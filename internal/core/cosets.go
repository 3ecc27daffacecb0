package core

import (
	"fmt"

	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
)

// LineCosets is the family of unrestricted coset encoders operating on a
// bare (uncompressed) memory line with auxiliary symbols stored in extra
// cells, as in §III and the granularity sweeps of Figures 1–3 and 5:
//
//   - 6cosets [34]: six candidates, two aux cells per block, the
//     candidate identified by the i-th cheapest two-cell state pair.
//   - 4cosets / 3cosets (Table I): one aux cell per block, candidate Ci
//     stored directly as state Si (§IX.A).
//
// The block granularity ranges from 8 bits up to the full 512-bit line.
type LineCosets struct {
	name       string
	cands      []coset.Mapping
	swar       []coset.SWARTable
	geom       *coset.Blocks
	blockBits  int
	blockCells int
	nblocks    int
	auxPerBlk  int // aux cells per block: 1 for <=4 candidates, 2 for 6
	em         pcm.EnergyModel
	pairs      [][2]pcm.State
	// pairIdx[a][b] is the candidate whose aux pair is (a, b), or -1
	// when no candidate owns that pair.
	pairIdx [pcm.NumStates][pcm.NumStates]int8
}

// NewLineCosets builds an unrestricted coset scheme. blockBits must
// divide 512 and be even. With more than four candidates two auxiliary
// cells per block are used, otherwise one.
func NewLineCosets(cfg Config, name string, cands []coset.Mapping, blockBits int) *LineCosets {
	if blockBits < 2 || blockBits%2 != 0 || memline.LineBits%blockBits != 0 {
		panic(fmt.Sprintf("core: invalid coset block size %d", blockBits))
	}
	if len(cands) < 2 || len(cands) > 16 {
		panic("core: candidate count out of range")
	}
	s := &LineCosets{
		name:       name,
		cands:      cands,
		swar:       coset.SWARTables(&cfg.Energy, cands),
		geom:       coset.UniformBlocks(memline.LineCells, blockBits/2),
		blockBits:  blockBits,
		blockCells: blockBits / 2,
		nblocks:    memline.LineBits / blockBits,
		auxPerBlk:  1,
		em:         cfg.Energy,
	}
	if len(cands) > 4 {
		s.auxPerBlk = 2
		s.pairs = coset.AuxPairs(&cfg.Energy)[:len(cands)]
		for a := range s.pairIdx {
			for b := range s.pairIdx[a] {
				s.pairIdx[a][b] = -1
			}
		}
		for i, pair := range s.pairs {
			s.pairIdx[pair[0]][pair[1]] = int8(i)
		}
	}
	return s
}

// Name implements Scheme.
func (s *LineCosets) Name() string { return s.name }

// BlockBits returns the encoding granularity in bits.
func (s *LineCosets) BlockBits() int { return s.blockBits }

// TotalCells implements Scheme.
func (s *LineCosets) TotalCells() int {
	return memline.LineCells + s.nblocks*s.auxPerBlk
}

// DataCells implements Scheme.
func (s *LineCosets) DataCells() int { return memline.LineCells }

// RestrictedLineCosets is the line-level restricted coset encoding of §V
// (called 3-r-cosets in Figure 5): every block of the line is encoded
// with one of two candidates from a per-line group — either {C1,C2} or
// {C1,C3} — so each block costs one auxiliary bit plus one global bit for
// the whole line. The auxiliary bits are packed two per cell through the
// fixed C1 mapping.
type RestrictedLineCosets struct {
	name       string
	blockBits  int
	blockCells int
	nblocks    int
	em         pcm.EnergyModel
	geom       *coset.Blocks
	// swar prices and applies C1, C2, C3: a block's candidate index is
	// 0 for C1 and 1+group for its group's alternate.
	swar []coset.SWARTable
}

// NewRestrictedLineCosets builds the 3-r-cosets scheme at the given block
// granularity. blockBits must divide 512 and be even.
func NewRestrictedLineCosets(cfg Config, blockBits int) *RestrictedLineCosets {
	if blockBits < 2 || blockBits%2 != 0 || memline.LineBits%blockBits != 0 {
		panic(fmt.Sprintf("core: invalid coset block size %d", blockBits))
	}
	return &RestrictedLineCosets{
		name:       fmt.Sprintf("3-r-cosets-%d", blockBits),
		blockBits:  blockBits,
		blockCells: blockBits / 2,
		nblocks:    memline.LineBits / blockBits,
		em:         cfg.Energy,
		geom:       coset.UniformBlocks(memline.LineCells, blockBits/2),
		swar:       coset.SWARTables(&cfg.Energy, coset.Table1[:3]),
	}
}

// Name implements Scheme.
func (s *RestrictedLineCosets) Name() string { return s.name }

// BlockBits returns the encoding granularity in bits.
func (s *RestrictedLineCosets) BlockBits() int { return s.blockBits }

// auxCells returns the number of auxiliary cells: 1 global bit plus one
// bit per block, two bits per cell.
func (s *RestrictedLineCosets) auxCells() int { return (1 + s.nblocks + 1) / 2 }

// TotalCells implements Scheme.
func (s *RestrictedLineCosets) TotalCells() int { return memline.LineCells + s.auxCells() }

// DataCells implements Scheme.
func (s *RestrictedLineCosets) DataCells() int { return memline.LineCells }

// rlcMaxBlocks bounds the per-line block count (2-bit blocks) for the
// fixed plan scratch.
const rlcMaxBlocks = memline.LineBits / 2
