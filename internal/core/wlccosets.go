package core

import (
	"fmt"

	"wlcrc/internal/compress"
	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
)

// WLCCosets integrates word-level compression with *unrestricted* coset
// encoding (§VI: "WLC can be integrated with unrestricted 3cosets or
// 4cosets encodings, as long as WLC can reclaim enough bits"). Each
// 64-bit word must reclaim two candidate bits per block:
//
//	granularity  8   16  32  64  bits
//	reclaimed    16  8   4   2   bits per word (k = r+1 MSBs compressed)
//
// The reclaimed field of each word holds the per-block candidate indices
// (stored through the fixed C1 mapping); one global flag cell marks
// incompressible lines, which are written raw. The Figure 8 scheme
// "WLC+4cosets" is this encoder with four candidates at 32-bit blocks.
type WLCCosets struct {
	displayName string
	em          pcm.EnergyModel
	cands       []coset.Mapping
	swar        []coset.SWARTable
	gran        int
	wlc         compress.WLC
	dataCells   int      // fully-data cells per word
	blocks      [][2]int // [lo,hi) cell ranges of each block within a word
	geom        *coset.Blocks
}

// wlcMaxLineBlocks bounds the per-line block count: a word's blocks
// need two aux bits each out of at most 16 reclaimed.
const wlcMaxLineBlocks = memline.LineWords * 8

// wlcReclaim maps block granularity to the reclaimed bits per word.
var wlcReclaim = map[int]int{8: 16, 16: 8, 32: 4, 64: 2}

// NewWLCCosets builds a WLC+Ncosets scheme with ncands in {3, 4} Table I
// candidates at the given block granularity (8, 16, 32 or 64 bits). The
// canonical evaluation configuration (ncands=4, gran=32) reports its name
// as "WLC+4cosets"; other configurations append the granularity.
func NewWLCCosets(cfg Config, ncands, gran int) (*WLCCosets, error) {
	r, ok := wlcReclaim[gran]
	if !ok {
		return nil, fmt.Errorf("core: WLC+cosets granularity %d not in {8,16,32,64}", gran)
	}
	if ncands != 3 && ncands != 4 {
		return nil, fmt.Errorf("core: WLC+cosets needs 3 or 4 candidates, got %d", ncands)
	}
	s := &WLCCosets{
		displayName: fmt.Sprintf("WLC+%dcosets-%d", ncands, gran),
		em:          cfg.Energy,
		cands:       coset.Table1[:ncands],
		swar:        coset.SWARTables(&cfg.Energy, coset.Table1[:ncands]),
		gran:        gran,
		wlc:         compress.WLC{K: r + 1},
		dataCells:   (64 - r) / 2,
	}
	if gran == 32 {
		s.displayName = fmt.Sprintf("WLC+%dcosets", ncands)
	}
	bc := gran / 2
	for lo := 0; lo < s.dataCells; lo += bc {
		hi := lo + bc
		if hi > s.dataCells {
			hi = s.dataCells
		}
		s.blocks = append(s.blocks, [2]int{lo, hi})
	}
	if 2*len(s.blocks) > r {
		return nil, fmt.Errorf("core: %d blocks need %d aux bits but only %d reclaimed", len(s.blocks), 2*len(s.blocks), r)
	}
	s.geom = wordBlocks(s.blocks)
	return s, nil
}

// Name implements Scheme.
func (s *WLCCosets) Name() string { return s.displayName }

// Granularity returns the block size in bits.
func (s *WLCCosets) Granularity() int { return s.gran }

// Compressible reports whether WLC can reclaim enough bits in every word
// of the line for this configuration.
func (s *WLCCosets) Compressible(data *memline.Line) bool {
	return s.wlc.LineCompressible(data)
}

// TotalCells implements Scheme: the aux candidate bits live inside the
// words; only the compression flag cell is extra.
func (s *WLCCosets) TotalCells() int { return memline.LineCells + 1 }

// DataCells implements Scheme. The in-word reclaimed cells are classified
// as auxiliary by the simulator via AuxCellMask, but for region
// accounting the boundary stays at 256 with the flag cell beyond it.
func (s *WLCCosets) DataCells() int { return memline.LineCells }

// AuxCellsPerWord returns how many trailing cells of each word hold
// auxiliary candidate bits when the line is compressed.
func (s *WLCCosets) AuxCellsPerWord() int { return memline.WordCells - s.dataCells }
