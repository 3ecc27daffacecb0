package core

import (
	"wlcrc/internal/compress"
	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
)

// COC4 is the COC+4cosets scheme of §VIII: the line is compressed with
// the coverage-oriented menu, and the freed space holds per-block
// candidate indices for the four Table I cosets. Lines compressing to at
// most 448 bits are encoded at 16-bit granularity, lines at most 480
// bits at 32-bit granularity, and everything else is written raw.
//
// The stored layout is fixed per mode so the decoder can locate the
// auxiliary bits before it knows any block's mapping:
//
//	16-bit mode: payload cells 0..223 (448 bits), 28 blocks, aux bits in
//	             cells 224..251 (two bits per block through C1).
//	32-bit mode: payload cells 0..239 (480 bits), 15 blocks, aux bits in
//	             cells 240..254.
//
// Cells beyond the aux region are left untouched. The flag cell
// disambiguates the three modes; per the paper the overwhelmingly common
// 16-bit mode gets the lowest-energy state.
type COC4 struct {
	em   pcm.EnergyModel
	swar []coset.SWARTable // word-parallel pricing/apply of the Table I candidates
}

const (
	coc16PayloadBits  = 448
	coc16PayloadCells = coc16PayloadBits / 2
	coc16Blocks       = coc16PayloadBits / 16
	coc32PayloadBits  = 480
	coc32PayloadCells = coc32PayloadBits / 2
	coc32Blocks       = coc32PayloadBits / 32

	cocFlag16  = pcm.S1
	cocFlag32  = pcm.S2
	cocFlagRaw = pcm.S3
)

// coc16Geom and coc32Geom are the payload block geometries of the two
// encoded modes.
var (
	coc16Geom = coset.UniformBlocks(coc16PayloadCells, coc16PayloadCells/coc16Blocks)
	coc32Geom = coset.UniformBlocks(coc32PayloadCells, coc32PayloadCells/coc32Blocks)
)

// NewCOC4 returns the COC+4cosets scheme.
func NewCOC4(cfg Config) *COC4 {
	return &COC4{
		em:   cfg.Energy,
		swar: coset.SWARTables(&cfg.Energy, coset.Table1[:]),
	}
}

// Name implements Scheme.
func (*COC4) Name() string { return "COC+4cosets" }

// TotalCells implements Scheme.
func (*COC4) TotalCells() int { return memline.LineCells + 1 }

// DataCells implements Scheme.
func (*COC4) DataCells() int { return memline.LineCells }

// Compressible reports whether the line fits one of the two encoded
// modes (the paper: COC compresses more than 90% of lines).
func (s *COC4) Compressible(data *memline.Line) bool {
	return compress.COCSize(data) <= coc32PayloadBits
}
