package core

import (
	"fmt"

	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
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
// It is a blockCode row; the family alone re-encodes around stuck cells
// (stuck.go).
type LineCosets struct{ blockCode }

// NewLineCosets builds an unrestricted coset scheme. blockBits must
// divide 512 and be at least 8. With more than four candidates two
// auxiliary cells per block are used, otherwise one.
func NewLineCosets(cfg Config, name string, cands []coset.Mapping, blockBits int) *LineCosets {
	checkBlockBits(blockBits)
	if len(cands) < 2 || len(cands) > 16 {
		panic("core: candidate count out of range")
	}
	nblocks := memline.LineBits / blockBits
	row := blockCode{
		name:     name,
		geom:     coset.UniformBlocks(memline.LineCells, blockBits/2),
		auxWidth: 2,
		groups:   []auxGroup{identityGroup(2, len(cands))},
	}
	if len(cands) > 4 {
		// Two aux cells per block hold the candidate's state pair.
		row.auxWidth = 4
		pairs := coset.AuxPairs(&cfg.Energy)[:len(cands)]
		codes := make([]uint8, len(cands))
		for i, pair := range pairs {
			codes[i] = uint8(pair[0]) | uint8(pair[1])<<2
		}
		row.groups[0] = newAuxGroup(4, row.groups[0].members, codes)
	}
	row.auxBit = uniformAux(2*memline.LineCells, row.auxWidth, nblocks)
	return &LineCosets{*newBlockCode(row, &cfg.Energy, cands)}
}

// checkBlockBits panics unless blockBits is at least 8 and divides the
// line.
func checkBlockBits(blockBits int) {
	if blockBits < 8 || memline.LineBits%blockBits != 0 {
		panic(fmt.Sprintf("core: invalid coset block size %d", blockBits))
	}
}

// RestrictedLineCosets is the line-level restricted coset encoding of §V
// (called 3-r-cosets in Figure 5): every block of the line is encoded
// with one of two candidates from a per-line group — either {C1,C2} or
// {C1,C3} — so each block costs one auxiliary bit plus one global bit for
// the whole line. The auxiliary bits are packed two per cell from cell
// 256 (the identity AuxPack layout): the group bit first, then one bit
// per block naming the group's alternate.
type RestrictedLineCosets struct{ blockCode }

// NewRestrictedLineCosets builds the 3-r-cosets scheme at the given block
// granularity. blockBits must divide 512 and be at least 8.
func NewRestrictedLineCosets(cfg Config, blockBits int) *RestrictedLineCosets {
	checkBlockBits(blockBits)
	row := blockCode{
		name:     fmt.Sprintf("3-r-cosets-%d", blockBits),
		geom:     coset.UniformBlocks(memline.LineCells, blockBits/2),
		auxWidth: 1,
		groups: []auxGroup{
			newAuxGroup(1, []uint8{0, 1}, []uint8{0, 1}), // {C1, C2}
			newAuxGroup(1, []uint8{0, 2}, []uint8{0, 1}), // {C1, C3}
		},
		groupBit: 2 * memline.LineCells,
	}
	row.auxBit = uniformAux(row.groupBit+1, 1, memline.LineBits/blockBits)
	return &RestrictedLineCosets{*newBlockCode(row, &cfg.Energy, coset.Table1[:3])}
}
