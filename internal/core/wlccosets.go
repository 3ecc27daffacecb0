package core

import (
	"fmt"

	"wlcrc/internal/compress"
	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
)

// WLCCosets integrates word-level compression with *unrestricted* coset
// encoding (§VI: "WLC can be integrated with unrestricted 3cosets or
// 4cosets encodings, as long as WLC can reclaim enough bits"). Each
// 64-bit word must reclaim two candidate bits per block:
//
//	granularity  8   16  32  64  bits
//	reclaimed    16  8   4   2   bits per word (k = r+1 MSBs compressed)
//
// The reclaimed cells of each word hold its blocks' candidate indices,
// one cell per block storing the index directly as a state; one global
// flag cell marks incompressible lines, which are written raw. The
// Figure 8 scheme "WLC+4cosets" is this encoder with four candidates at
// 32-bit blocks. It is a WLC-gated blockCode row.
type WLCCosets struct{ blockCode }

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
	name := fmt.Sprintf("WLC+%dcosets-%d", ncands, gran)
	if gran == 32 {
		name = fmt.Sprintf("WLC+%dcosets", ncands)
	}
	// Blocks tile each word's dataCells fully-data cells; block j's code
	// is the state of the word's reclaimed cell dataCells+j.
	dataCells := (64 - r) / 2
	var blocks [][2]int
	for lo := 0; lo < dataCells; lo += gran / 2 {
		blocks = append(blocks, [2]int{lo, min(lo+gran/2, dataCells)})
	}
	if 2*len(blocks) > r {
		return nil, fmt.Errorf("core: %d blocks need %d aux bits but only %d reclaimed", len(blocks), 2*len(blocks), r)
	}
	row := blockCode{
		name:     name,
		auxWidth: 2,
		groups:   []auxGroup{identityGroup(2, ncands)},
		wlc:      &compress.WLC{K: r + 1},
	}
	var ranges [][2]int
	for w := 0; w < memline.LineWords; w++ {
		base := w * memline.WordCells
		for j, blk := range blocks {
			ranges = append(ranges, [2]int{base + blk[0], base + blk[1]})
			row.auxBit = append(row.auxBit, 2*(base+dataCells+j))
		}
	}
	row.geom = coset.NewBlocks(ranges)
	return &WLCCosets{*newBlockCode(row, &cfg.Energy, coset.Table1[:ncands])}, nil
}
