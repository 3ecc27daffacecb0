package core

import (
	"testing"

	"wlcrc/internal/compress"
	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
)

// Per-cell scalar references: every plane encoder must produce exactly
// the cell vector of its table-driven scalar reference below — same
// winner indices, costs, update counts and tie-breaks — because the
// encoded line is a pure function of those decisions. The references
// price through the CostTable API, one cell at a time, with tables they
// build themselves; checkPlaneEquivalence (planes_equiv_test.go) holds
// the plane codecs to them.

func refRawEncode(data *memline.Line, dst []pcm.State) {
	var syms [memline.LineCells]uint8
	data.SymbolsInto(&syms)
	for c, v := range syms {
		dst[c] = coset.C1[v]
	}
}

// refLineCosetsAux stores block's candidate index in its aux cells:
// directly as state Si for one aux cell per block (§IX.A), as the
// candidate's two-cell state pair otherwise — the i-th cheapest pair
// under the row's energy model.
func refLineCosetsAux(r refRow, out []pcm.State, block, idx int) {
	if len(r.cands) <= 4 {
		out[memline.LineCells+block] = pcm.State(idx)
		return
	}
	pair := coset.AuxPairs(&r.em)[idx]
	out[memline.LineCells+2*block], out[memline.LineCells+2*block+1] = pair[0], pair[1]
}

func refLineCosets(r refRow, dst, old []pcm.State, data *memline.Line) {
	tabs := coset.CostTables(&r.em, r.cands)
	copy(dst, old)
	var syms [memline.LineCells]uint8
	data.SymbolsInto(&syms)
	bc := r.blockBits / 2
	for b := 0; b < memline.LineCells/bc; b++ {
		lo, hi := b*bc, (b+1)*bc
		idx, _ := coset.BestTable(tabs, syms[lo:hi], old[lo:hi])
		tabs[idx].Encode(syms[lo:hi], dst[lo:hi])
		refLineCosetsAux(r, dst, b, idx)
	}
}

func refRestricted(r refRow, dst, old []pcm.State, data *memline.Line) {
	tab1 := coset.C1.CostTable(&r.em)
	tabAlt := [2]coset.CostTable{coset.C2.CostTable(&r.em), coset.C3.CostTable(&r.em)}
	var syms [memline.LineCells]uint8
	data.SymbolsInto(&syms)
	bc := r.blockBits / 2
	nblocks := memline.LineCells / bc
	var costs [2]float64
	var choices [2][memline.LineCells]uint8
	for g := 0; g < 2; g++ {
		alt := &tabAlt[g]
		var total float64
		for b := 0; b < nblocks; b++ {
			lo, hi := b*bc, (b+1)*bc
			c1 := tab1.BlockCost(syms[lo:hi], old[lo:hi])
			ca := alt.BlockCost(syms[lo:hi], old[lo:hi])
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
	alt := &tabAlt[group]
	choice := &choices[group]
	copy(dst, old)
	var bits [1 + memline.LineCells]uint8
	bits[0] = uint8(group)
	for b := 0; b < nblocks; b++ {
		lo, hi := b*bc, (b+1)*bc
		tab := &tab1
		if choice[b] == 1 {
			tab = alt
		}
		tab.Encode(syms[lo:hi], dst[lo:hi])
		bits[1+b] = choice[b]
	}
	coset.PackBitsToStates(bits[:1+nblocks], dst[memline.LineCells:])
}

// refFNW keeps or complements each 128-bit block, its flip bits packed
// into cells 256 and 257.
func refFNW(r refRow, dst, old []pcm.State, data *memline.Line) {
	tabKeep := coset.C1.CostTable(&r.em)
	var flipped coset.Mapping
	for v := uint8(0); v < 4; v++ {
		flipped[v] = coset.C1[^v&3]
	}
	tabFlip := flipped.CostTable(&r.em)
	var syms [memline.LineCells]uint8
	data.SymbolsInto(&syms)
	const blockCells = 64
	var bits [memline.LineCells / blockCells]uint8
	for b := range bits {
		lo, hi := b*blockCells, (b+1)*blockCells
		var costKeep, costFlip float64
		for c := lo; c < hi; c++ {
			costKeep += tabKeep.Cost[old[c]][syms[c]]
			costFlip += tabFlip.Cost[old[c]][syms[c]]
		}
		tab := &tabKeep
		if costFlip < costKeep {
			bits[b] = 1
			tab = &tabFlip
		}
		for c := lo; c < hi; c++ {
			dst[c] = tab.States[syms[c]]
		}
	}
	coset.PackBitsToStates(bits[:], dst[memline.LineCells:])
}

// wlcRowGeometry is a WLC+Ncosets row's word layout at granularity
// gran: the WLC gate, the fully-data cells per word, and the blocks
// tiling them.
func wlcRowGeometry(gran int) (wlc compress.WLC, dataCells int, blocks [][2]int) {
	reclaimed := map[int]int{8: 16, 16: 8, 32: 4, 64: 2}[gran]
	dataCells = (64 - reclaimed) / 2
	for lo := 0; lo < dataCells; lo += gran / 2 {
		blocks = append(blocks, [2]int{lo, min(lo+gran/2, dataCells)})
	}
	return compress.WLC{K: reclaimed + 1}, dataCells, blocks
}

func refFlipMin(f *FlipMin, dst, old []pcm.State, data *memline.Line) {
	tab := coset.C1.CostTable(&f.em)
	words := data.Words()
	bestIdx, bestCost := 0, -1.0
	var syms [memline.WordCells]uint8
	for i := range f.maskWords {
		var cost float64
		for w := 0; w < memline.LineWords; w++ {
			memline.WordSymbols(words[w]^f.maskWords[i][w], &syms)
			base := w * memline.WordCells
			for c, v := range syms {
				cost += tab.Cost[old[base+c]][v]
			}
		}
		if bestCost < 0 || cost < bestCost {
			bestIdx, bestCost = i, cost
		}
	}
	for w := 0; w < memline.LineWords; w++ {
		memline.WordSymbols(words[w]^f.maskWords[bestIdx][w], &syms)
		base := w * memline.WordCells
		for c, v := range syms {
			dst[base+c] = coset.C1[v]
		}
	}
	bits := [4]uint8{
		uint8(bestIdx) & 1, uint8(bestIdx) >> 1 & 1,
		uint8(bestIdx) >> 2 & 1, uint8(bestIdx) >> 3 & 1,
	}
	coset.PackBitsToStates(bits[:], dst[memline.LineCells:])
}

func refWLCCosets(r refRow, dst, old []pcm.State, data *memline.Line) {
	wlc, dataCells, blocks := wlcRowGeometry(r.blockBits)
	tabs := coset.CostTables(&r.em, r.cands)
	copy(dst, old)
	if !wlc.LineCompressible(data) {
		refRawEncode(data, dst)
		dst[memline.LineCells] = flagUncompressed
		return
	}
	for w := 0; w < memline.LineWords; w++ {
		word := data.Word(w)
		oldW := old[w*memline.WordCells : (w+1)*memline.WordCells]
		outW := dst[w*memline.WordCells : (w+1)*memline.WordCells]
		var syms [memline.WordCells]uint8
		memline.WordSymbols(word, &syms)
		var auxBits [2 * memline.WordCells]uint8
		nAux := 2 * (memline.WordCells - dataCells)
		for b, rng := range blocks {
			idx, _ := coset.BestTable(tabs, syms[rng[0]:rng[1]], oldW[rng[0]:rng[1]])
			tabs[idx].Encode(syms[rng[0]:rng[1]], outW[rng[0]:rng[1]])
			auxBits[2*b] = uint8(idx) & 1
			auxBits[2*b+1] = uint8(idx) >> 1
		}
		coset.PackBitsToStates(auxBits[:nAux], outW[dataCells:])
	}
	dst[memline.LineCells] = flagCompressed
}

// encodeRef runs the row's per-cell reference, reporting false for a
// family with none.
func (r refRow) encodeRef(dst, old []pcm.State, data *memline.Line) bool {
	switch r.family {
	case lineRow:
		refLineCosets(r, dst, old, data)
	case restrictedRow:
		refRestricted(r, dst, old, data)
	case fnwRow:
		refFNW(r, dst, old, data)
	case wlcRow:
		refWLCCosets(r, dst, old, data)
	default:
		return false
	}
	return true
}

// refWLCRC rides on encodeWordScalar, the per-cell CostTable path
// wlcrc.go keeps for the §XI extension.
func refWLCRC(s *WLCRC, dst, old []pcm.State, data *memline.Line) {
	copy(dst, old)
	if !s.wlc.LineCompressible(data) {
		refRawEncode(data, dst)
		dst[memline.LineCells] = flagUncompressed
		return
	}
	for w := 0; w < memline.LineWords; w++ {
		s.encodeWordScalar(data.Word(w), old[w*memline.WordCells:(w+1)*memline.WordCells],
			dst[w*memline.WordCells:(w+1)*memline.WordCells])
	}
	dst[memline.LineCells] = flagCompressed
}

// refCOC4 compresses the line with the COC menu and coset-encodes the
// payload block by block through coset.BestTable, its candidate indices
// packed two bits per cell behind the payload; cells past the aux region
// keep their old states, and the flag cell records the mode.
func refCOC4(s *COC4, dst, old []pcm.State, data *memline.Line) {
	copy(dst, old)
	var backing [(compress.COCMaxBits + 7) / 8]byte
	w := compress.WrapBitWriter(backing[:])
	bits := compress.COCCompressTo(data, &w)
	payloadCells, blockCells, flag := coc16PayloadCells, 8, cocFlag16
	switch {
	case bits <= coc16PayloadBits:
	case bits <= coc32PayloadBits:
		payloadCells, blockCells, flag = coc32PayloadCells, 16, cocFlag32
	default:
		refRawEncode(data, dst)
		dst[memline.LineCells] = cocFlagRaw
		return
	}
	var payload memline.Line
	copy(payload[:], w.Bytes())
	var syms [memline.LineCells]uint8
	payload.SymbolsInto(&syms)
	tabs := coset.CostTables(&s.em, coset.Table1[:])
	nblocks := payloadCells / blockCells
	var auxBits [2 * coc16Blocks]uint8
	for b := 0; b < nblocks; b++ {
		lo, hi := b*blockCells, (b+1)*blockCells
		idx, _ := coset.BestTable(tabs, syms[lo:hi], old[lo:hi])
		tabs[idx].Encode(syms[lo:hi], dst[lo:hi])
		auxBits[2*b], auxBits[2*b+1] = uint8(idx)&1, uint8(idx)>>1
	}
	coset.PackBitsToStates(auxBits[:2*nblocks], dst[payloadCells:payloadCells+nblocks])
	dst[memline.LineCells] = flag
}

// refDIN stores DIN's transformed line (or the raw data, when the
// FPC+BDI gate fails) through the fixed mapping, flag cell last.
func refDIN(d *DIN, dst []pcm.State, data *memline.Line) {
	var stored memline.Line
	l, flag := d.storedLine(data, &stored)
	refRawEncode(l, dst)
	dst[memline.LineCells] = flag
}

// encodeRef dispatches to the scalar reference of a plane scheme: a
// row's by its test record, every other scheme's by its type. Every
// plane scheme has one.
func encodeRef(t testing.TB, s Scheme, dst, old []pcm.State, data *memline.Line) {
	t.Helper()
	if r, ok := rowOf(s); ok {
		if !r.encodeRef(dst, old, data) {
			t.Fatalf("%s: no scalar reference for its row family", s.Name())
		}
		return
	}
	switch v := s.(type) {
	case Baseline:
		refRawEncode(data, dst)
	case *FlipMin:
		refFlipMin(v, dst, old, data)
	case *WLCRC:
		refWLCRC(v, dst, old, data)
	case *COC4:
		refCOC4(v, dst, old, data)
	case *DIN:
		refDIN(v, dst, data)
	default:
		t.Fatalf("%s: no scalar reference", s.Name())
	}
}

// equivSchemes returns the twelve registered plane schemes plus the
// extra instances of extraSchemes.
func equivSchemes(t testing.TB) []Scheme {
	t.Helper()
	return append(allSchemes(t), extraSchemes(t)...)
}

// extraSchemes returns the unregistered granularity instances — the ones
// the granularity figures and the multi-objective experiment replay —
// that stress sub-word, word and multi-word masked pricing, the §VIII.D
// multi-objective tie-break, and the §XI disturbance-aware WLCRC of the
// ablation study.
func extraSchemes(t testing.TB) []Scheme {
	t.Helper()
	var out []Scheme
	cfg := DefaultConfig()
	for _, bb := range []int{8, 16, 64, 128, 256} {
		out = append(out, testLineCosets(cfg, "4cosets", coset.Table1[:], bb))
		out = append(out, testLineCosets(cfg, "6cosets", coset.SixCosets(), bb))
	}
	for _, bb := range []int{8, 16, 32, 512} {
		out = append(out, testRestricted(cfg, bb))
	}
	for _, g := range []int{8, 16, 64} {
		for _, n := range []int{3, 4} {
			out = append(out, testWLCCosets(t, cfg, n, g))
		}
	}
	mcfg := DefaultConfig()
	mcfg.MultiObjectiveT = 0.01
	wdcfg := DefaultConfig()
	wdcfg.DisturbAwareLambda = 1
	for _, c := range []Config{mcfg, wdcfg} {
		for _, g := range []int{8, 16, 32, 64} {
			s, err := NewWLCRC(c, g)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, s)
		}
	}
	return out
}
