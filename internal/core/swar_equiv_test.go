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

func refFlipMin(f *FlipMin, em pcm.EnergyModel, dst, old []pcm.State, data *memline.Line) {
	tab := coset.C1.CostTable(&em)
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

// refWLCRCLayout is one WLCRC granularity's word layout, written out
// from the WLCRC type comment: the blocks of pure-data cells, then, for
// each cell after them up to cell 31, the sources of its C1 symbol's
// (hi, lo) bits.
type refWLCRCLayout struct {
	reclaim int
	blocks  [][2]int
	aux     [][2]int // >= 0: that block's candidate bit; refGroupBit, refDataBit
}

const (
	refGroupBit = -1 // the group bit
	refDataBit  = -2 // the word's own bit: the cell is mixed
)

var refWLCRCLayouts = map[int]refWLCRCLayout{
	// blocks: 7 x 4 cells; b56..b62 = cand0..6, b63 = group.
	8: {8, [][2]int{{0, 4}, {4, 8}, {8, 12}, {12, 16}, {16, 20}, {20, 24}, {24, 28}},
		[][2]int{{1, 0}, {3, 2}, {5, 4}, {refGroupBit, 6}}},
	// blocks: cells 0-7, 8-15, 16-23, 24-28; cell29 = (cand3, b58),
	// cell30 = (cand1, cand2), cell31 = (group, cand0).
	16: {5, [][2]int{{0, 8}, {8, 16}, {16, 24}, {24, 29}},
		[][2]int{{3, refDataBit}, {1, 2}, {refGroupBit, 0}}},
	// blocks: cells 0-15, 16-29; cell30 = (cand1, b60), cell31 =
	// (group, cand0).
	32: {3, [][2]int{{0, 16}, {16, 30}},
		[][2]int{{1, refDataBit}, {refGroupBit, 0}}},
	// one block, cells 0-30; cell 31 holds the candidate index.
	64: {2, [][2]int{{0, 31}}, nil},
}

// refWLCRCPlan is one group's plan in refWLCRC.
type refWLCRCPlan struct {
	cost    float64
	updates int
	cands   []uint8
}

// refNearTieBeats is the §VIII.D rule for the reference: b beats a when
// cheaper, unless the two are within T of the larger cost, where fewer
// programmed cells win and then the cheaper one; a keeps exact ties.
func refNearTieBeats(aCost float64, aUpd int, bCost float64, bUpd int, T float64) bool {
	if T > 0 {
		hi, diff := aCost, aCost-bCost
		if bCost > hi {
			hi = bCost
		}
		if diff < 0 {
			diff = -diff
		}
		if hi > 0 && diff <= T*hi {
			return bUpd < aUpd || (bUpd == aUpd && bCost < aCost)
		}
	}
	return bCost < aCost
}

// refWLCRC is WLCRC per cell: Algorithm 1 through CostTables, the §XI
// risk cell by cell, the §VIII.D tie rule and the layout of
// refWLCRCLayouts, all from the Config the scheme was built with.
func refWLCRC(cfg Config, gran int, dst, old []pcm.State, data *memline.Line) {
	lay := refWLCRCLayouts[gran]
	copy(dst, old)
	if !(compress.WLC{K: lay.reclaim + 1}).LineCompressible(data) {
		refRawEncode(data, dst)
		dst[memline.LineCells] = flagUncompressed
		return
	}
	for w := 0; w < memline.LineWords; w++ {
		base := w * memline.WordCells
		refWLCRCWord(cfg, lay, data.Word(w), old[base:base+memline.WordCells], dst[base:base+memline.WordCells])
	}
	dst[memline.LineCells] = flagCompressed
}

func refWLCRCWord(cfg Config, lay refWLCRCLayout, word uint64, old, out []pcm.State) {
	var syms [memline.WordCells]uint8
	memline.WordSymbols(word, &syms)
	dataEnd := lay.blocks[len(lay.blocks)-1][1]
	if len(lay.aux) == 0 {
		tabs := coset.CostTables(&cfg.Energy, coset.Table1[:3])
		idx, _ := coset.BestTable(tabs, syms[:dataEnd], old[:dataEnd])
		tabs[idx].Encode(syms[:dataEnd], out[:dataEnd])
		out[31] = coset.C1[idx]
		return
	}
	dm := cfg.Disturb
	if dm.DER == ([pcm.NumStates]float64{}) {
		dm = pcm.DefaultDisturb()
	}
	tab1 := coset.C1.CostTable(&cfg.Energy)
	tabs := [3]coset.CostTable{tab1, coset.C2.CostTable(&cfg.Energy), coset.C3.CostTable(&cfg.Energy)}
	// price is a block's cost and programmed cells under tabs[i]: its
	// data cells, the mixed cell it owns (if any) under candidate bit
	// cand, and the §XI risk.
	price := func(b, i int, cand uint8) (float64, int) {
		t := &tabs[i]
		lo, hi := lay.blocks[b][0], lay.blocks[b][1]
		var cost float64
		upd := 0
		for c := lo; c < hi; c++ {
			cost += t.Cost[old[c]][syms[c]]
			upd += int(t.Update[old[c]][syms[c]])
		}
		for k, src := range lay.aux {
			if c := dataEnd + k; src[0] == b && src[1] == refDataBit {
				sym := cand<<1 | syms[c]&1
				cost += tab1.Cost[old[c]][sym]
				upd += int(tab1.Update[old[c]][sym])
			}
		}
		if cfg.DisturbAwareLambda > 0 {
			changed := func(c int) bool { return c >= lo && c < hi && t.States[syms[c]] != old[c] }
			var risk float64
			for c := lo; c < hi; c++ {
				switch {
				case changed(c):
					risk += 0.5 * dm.DER[t.States[syms[c]]]
				case changed(c-1) || changed(c+1):
					risk += dm.DER[old[c]]
				}
			}
			cost += cfg.DisturbAwareLambda * risk
		}
		return cost, upd
	}
	var plans [2]refWLCRCPlan
	for g := range plans {
		p := &plans[g]
		p.cands = make([]uint8, len(lay.blocks))
		for b := range lay.blocks {
			c1Cost, c1Upd := price(b, 0, 0)
			caCost, caUpd := price(b, g+1, 1)
			if refNearTieBeats(c1Cost, c1Upd, caCost, caUpd, cfg.MultiObjectiveT) {
				p.cands[b] = 1
				p.cost += caCost
				p.updates += caUpd
			} else {
				p.cost += c1Cost
				p.updates += c1Upd
			}
		}
		for k, src := range lay.aux {
			if src[1] == refDataBit {
				continue // priced with its block
			}
			c, sym := dataEnd+k, refWLCRCAuxSym(lay, k, &syms, uint8(g), p.cands)
			p.cost += tab1.Cost[old[c]][sym]
			p.updates += int(tab1.Update[old[c]][sym])
		}
	}
	group := 0
	if refNearTieBeats(plans[0].cost, plans[0].updates, plans[1].cost, plans[1].updates, cfg.MultiObjectiveT) {
		group = 1
	}
	refWLCRCCommit(lay, &syms, uint8(group), plans[group].cands, out)
}

// refWLCRCCommit writes a word's plan: every block through C1 or, where
// its candidate bit is set, the group's alternate (C2 for group 0, C3
// for group 1), then the cells after the blocks through C1.
func refWLCRCCommit(lay refWLCRCLayout, syms *[memline.WordCells]uint8, group uint8, cands []uint8, out []pcm.State) {
	for b, rng := range lay.blocks {
		m := coset.C1
		if cands[b] == 1 {
			m = coset.Table1[group+1]
		}
		coset.Encode(m, syms[rng[0]:rng[1]], out[rng[0]:rng[1]])
	}
	dataEnd := lay.blocks[len(lay.blocks)-1][1]
	for k := range lay.aux {
		out[dataEnd+k] = coset.C1[refWLCRCAuxSym(lay, k, syms, group, cands)]
	}
}

// refWLCRCAuxSym is the symbol of the k-th cell after the blocks.
func refWLCRCAuxSym(lay refWLCRCLayout, k int, syms *[memline.WordCells]uint8, group uint8, cands []uint8) uint8 {
	var sym uint8
	for j, src := range lay.aux[k] {
		bit := group
		switch {
		case src == refDataBit:
			bit = syms[lay.blocks[len(lay.blocks)-1][1]+k] & 1
		case src >= 0:
			bit = cands[src]
		}
		sym |= bit << (1 - j)
	}
	return sym
}

// cocPayload returns the first line of the data's COC stream, zero
// past the stream, and the stream's length in bits. FuzzCOCPack holds
// the packed words to the byte-at-a-time reference writer.
func cocPayload(data *memline.Line) (memline.Line, int) {
	var stream [compress.COCMaxWords]uint64
	bits := compress.COCPack(data, &stream)
	return memline.FromWords([memline.LineWords]uint64(stream[:memline.LineWords])), bits
}

// refCOC4 compresses the line with the COC menu and coset-encodes the
// payload block by block through coset.BestTable, its candidate indices
// packed two bits per cell behind the payload; cells past the aux region
// keep their old states, and the flag cell records the mode.
func refCOC4(em pcm.EnergyModel, dst, old []pcm.State, data *memline.Line) {
	copy(dst, old)
	payload, bits := cocPayload(data)
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
	var syms [memline.LineCells]uint8
	payload.SymbolsInto(&syms)
	tabs := coset.CostTables(&em, coset.Table1[:])
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
	cfg, ok := configOf(s)
	if !ok {
		t.Fatalf("%s: built without a recorded Config, so it has no reference", s.Name())
	}
	switch v := s.(type) {
	case Baseline:
		refRawEncode(data, dst)
	case *FlipMin:
		refFlipMin(v, cfg.Energy, dst, old, data)
	case *WLCRC:
		refWLCRC(cfg, v.gran, dst, old, data)
	case *COC4:
		refCOC4(cfg.Energy, dst, old, data)
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
	// WLCRC under the §VIII.D threshold, the §XI lambda (at a weight
	// that only breaks ties and at one that outweighs energy), and both.
	var wlcrcCfgs []Config
	for _, v := range [][2]float64{{0.01, 0}, {0, 1}, {0, 500}, {0.01, 1}} {
		c := DefaultConfig()
		c.MultiObjectiveT, c.DisturbAwareLambda = v[0], v[1]
		wlcrcCfgs = append(wlcrcCfgs, c)
	}
	for _, c := range wlcrcCfgs {
		for _, g := range []int{8, 16, 32, 64} {
			out = append(out, testWLCRC(t, c, g))
		}
	}
	// Models the lane kernel does not take (overLaneBound), so WLCRC's
	// float planner and BestBlocks' float path stay covered at Table II
	// settings.
	for _, em := range overLaneBound {
		c := DefaultConfig()
		c.Energy = em
		for _, g := range []int{8, 16, 32} {
			out = append(out, testWLCRC(t, c, g))
		}
		out = append(out, newTestScheme(t, "COC+4cosets", c), newTestScheme(t, "WLC+4cosets", c))
	}
	return out
}

// overLaneBound are energy models outside the lane kernel: Table II
// with S4's energy raised until 4·max WriteEnergy reaches 2^15 (over
// the bound of every lane width), and Table II plus 0.5 pJ on Reset
// (fractional write energies).
var overLaneBound = []pcm.EnergyModel{
	{Reset: 36, Set: [pcm.NumStates]float64{0, 20, 307, 1<<13 - 36}},
	{Reset: 36.5, Set: pcm.DefaultEnergy().Set},
}
