package core

import (
	"testing"

	"wlcrc/internal/compress"
	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
	"wlcrc/internal/prng"
)

// Optimality oracle for the coset families whose choice is separable
// per block: FlipMin (16 line-wide candidates), FNW (2 per 128-bit
// block), the line-coset family (6cosets: 6 line-wide; 4cosets and
// 6cosets at finer granularities), COC+4cosets (4 per payload block,
// both payload modes) and WLC+Ncosets (N per block of every word) —
// and 3-r-cosets, separable per block once the line's group is fixed.
// The oracle unpacks old and data to cells, reads the stored aux cells
// through its own copy of each layout, builds every candidate encoding
// of each block's data cells, and prices each with
// pcm.EnergyModel.DiffWrite — never through a CostTable or SWARTable.
// The plane encoder must have stored the encoding its aux cells name,
// at the minimum cost, and no lower-index candidate may cost the same;
// a 3-r-cosets line must also store the cheaper group, group 0 on ties.
// WLCRC is out of scope: its blocks share aux cells, so Algorithm 1 is
// greedy (wlcrc_exhaustive_test.go bounds that gap).

// oracleBlock is one block of a stored line: data cells [lo, hi), the
// candidate its aux cells name, and every candidate's encoding of the
// block's data.
type oracleBlock struct {
	lo, hi int
	chosen int
	cands  [][]pcm.State
}

// mapCells encodes the data symbols syms[lo:hi] through m.
func mapCells(m coset.Mapping, syms []uint8, lo, hi int) []pcm.State {
	out := make([]pcm.State, hi-lo)
	for c := lo; c < hi; c++ {
		out[c-lo] = m[syms[c]]
	}
	return out
}

// mappingBlocks builds the blocks of a code whose candidates are the
// mappings cands over uniform or per-word ranges of the data symbols.
func mappingBlocks(cands []coset.Mapping, syms []uint8, ranges [][2]int, chosen func(b int) int) []oracleBlock {
	var out []oracleBlock
	for b, rng := range ranges {
		blk := oracleBlock{lo: rng[0], hi: rng[1], chosen: chosen(b)}
		for _, m := range cands {
			blk.cands = append(blk.cands, mapCells(m, syms, rng[0], rng[1]))
		}
		out = append(out, blk)
	}
	return out
}

// uniformRanges tiles cells [0, n) with blocks of bc cells.
func uniformRanges(n, bc int) [][2]int {
	var out [][2]int
	for lo := 0; lo < n; lo += bc {
		out = append(out, [2]int{lo, lo + bc})
	}
	return out
}

// oracleBlocks decomposes the line s stored as planes (written over
// data) into its blocks. ok is false for schemes outside the oracle's
// scope; a raw-fallback line has no blocks.
func oracleBlocks(s Scheme, planes []uint64, data *memline.Line) (blocks []oracleBlock, ok bool) {
	var syms [memline.LineCells]uint8
	data.SymbolsInto(&syms)
	stored := make([]pcm.State, s.TotalCells())
	coset.UnpackLine(planes, stored)
	if r, ok := rowOf(s); ok {
		return r.oracleBlocks(stored, syms[:])
	}
	switch v := s.(type) {
	case *FlipMin:
		var bits [4]uint8
		coset.UnpackBits(stored[memline.LineCells:], bits[:])
		blk := oracleBlock{lo: 0, hi: memline.LineCells, chosen: int(bits[0] | bits[1]<<1 | bits[2]<<2 | bits[3]<<3)}
		for i := range v.maskWords {
			x := memline.FromWords(v.maskWords[i])
			var ms [memline.LineCells]uint8
			x.SymbolsInto(&ms)
			enc := make([]pcm.State, memline.LineCells)
			for c := range enc {
				enc[c] = coset.C1[syms[c]^ms[c]]
			}
			blk.cands = append(blk.cands, enc)
		}
		return []oracleBlock{blk}, true
	case *COC4:
		flag := stored[memline.LineCells]
		if flag != cocFlag16 && flag != cocFlag32 {
			return nil, true
		}
		payload, _ := cocPayload(data)
		var psyms [memline.LineCells]uint8
		payload.SymbolsInto(&psyms)
		cells, bc := coc16PayloadCells, 8
		if flag == cocFlag32 {
			cells, bc = coc32PayloadCells, 16
		}
		return mappingBlocks(coset.Table1[:], psyms[:], uniformRanges(cells, bc),
			func(b int) int { return int(stored[cells+b]) }), true
	}
	return nil, false
}

// oracleBlocks decomposes a row's stored cells into its blocks, reading
// each family's aux layout by hand: ok is false for a family the
// oracle does not know.
func (r refRow) oracleBlocks(stored []pcm.State, syms []uint8) ([]oracleBlock, bool) {
	aux := stored[memline.LineCells:]
	switch r.family {
	case lineRow:
		// One aux cell per block holds the index as a state; with more
		// than four candidates two cells hold the index's state pair.
		pairs := coset.AuxPairs(&r.em)[:len(r.cands)]
		return mappingBlocks(r.cands, syms, uniformRanges(memline.LineCells, r.blockBits/2), func(b int) int {
			if len(r.cands) <= 4 {
				return int(aux[b])
			}
			for i, p := range pairs {
				if p == [2]pcm.State{aux[2*b], aux[2*b+1]} {
					return i
				}
			}
			return len(r.cands)
		}), true
	case fnwRow:
		var flipped coset.Mapping
		for sym := uint8(0); sym < 4; sym++ {
			flipped[sym] = coset.C1[^sym&3]
		}
		var bits [4]uint8
		coset.UnpackBits(aux, bits[:])
		return mappingBlocks([]coset.Mapping{coset.C1, flipped}, syms, uniformRanges(memline.LineCells, 64),
			func(b int) int { return int(bits[b]) }), true
	case restrictedRow:
		// The group bit, then one bit per block: set when the block
		// takes its group's alternate (C2 in group 0, C3 in group 1).
		ranges := uniformRanges(memline.LineCells, r.blockBits/2)
		bits := make([]uint8, 1+len(ranges))
		coset.UnpackBits(aux, bits)
		alt := coset.C2
		if bits[0] == 1 {
			alt = coset.C3
		}
		return mappingBlocks([]coset.Mapping{coset.C1, alt}, syms, ranges,
			func(b int) int { return int(bits[1+b]) }), true
	case wlcRow:
		if stored[memline.LineCells] != flagCompressed {
			return nil, true
		}
		// Word w's block j names its candidate as the state of the
		// word's reclaimed cell dataCells+j.
		_, dataCells, blocks := wlcRowGeometry(r.blockBits)
		var ranges [][2]int
		var auxCells []int
		for w := 0; w < memline.LineWords; w++ {
			base := w * memline.WordCells
			for j, rng := range blocks {
				ranges = append(ranges, [2]int{base + rng[0], base + rng[1]})
				auxCells = append(auxCells, base+dataCells+j)
			}
		}
		return mappingBlocks(r.cands, syms, ranges, func(b int) int { return int(stored[auxCells[b]]) }), true
	}
	return nil, false
}

// checkGroupChoice holds a 3-r-cosets line's group to the oracle: each
// group, {C1,C2} or {C1,C3}, prices every block at its cheaper member,
// and the stored group bit must name the cheaper total, group 0 on
// ties. It reports whether the totals tied.
func checkGroupChoice(t testing.TB, s Scheme, r refRow, em *pcm.EnergyModel, old, stored []pcm.State, syms []uint8) (tie bool) {
	t.Helper()
	bc := r.blockBits / 2
	var totals [2]float64
	for g, alt := range []coset.Mapping{coset.C2, coset.C3} {
		for lo := 0; lo < memline.LineCells; lo += bc {
			c1 := em.DiffWrite(old[lo:lo+bc], mapCells(coset.C1, syms, lo, lo+bc), bc).EnergyData
			ca := em.DiffWrite(old[lo:lo+bc], mapCells(alt, syms, lo, lo+bc), bc).EnergyData
			totals[g] += min(c1, ca)
		}
	}
	want := 0
	if totals[1] < totals[0] {
		want = 1
	}
	var bit [1]uint8
	coset.UnpackBits(stored[memline.LineCells:], bit[:])
	if int(bit[0]) != want {
		t.Fatalf("%s: line stores group %d; the group totals are %v pJ, so the cheapest, group 0 on ties, is %d",
			s.Name(), bit[0], totals, want)
	}
	return totals[0] == totals[1]
}

// oracleResult counts what checkOptimal checked: blocks, blocks whose
// minimum two candidates shared, and 3-r-cosets lines whose groups
// tied.
type oracleResult struct{ blocks, ties, groupTies int }

func (o *oracleResult) add(p oracleResult) {
	o.blocks += p.blocks
	o.ties += p.ties
	o.groupTies += p.groupTies
}

// checkOptimal encodes data over old with s's plane codec and holds
// every block's choice, and a 3-r-cosets line's group, to the oracle.
func checkOptimal(t testing.TB, s Scheme, em *pcm.EnergyModel, old []pcm.State, data *memline.Line) (res oracleResult) {
	t.Helper()
	ps, _ := PlaneCodec(s)
	dst := make([]uint64, coset.PlaneWords(s.TotalCells()))
	ps.EncodePlanesInto(dst, packedPlanes(old), data)
	stored := make([]pcm.State, s.TotalCells())
	coset.UnpackLine(dst, stored)
	blocks, ok := oracleBlocks(s, dst, data)
	if !ok {
		t.Fatalf("%s: no oracle", s.Name())
	}
	if r, ok := rowOf(s); ok && r.family == restrictedRow {
		var syms [memline.LineCells]uint8
		data.SymbolsInto(&syms)
		if checkGroupChoice(t, s, r, em, old, stored, syms[:]) {
			res.groupTies++
		}
	}
	for _, blk := range blocks {
		if blk.chosen >= len(blk.cands) {
			t.Fatalf("%s: block [%d,%d) names candidate %d of %d", s.Name(), blk.lo, blk.hi, blk.chosen, len(blk.cands))
		}
		minCost, first, n := 0.0, -1, 0
		for i, enc := range blk.cands {
			c := em.DiffWrite(old[blk.lo:blk.hi], enc, len(enc)).EnergyData
			switch {
			case first < 0 || c < minCost:
				minCost, first, n = c, i, 1
			case c == minCost:
				n++
			}
		}
		got := blk.cands[blk.chosen]
		for c := range got {
			if stored[blk.lo+c] != got[c] {
				t.Fatalf("%s: block [%d,%d) stores cell %d as %v, but its aux names candidate %d, which encodes %v",
					s.Name(), blk.lo, blk.hi, blk.lo+c, stored[blk.lo+c], blk.chosen, got[c])
			}
		}
		if blk.chosen != first {
			gotCost := em.DiffWrite(old[blk.lo:blk.hi], got, len(got)).EnergyData
			t.Fatalf("%s: block [%d,%d) chose candidate %d at %v pJ; the cheapest, lowest index first, is %d at %v pJ",
				s.Name(), blk.lo, blk.hi, blk.chosen, gotCost, first, minCost)
		}
		res.blocks++
		if n > 1 {
			res.ties++
		}
	}
	return res
}

// oracleModels are the energy models the oracle runs under: Table II,
// and a flat model where every programmed cell costs the same, so
// candidates tie whenever they program equally many cells and the
// lowest-index rule decides.
var oracleModels = []pcm.EnergyModel{
	pcm.DefaultEnergy(),
	{Reset: 1, Set: [pcm.NumStates]float64{1, 1, 1, 1}},
}

// oracleSchemes builds every scheme the oracle covers under em.
func oracleSchemes(t testing.TB, em pcm.EnergyModel) []Scheme {
	t.Helper()
	cfg := Config{Energy: em}
	out := []Scheme{
		NewFlipMin(cfg),
		newTestScheme(t, "FNW", cfg),
		newTestScheme(t, "6cosets", cfg),
		NewCOC4(cfg),
	}
	for _, bb := range []int{8, 16, 64, 256} {
		out = append(out, testLineCosets(cfg, "4cosets", coset.Table1[:], bb))
		out = append(out, testLineCosets(cfg, "6cosets", coset.SixCosets(), bb))
	}
	for _, bb := range []int{8, 16, 64, 512} {
		out = append(out, testRestricted(cfg, bb))
	}
	for _, g := range []int{8, 16, 32, 64} {
		for _, n := range []int{3, 4} {
			out = append(out, testWLCCosets(t, cfg, n, g))
		}
	}
	return out
}

// coc32Line returns a line whose COC stream takes the 32-bit payload
// mode (449..480 bits): compressible small words, a few of them widened
// until the stream no longer fits the 16-bit mode.
func coc32Line(r *prng.Xoshiro256) (memline.Line, bool) {
	var l memline.Line
	for w := 0; w < memline.LineWords; w++ {
		l.SetWord(w, memline.SignExtend(r.Uint64()&0xff, 8))
	}
	for tries := 0; tries < 64; tries++ {
		switch n := compress.COCSize(&l); {
		case n > coc32PayloadBits:
			return l, false
		case n > coc16PayloadBits:
			return l, true
		}
		w := r.Intn(memline.LineWords)
		l.SetWord(w, l.Word(w)^r.Uint64()>>uint(r.Intn(64)))
	}
	return l, false
}

// oracleCase draws one (old, data) pair for s: biased data over fresh
// or random old cells, and every third case a COC 32-bit-mode line.
func oracleCase(r *prng.Xoshiro256, s Scheme) ([]pcm.State, memline.Line) {
	data := randomBiasedLine(r)
	if r.Intn(3) == 0 {
		if l, ok := coc32Line(r); ok {
			data = l
		}
	}
	return randomOld(r, s.TotalCells()), data
}

// TestCosetChoiceOptimal runs the oracle over a seeded corpus under
// both models. It also proves the corpus exercises what it claims: both
// COC payload modes and, under the flat model, tied blocks and tied
// 3-r-cosets groups.
func TestCosetChoiceOptimal(t *testing.T) {
	r := prng.New(0x0AC1E)
	for mi, em := range oracleModels {
		var res oracleResult
		modes := map[pcm.State]int{}
		for _, s := range oracleSchemes(t, em) {
			for trial := 0; trial < 40; trial++ {
				old, data := oracleCase(r, s)
				res.add(checkOptimal(t, s, &em, old, &data))
				if coc, ok := s.(*COC4); ok {
					ps, _ := PlaneCodec(coc)
					dst := make([]uint64, coset.PlaneWords(coc.TotalCells()))
					ps.EncodePlanesInto(dst, packedPlanes(old), &data)
					modes[tailFlag(dst)]++
				}
			}
		}
		if modes[cocFlag16] == 0 || modes[cocFlag32] == 0 {
			t.Errorf("model %d: COC+4cosets modes seen %v, want both payload modes", mi, modes)
		}
		if mi == 1 && (res.ties == 0 || res.groupTies == 0) {
			t.Errorf("flat model: %d tied blocks and %d tied 3-r-cosets groups in %d blocks; a tie-break went unchecked",
				res.ties, res.groupTies, res.blocks)
		}
		t.Logf("model %d: %d blocks checked, %d with tied minima, %d tied groups", mi, res.blocks, res.ties, res.groupTies)
	}
}

// FuzzCosetChoiceOptimal runs the oracle on fuzzed (old, data) pairs:
// seed drives the generator of oracleCase and kind picks the model.
func FuzzCosetChoiceOptimal(f *testing.F) {
	f.Add(uint64(1), uint8(0))
	f.Add(uint64(2), uint8(1))
	f.Add(uint64(0xC0C32), uint8(0))
	f.Add(uint64(0xF1A7), uint8(1))
	schemes := make([][]Scheme, len(oracleModels))
	for i, em := range oracleModels {
		schemes[i] = oracleSchemes(f, em)
	}
	f.Fuzz(func(t *testing.T, seed uint64, kind uint8) {
		mi := int(kind) % len(oracleModels)
		r := prng.New(seed)
		for _, s := range schemes[mi] {
			old, data := oracleCase(r, s)
			checkOptimal(t, s, &oracleModels[mi], old, &data)
		}
	})
}
