package coset

import (
	"slices"
	"testing"

	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
	"wlcrc/internal/prng"
)

// Fuzz targets asserting SWAR == scalar over arbitrary words, old
// states and masks, for every Table I and SixCosets mapping. The seeded
// corpus lives in testdata/fuzz; `go test` replays it on every run and
// `go test -fuzz FuzzSWAR` explores further.

// fuzzCands is the candidate universe the schemes actually price.
var fuzzCands = append(append([]Mapping{}, Table1[:]...), SixCosets()...)

// fuzzMask builds a cell mask from two fuzz bytes: an offset and a
// width, both wrapped into range so every input is meaningful.
func fuzzMask(lo, n uint8) uint64 {
	off := int(lo) % memline.WordCells
	width := 1 + int(n)%(memline.WordCells-off)
	return CellMask(off, width)
}

// FuzzSWARCostCount cross-checks CostCount against both the scalar
// reference and the PR 2 CostTable accumulation.
func FuzzSWARCostCount(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint8(0), uint8(31))
	f.Add(^uint64(0), uint64(0x5555555555555555), uint8(0), uint8(31))
	f.Add(uint64(0x0123456789ABCDEF), uint64(0xFEDCBA9876543210), uint8(4), uint8(7))
	f.Add(uint64(0xAAAAAAAAAAAAAAAA), ^uint64(0), uint8(16), uint8(15))
	em := pcm.DefaultEnergy()
	swar := SWARTables(&em, fuzzCands)
	tabs := CostTables(&em, fuzzCands)
	f.Fuzz(func(t *testing.T, word, oldBits uint64, maskLo, maskN uint8) {
		mask := fuzzMask(maskLo, maskN)
		var old [memline.WordCells]pcm.State
		var syms []uint8
		var sub []pcm.State
		for c := range old {
			old[c] = pcm.State(oldBits >> uint(2*c) & 3)
			if mask>>uint(c)&1 == 1 {
				syms = append(syms, uint8(word>>uint(2*c)&3))
				sub = append(sub, old[c])
			}
		}
		var p WordPlanes
		p.Init(word, old[:])
		for i := range swar {
			gotCost, gotUpd := swar[i].CostCount(&p, mask)
			refCost, refUpd := swar[i].CostCountRef(word, old[:], mask)
			if gotCost != refCost || gotUpd != refUpd {
				t.Fatalf("cand %d: SWAR (%v,%d) != scalar (%v,%d)", i, gotCost, gotUpd, refCost, refUpd)
			}
			tabCost, tabUpd := tabs[i].BlockCostUpdates(syms, sub)
			if gotCost != tabCost || gotUpd != tabUpd {
				t.Fatalf("cand %d: SWAR (%v,%d) != CostTable (%v,%d)", i, gotCost, gotUpd, tabCost, tabUpd)
			}
		}
	})
}

// FuzzSWARBest cross-checks winner index, winning cost and tie-breaks
// against BestTable over contiguous blocks.
func FuzzSWARBest(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint8(32))
	f.Add(^uint64(0), uint64(0), uint8(16))
	f.Add(uint64(0x00FF00FF00FF00FF), uint64(0x0F0F0F0F0F0F0F0F), uint8(4))
	em := pcm.DefaultEnergy()
	sets := [][]Mapping{Table1[:], Table1[:3], SixCosets()}
	var swar [][]SWARTable
	var tabs [][]CostTable
	for _, cands := range sets {
		swar = append(swar, SWARTables(&em, cands))
		tabs = append(tabs, CostTables(&em, cands))
	}
	f.Fuzz(func(t *testing.T, word, oldBits uint64, width uint8) {
		n := 1 + int(width)%memline.WordCells
		var old [memline.WordCells]pcm.State
		var syms [memline.WordCells]uint8
		for c := range old {
			old[c] = pcm.State(oldBits >> uint(2*c) & 3)
			syms[c] = uint8(word >> uint(2*c) & 3)
		}
		var p WordPlanes
		p.Init(word, old[:])
		for si := range sets {
			gotIdx, gotCost := BestSWAR(swar[si], &p, CellMask(0, n))
			wantIdx, wantCost := BestTable(tabs[si], syms[:n], old[:n])
			if gotIdx != wantIdx || gotCost != wantCost {
				t.Fatalf("set %d: BestSWAR (%d,%v) != BestTable (%d,%v)", si, gotIdx, gotCost, wantIdx, wantCost)
			}
		}
	})
}

// FuzzSWARApply cross-checks mapping application and its inverse
// against the per-cell path.
func FuzzSWARApply(f *testing.F) {
	f.Add(uint64(0))
	f.Add(^uint64(0))
	f.Add(uint64(0x123456789ABCDEF0))
	em := pcm.DefaultEnergy()
	swar := SWARTables(&em, fuzzCands)
	tabs := CostTables(&em, fuzzCands)
	f.Fuzz(func(t *testing.T, word uint64) {
		var p WordPlanes
		p.SetData(word)
		var syms [memline.WordCells]uint8
		memline.WordSymbols(word, &syms)
		for i := range swar {
			lo, hi := swar[i].Apply(&p)
			var got, want [memline.WordCells]pcm.State
			UnpackStates(lo, hi, got[:])
			tabs[i].Encode(syms[:], want[:])
			if got != want {
				t.Fatalf("cand %d: Apply != Encode on %#x", i, word)
			}
			slo, shi := PackStates(want[:])
			dlo, dhi := swar[i].ApplyInvPlanes(slo, shi)
			if back := memline.InterleavePlanes(dlo, dhi); back != word {
				t.Fatalf("cand %d: inverse round trip %#x -> %#x", i, word, back)
			}
		}
	})
}

// blockGeoms are the geometries FuzzSWARBlocks draws from, as [lo, hi)
// cell ranges over two registers (cells 0-127): uniform 4-, 8-, 16- and
// 32-cell blocks over one word and over a pair, whole 64-cell
// registers, the uneven per-word blocks of WLC+Ncosets and WLCRC
// (repeated over both words of a register), and 128-cell blocks that
// span both registers.
var blockGeoms = func() [][][2]int {
	uniform := func(cells, n int) [][2]int {
		var out [][2]int
		for lo := 0; lo < cells; lo += n {
			out = append(out, [2]int{lo, lo + n})
		}
		return out
	}
	perWord := func(words int, rngs ...[2]int) [][2]int {
		var out [][2]int
		for w := 0; w < words; w++ {
			for _, r := range rngs {
				out = append(out, [2]int{32*w + r[0], 32*w + r[1]})
			}
		}
		return out
	}
	// partial is a block of n cells at the start of every width-cell
	// lane over both registers: lanes the blocks cover only in part.
	partial := func(width, n int) [][2]int {
		var out [][2]int
		for lo := 0; lo < 2*RegCells; lo += width {
			out = append(out, [2]int{lo, lo + n})
		}
		return out
	}
	var geoms [][][2]int
	for _, n := range []int{4, 8, 16, 32} {
		geoms = append(geoms, uniform(memline.WordCells, n), uniform(RegCells, n),
			partial(n, n-1), partial(n, 1))
	}
	return append(geoms,
		uniform(2*RegCells, RegCells),
		perWord(4, [2]int{0, 16}, [2]int{16, 30}),                               // WLC+Ncosets-32
		perWord(4, [2]int{0, 8}, [2]int{8, 16}, [2]int{16, 24}, [2]int{24, 28}), // WLC+Ncosets-16
		perWord(4, [2]int{0, 31}),                                               // WLC+Ncosets-64, WLCRC-64
		perWord(4, [2]int{0, 8}, [2]int{8, 16}, [2]int{16, 24}, [2]int{24, 29}), // WLCRC-16
		perWord(4, [2]int{0, 16}, [2]int{16, 30}, [2]int{30, 31}),               // WLCRC-32 plus a 1-cell tail
		uniform(7*4, 4),                 // WLCRC-8 word prefix
		uniform(2*RegCells, 2*RegCells), // one block over both registers
	)
}()

// fuzzEnergies are the models FuzzSWARBlocks prices under: Table II; a
// non-integer one, where the float path must still match the reference
// bit for bit because both sum the same integer counts in the same
// order; and, for each lane width L of 4 to 32 cells, integer models
// whose largest write energy puts L·max just under and just over the
// lane kernel's 2^15 bound (laneBoundModel).
var fuzzEnergies = func() []pcm.EnergyModel {
	ems := []pcm.EnergyModel{
		pcm.DefaultEnergy(),
		{Reset: 1.37, Set: [pcm.NumStates]float64{0.1, 3.3, 7.77, 12.9}},
	}
	for _, width := range []int{4, 8, 16, 32} {
		ems = append(ems, laneBoundModel(width, false), laneBoundModel(width, true))
	}
	return ems
}()

// laneBoundModel is an integer model whose largest write energy E is
// the largest with width·E below 2^15, or one more when over.
func laneBoundModel(width int, over bool) pcm.EnergyModel {
	e := (1<<15 - 1) / width
	if over {
		e++
	}
	return pcm.EnergyModel{Reset: 1, Set: [pcm.NumStates]float64{0, 2, float64(e / 2), float64(e - 1)}}
}

// refBlockCost is the scalar reference of one block's price: it walks
// the block's cells, classifies each programmed cell by target state,
// and prices the counts in ascending state order. Blocks inside one
// word must also match CostCountRef exactly.
func refBlockCost(t *SWARTable, words, olds []uint64, lo, hi int) (cost float64, updates int) {
	var cnt [4]int
	for c := lo; c < hi; c++ {
		w, i := c/memline.WordCells, uint(c%memline.WordCells)
		st := t.States[words[w]>>(2*i)&3]
		if st != pcm.State(olds[w]>>(2*i)&3) {
			cnt[st]++
		}
	}
	return t.Price(&cnt)
}

// checkBlocksKernel holds BestBlocks, EvalBlocks, ApplyBlocks and
// DecodeBlocks on one geometry to the per-cell references, over four
// data words and four old-state words (cells 0-127).
func checkBlocksKernel(t *testing.T, words, olds []uint64, ranges [][2]int) {
	t.Helper()
	g := NewBlocks(ranges)
	var p Regs
	var line memline.Line
	var oldP [2 * memline.LineWords]uint64
	for w := 0; w < 4; w++ {
		line.SetWord(w, words[w])
		var cells [memline.WordCells]pcm.State
		for c := range cells {
			cells[c] = pcm.State(olds[w] >> uint(2*c) & 3)
		}
		oldP[2*w], oldP[2*w+1] = PackStates(cells[:])
	}
	p.Load(&line, oldP[:])
	n := len(ranges)
	idx := make([]uint8, n)
	for _, em := range fuzzEnergies {
		for _, cands := range [][]Mapping{Table1[:], Table1[:3], SixCosets()} {
			tabs := SWARTables(&em, cands)
			BestBlocks(tabs, &p, g, idx)
			eval := make([]float64, n*len(tabs))
			EvalBlocks(tabs, &p, g, eval)
			for b, rng := range ranges {
				want := -1
				var wantCost float64
				for i := range tabs {
					rc, ru := refBlockCost(&tabs[i], words, olds, rng[0], rng[1])
					if w := rng[0] / memline.WordCells; (rng[1]-1)/memline.WordCells == w {
						mask := CellMask(rng[0]%memline.WordCells, rng[1]-rng[0])
						var oc [memline.WordCells]pcm.State
						for c := range oc {
							oc[c] = pcm.State(olds[w] >> uint(2*c) & 3)
						}
						if c, u := tabs[i].CostCountRef(words[w], oc[:], mask); c != rc || u != ru {
							t.Fatalf("block %v cand %d: reference (%v,%d) != CostCountRef (%v,%d)", rng, i, rc, ru, c, u)
						}
					}
					if got := eval[b*len(tabs)+i]; got != rc {
						t.Fatalf("block %v cand %d: EvalBlocks %v != reference %v", rng, i, got, rc)
					}
					if want < 0 || rc < wantCost {
						want, wantCost = i, rc
					}
				}
				if got := eval[b*len(tabs)+int(idx[b])]; int(idx[b]) != want || got != wantCost {
					t.Fatalf("block %v of %d cands: BestBlocks picks %d at %v, reference %d at %v", rng, len(tabs), idx[b], got, want, wantCost)
				}
			}
			// Apply the choices, check each block's states per cell, and
			// decode them back.
			var lo, hi [MaxRegs]uint64
			ApplyBlocks(tabs, &p, g, idx, &lo, &hi)
			covered := make([]bool, 2*RegCells)
			for b, rng := range ranges {
				for c := rng[0]; c < rng[1]; c++ {
					covered[c] = true
					r, i := c/RegCells, uint(c%RegCells)
					got := pcm.State(lo[r]>>i&1 | hi[r]>>i&1<<1)
					w, j := c/memline.WordCells, uint(c%memline.WordCells)
					if want := tabs[idx[b]].States[words[w]>>(2*j)&3]; got != want {
						t.Fatalf("ApplyBlocks cell %d: %v, want %v", c, got, want)
					}
				}
			}
			DecodeBlocks(tabs, g, idx, &lo, &hi)
			for c := 0; c < 2*RegCells; c++ {
				r, i := c/RegCells, uint(c%RegCells)
				got := uint64(lo[r]>>i&1 | hi[r]>>i&1<<1)
				w, j := c/memline.WordCells, uint(c%memline.WordCells)
				want := uint64(0)
				if covered[c] {
					want = words[w] >> (2 * j) & 3
				}
				if got != want {
					t.Fatalf("DecodeBlocks cell %d: %d, want %d", c, got, want)
				}
			}
		}
	}
}

// FuzzSWARBlocks holds the block kernel to the per-cell references on
// every geometry of blockGeoms: each block's winner (lowest index on
// ties) and cost, every candidate's cost and update count, and the
// apply/decode round trip.
func FuzzSWARBlocks(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint8(0))
	f.Add(^uint64(0), uint64(0x5555555555555555), uint64(0), ^uint64(0), uint8(3))
	f.Add(uint64(0x0123456789ABCDEF), uint64(0xFEDCBA9876543210), uint64(0xAAAAAAAAAAAAAAAA), uint64(0x0F0F0F0F0F0F0F0F), uint8(9))
	f.Fuzz(func(t *testing.T, w0, w1, o0, o1 uint64, kind uint8) {
		words := []uint64{w0, w1, w0 ^ o1, w1 ^ o0}
		olds := []uint64{o0, o1, o1 ^ w1, o0 ^ w0}
		checkBlocksKernel(t, words, olds, blockGeoms[int(kind)%len(blockGeoms)])
	})
}

// TestLanesFitBound pins the lane kernel's bound at every lane width:
// under laneBoundModel just under it BestBlocks takes the lanes, just
// over it the float path (64-cell lanes are plain integers and take
// every integer model). Either way it must pick what the float kernel
// picks, on random lines and on lines that program every cell into the
// most expensive state, where block costs reach the bound and C1 and
// C2 tie.
func TestLanesFitBound(t *testing.T) {
	r := prng.New(0x1A4E)
	for _, width := range []int{4, 8, 16, 32, 64} {
		g := UniformBlocks(memline.LineCells, width)
		for _, over := range []bool{false, true} {
			em := laneBoundModel(width, over)
			tabs := SWARTables(&em, Table1[:])
			if fit, want := g.LanesFit(tabs), !over || width == 64; fit != want {
				t.Fatalf("width %d, over %v: LanesFit = %v", width, over, fit)
			}
			for trial := 0; trial < 40; trial++ {
				var line memline.Line
				old := make([]uint64, 2*memline.LineWords)
				if trial%2 == 0 {
					r.Fill(line[:])
					for i := range old {
						old[i] = r.Uint64() & AllCells
					}
				} else {
					// C1 and C2 send symbol 1 to S4, the costliest state,
					// and every cell is old S1: each block of either costs
					// width·E.
					for w := 0; w < memline.LineWords; w++ {
						line.SetWord(w, 0x5555555555555555)
					}
				}
				var p Regs
				p.Load(&line, old)
				got := make([]uint8, g.Len())
				want := make([]uint8, g.Len())
				BestBlocks(tabs, &p, g, got)
				priceBlocks(tabs, &p, g, nil, want)
				if !slices.Equal(got, want) {
					t.Fatalf("width %d, over %v, trial %d: BestBlocks %v, float kernel %v", width, over, trial, got, want)
				}
			}
		}
	}
}
