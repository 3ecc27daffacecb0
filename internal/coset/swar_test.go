package coset

import (
	"testing"

	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
	"wlcrc/internal/prng"
)

// allBijections enumerates every bijective symbol-to-state mapping (all
// 24 permutations), a superset of Table I, SixCosets and the FNW flip
// mapping, so the SWAR engine is proven for any candidate a scheme could
// construct.
func allBijections() []Mapping {
	var out []Mapping
	states := [4]pcm.State{pcm.S1, pcm.S2, pcm.S3, pcm.S4}
	var permute func(k int)
	permute = func(k int) {
		if k == 4 {
			out = append(out, Mapping{states[0], states[1], states[2], states[3]})
			return
		}
		for i := k; i < 4; i++ {
			states[k], states[i] = states[i], states[k]
			permute(k + 1)
			states[k], states[i] = states[i], states[k]
		}
	}
	permute(0)
	return out
}

// randStates fills a 32-cell old-state vector from two plane words.
func oldFromBits(bits uint64) []pcm.State {
	old := make([]pcm.State, memline.WordCells)
	for c := range old {
		old[c] = pcm.State(bits >> uint(2*c) & 3)
	}
	return old
}

func TestPlanesRoundTrip(t *testing.T) {
	r := prng.New(1)
	for trial := 0; trial < 2000; trial++ {
		word := r.Uint64()
		lo, hi := memline.LoHiPlanes(word)
		if lo>>32 != 0 || hi>>32 != 0 {
			t.Fatalf("planes of %#x overflow 32 bits: %#x %#x", word, lo, hi)
		}
		if got := memline.InterleavePlanes(lo, hi); got != word {
			t.Fatalf("InterleavePlanes(LoHiPlanes(%#x)) = %#x", word, got)
		}
		// Plane bit c must equal data bits 2c / 2c+1.
		for c := 0; c < memline.WordCells; c++ {
			if lo>>uint(c)&1 != word>>uint(2*c)&1 || hi>>uint(c)&1 != word>>uint(2*c+1)&1 {
				t.Fatalf("plane bit %d of %#x wrong", c, word)
			}
		}
	}
}

func TestPackUnpackStatesRoundTrip(t *testing.T) {
	r := prng.New(2)
	for trial := 0; trial < 2000; trial++ {
		old := oldFromBits(r.Uint64())
		lo, hi := PackStates(old)
		got := make([]pcm.State, memline.WordCells)
		UnpackStates(lo, hi, got)
		for c := range old {
			if got[c] != old[c] {
				t.Fatalf("trial %d: cell %d: %v != %v", trial, c, got[c], old[c])
			}
		}
		// Short-destination unpack writes exactly len(dst) cells.
		short := make([]pcm.State, 13)
		UnpackStates(lo, hi, short)
		for c := range short {
			if short[c] != old[c] {
				t.Fatalf("short unpack cell %d differs", c)
			}
		}
	}
}

// TestCostCountMatchesScalarAndTable is the central SWAR==scalar
// equivalence property: for every bijection, CostCount, the scalar
// reference, and the PR 2 CostTable accumulation agree exactly on cost
// and update count over random words, old states and masks.
func TestCostCountMatchesScalarAndTable(t *testing.T) {
	em := pcm.DefaultEnergy()
	r := prng.New(3)
	for _, m := range allBijections() {
		swar := m.SWAR(&em)
		tab := m.CostTable(&em)
		for trial := 0; trial < 400; trial++ {
			word := r.Uint64()
			old := oldFromBits(r.Uint64())
			mask := r.Uint64() & AllCells
			if trial%8 == 0 {
				mask = AllCells
			}
			var p WordPlanes
			p.Init(word, old)

			gotCost, gotUpd := swar.CostCount(&p, mask)
			refCost, refUpd := swar.CostCountRef(word, old, mask)
			if gotCost != refCost || gotUpd != refUpd {
				t.Fatalf("%v: CostCount (%v,%d) != scalar ref (%v,%d)", m, gotCost, gotUpd, refCost, refUpd)
			}

			// CostTable path over the masked subset.
			var syms []uint8
			var sub []pcm.State
			for c := 0; c < memline.WordCells; c++ {
				if mask>>uint(c)&1 == 1 {
					syms = append(syms, uint8(word>>uint(2*c)&3))
					sub = append(sub, old[c])
				}
			}
			tabCost, tabUpd := tab.BlockCostUpdates(syms, sub)
			if gotCost != tabCost || gotUpd != tabUpd {
				t.Fatalf("%v: CostCount (%v,%d) != CostTable (%v,%d)", m, gotCost, gotUpd, tabCost, tabUpd)
			}

			// The register sweep over a register holding the word in
			// both halves counts every cell twice, and doubling is exact.
			if mask == AllCells {
				var cnt [4]int
				lo, hi := memline.LoHiPlanes(word)
				olo, ohi := PackStates(old)
				is := minterms64(Pair(olo, olo), Pair(ohi, ohi))
				swar.CountReg(Pair(lo, lo), Pair(hi, hi), &is, &cnt)
				if c2, u2 := swar.Price(&cnt); c2 != 2*gotCost || u2 != 2*gotUpd {
					t.Fatalf("%v: CountReg/Price (%v,%d) != 2 x CostCount (%v,%d)", m, c2, u2, gotCost, gotUpd)
				}
			}
		}
	}
}

// TestBestSWARMatchesBestTable pins winner index and cost (including
// the lowest-index tie-break) against the PR 2 path for the Table I and
// SixCosets candidate sets.
func TestBestSWARMatchesBestTable(t *testing.T) {
	em := pcm.DefaultEnergy()
	sets := [][]Mapping{Table1[:], SixCosets(), Table1[:3]}
	r := prng.New(4)
	for _, cands := range sets {
		swar := SWARTables(&em, cands)
		tabs := CostTables(&em, cands)
		for trial := 0; trial < 600; trial++ {
			word := r.Uint64()
			old := oldFromBits(r.Uint64())
			n := 1 + r.Intn(memline.WordCells)
			if trial%7 == 0 {
				// All-equal blocks force ties; the lowest index must win.
				word = 0
			}
			var p WordPlanes
			p.Init(word, old)
			gotIdx, gotCost := BestSWAR(swar, &p, CellMask(0, n))

			var syms [memline.WordCells]uint8
			for c := 0; c < n; c++ {
				syms[c] = uint8(word >> uint(2*c) & 3)
			}
			wantIdx, wantCost := BestTable(tabs, syms[:n], old[:n])
			if gotIdx != wantIdx || gotCost != wantCost {
				t.Fatalf("BestSWAR = (%d, %v), BestTable = (%d, %v)", gotIdx, gotCost, wantIdx, wantCost)
			}
		}
	}
}

// TestApplyMatchesEncode proves mapping application (and its inverse)
// agrees with the per-cell table path for every bijection.
func TestApplyMatchesEncode(t *testing.T) {
	em := pcm.DefaultEnergy()
	r := prng.New(5)
	for _, m := range allBijections() {
		swar := m.SWAR(&em)
		tab := m.CostTable(&em)
		for trial := 0; trial < 300; trial++ {
			word := r.Uint64()
			var p WordPlanes
			p.SetData(word)
			lo, hi := swar.Apply(&p)
			var got [memline.WordCells]pcm.State
			UnpackStates(lo, hi, got[:])

			var syms [memline.WordCells]uint8
			memline.WordSymbols(word, &syms)
			var want [memline.WordCells]pcm.State
			tab.Encode(syms[:], want[:])
			if got != want {
				t.Fatalf("%v: Apply differs from Encode on %#x", m, word)
			}

			// Inverse: decode the states back to the original word.
			slo, shi := PackStates(want[:])
			dlo, dhi := swar.ApplyInvPlanes(slo, shi)
			if back := memline.InterleavePlanes(dlo, dhi); back != word {
				t.Fatalf("%v: ApplyInvPlanes round trip %#x -> %#x", m, word, back)
			}
			// Register-wide: both halves of a pair register invert.
			if rlo, rhi := swar.ApplyInvReg(Pair(slo, slo), Pair(shi, shi)); rlo != Pair(dlo, dlo) || rhi != Pair(dhi, dhi) {
				t.Fatalf("%v: ApplyInvReg on %#x disagrees with ApplyInvPlanes", m, word)
			}
		}
	}
}

// TestC1SWARApplyOnly pins the apply-only package table: zero energies,
// same mapping behavior as C1.
func TestC1SWARApplyOnly(t *testing.T) {
	if C1SWAR.States != C1 {
		t.Fatalf("C1SWAR.States = %v", C1SWAR.States)
	}
	if C1SWAR.Energy != [4]float64{} {
		t.Fatalf("C1SWAR.Energy = %v, want zeros", C1SWAR.Energy)
	}
	var p WordPlanes
	p.SetData(0x0123456789ABCDEF)
	lo, hi := C1SWAR.Apply(&p)
	var got [memline.WordCells]pcm.State
	UnpackStates(lo, hi, got[:])
	for c := range got {
		if want := C1[0x0123456789ABCDEF>>uint(2*c)&3]; got[c] != want {
			t.Fatalf("cell %d: %v != %v", c, got[c], want)
		}
	}
}
