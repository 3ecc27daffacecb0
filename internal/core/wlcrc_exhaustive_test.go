package core

import (
	"testing"

	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
	"wlcrc/internal/prng"
)

// wordEnergy is the differential-write energy of rewriting old into
// out, priced with the energy model directly.
func wordEnergy(em *pcm.EnergyModel, old, out []pcm.State) float64 {
	var cost float64
	for c := range out {
		if out[c] != old[c] {
			cost += em.WriteEnergy(out[c])
		}
	}
	return cost
}

// bruteForceWordCost enumerates every legal encoding of one word at a
// restricted granularity — 2 groups x 2^blocks per-block candidate
// choices — materializes its cells with refWLCRCCommit, and returns the
// minimum differential-write cost, aux cells included.
func bruteForceWordCost(em *pcm.EnergyModel, lay refWLCRCLayout, word uint64, old []pcm.State) float64 {
	var syms [memline.WordCells]uint8
	memline.WordSymbols(word, &syms)
	best := -1.0
	out := make([]pcm.State, memline.WordCells)
	cands := make([]uint8, len(lay.blocks))
	for group := uint8(0); group <= 1; group++ {
		for mask := 0; mask < 1<<len(lay.blocks); mask++ {
			for b := range cands {
				cands[b] = uint8(mask >> uint(b) & 1)
			}
			refWLCRCCommit(lay, &syms, group, cands, out)
			if cost := wordEnergy(em, old, out); best < 0 || cost < best {
				best = cost
			}
		}
	}
	return best
}

// randomWLCRCWord draws a word WLC-compressible at the granularity's
// reclaim and the old states it is written over.
func randomWLCRCWord(r *prng.Xoshiro256, reclaim int) (uint64, []pcm.State) {
	word := memline.SignExtend(r.Uint64(), memline.WordBits-reclaim)
	old := make([]pcm.State, memline.WordCells)
	for i := range old {
		old[i] = pcm.State(r.Intn(pcm.NumStates))
	}
	return word, old
}

// encodeWordCells runs the plane codec on one word.
func encodeWordCells(s *WLCRC, word uint64, old []pcm.State) []pcm.State {
	oldLo, oldHi := coset.PackStates(old)
	nlo, nhi := s.encodeWordPlanes(word, oldLo, oldHi)
	out := make([]pcm.State, memline.WordCells)
	coset.UnpackStates(nlo, nhi, out)
	return out
}

// The encoder implements the paper's Algorithm 1: per-block greedy
// candidate selection inside each group, then a group-level compare.
// That is NOT globally optimal — a block's candidate bit also sits in a
// shared auxiliary cell, so a locally-worse candidate can occasionally
// buy a cheaper aux symbol. The tests below bound the greedy gap of the
// plane codec's own output: it can never beat the exhaustive optimum,
// and it can only lose by aux-cell coupling. Each group's greedy plan
// prices its data cells (the mixed cell included) at their per-block
// minimum, so it loses at most the pure-aux cells' worth of energy; on
// average the gap must be small. WLCRC-8 shares four pure-aux cells per
// word among seven blocks (WLCRC-16 two among four), so its gap is the
// largest: ~3.7% on this corpus.
func TestWLCRC8PlanSearchNearOptimal(t *testing.T) {
	testPlanSearchNearOptimal(t, 8, 31, 0.05)
}

func TestWLCRC16PlanSearchNearOptimal(t *testing.T) {
	testPlanSearchNearOptimal(t, 16, 2024, 0.02)
}

func TestWLCRC32PlanSearchNearOptimal(t *testing.T) {
	testPlanSearchNearOptimal(t, 32, 77, 0.02)
}

func testPlanSearchNearOptimal(t *testing.T, gran int, seed uint64, maxAvgGap float64) {
	t.Helper()
	cfg := DefaultConfig()
	em := &cfg.Energy
	s := testWLCRC(t, cfg, gran)
	lay := refWLCRCLayouts[gran]
	r := prng.New(seed)
	// Worst possible coupling loss: every pure-aux cell rewritten into
	// the most expensive state.
	var maxGap float64
	for _, src := range lay.aux {
		if src[1] != refDataBit {
			maxGap += em.WriteEnergy(pcm.S4)
		}
	}
	var totalGot, totalOpt float64
	for trial := 0; trial < 500; trial++ {
		word, old := randomWLCRCWord(r, lay.reclaim)
		got := wordEnergy(em, old, encodeWordCells(s, word, old))
		want := bruteForceWordCost(em, lay, word, old)
		if got < want-1e-9 {
			t.Fatalf("trial %d: encoder cost %.1f beats the exhaustive optimum %.1f — brute force is broken",
				trial, got, want)
		}
		if got > want+maxGap+1e-9 {
			t.Fatalf("trial %d: greedy gap %.1f exceeds the aux-coupling bound %.1f (word %#x)",
				trial, got-want, maxGap, word)
		}
		totalGot += got
		totalOpt += want
	}
	gap := (totalGot - totalOpt) / totalOpt
	if gap > maxAvgGap {
		t.Errorf("average greedy gap %.2f%%, want <= %.0f%%", 100*gap, 100*maxAvgGap)
	}
	t.Logf("gran %d: average greedy-vs-exhaustive gap %.3f%%", gran, 100*gap)
}

// TestWLCRC64CandidateOptimal: at granularity 64 the choice is
// separable — one block, three unrestricted candidates, the index in
// cell 31 — so the plane codec must store the data cells under the
// candidate of least energy, the lowest index on ties.
func TestWLCRC64CandidateOptimal(t *testing.T) {
	cfg := DefaultConfig()
	em := &cfg.Energy
	s := testWLCRC(t, cfg, 64)
	r := prng.New(64)
	ties := 0
	for trial := 0; trial < 2000; trial++ {
		word, old := randomWLCRCWord(r, 2)
		if trial%2 == 1 { // runs of equal symbols make candidate ties
			word = memline.SignExtend(word&0xff, 8)
		}
		out := encodeWordCells(s, word, old)
		var syms [memline.WordCells]uint8
		memline.WordSymbols(word, &syms)
		idx := int(coset.C1.Inverse()[out[31]])
		if idx > 2 {
			t.Fatalf("trial %d: cell 31 names candidate %d", trial, idx)
		}
		enc := make([]pcm.State, 31)
		var costs [3]float64
		for i := range costs {
			coset.Encode(coset.Table1[i], syms[:31], enc)
			costs[i] = wordEnergy(em, old[:31], enc)
			if i == idx {
				for c := range enc {
					if enc[c] != out[c] {
						t.Fatalf("trial %d: cell %d is not candidate %d's encoding", trial, c, idx)
					}
				}
			}
		}
		for i, c := range costs {
			if c < costs[idx] || (c == costs[idx] && i < idx) {
				t.Fatalf("trial %d: stored candidate %d (%.0f pJ), candidate %d costs %.0f pJ", trial, idx, costs[idx], i, c)
			}
			if i != idx && c == costs[idx] {
				ties++
			}
		}
	}
	if ties == 0 {
		t.Error("corpus produced no candidate ties")
	}
}

// TestWLCRC16AuxLayoutGolden pins the physical aux-bit layout of the
// WLCRC doc comment (wlcrc.go) so a refactor cannot silently change the stored format:
// b59=cand3, b60=cand2, b61=cand1, b62=cand0, b63=group, all aux cells
// through C1.
func TestWLCRC16AuxLayoutGolden(t *testing.T) {
	s, err := NewWLCRC(DefaultConfig(), 16)
	if err != nil {
		t.Fatal(err)
	}
	// All-ones data over fresh cells: every block prefers an alternate
	// candidate mapping 11 -> S1, i.e. cand bits 1111. Both groups cost
	// zero on data cells (C2 and C3 both map 11 to S1 = the fresh
	// state), so the aux cells decide: cell31 holds (group, cand0), and
	// with cand0 = 1 the C3 group's symbol 11 stores as S3 (343 pJ)
	// versus the C2 group's symbol 01 as S4 (583 pJ) — the encoder must
	// pick group 1.
	var data memline.Line
	for i := range data {
		data[i] = 0xff
	}
	// Make the line compressible but keep block contents all-ones: the
	// top 6 bits of each word are already all 1 = compressible.
	cells := encodeCells(s, InitialCells(s.TotalCells()), &data)
	if cells[memline.LineCells] != flagCompressed {
		t.Fatal("line must compress")
	}
	inv := coset.C1.Inverse()
	for w := 0; w < memline.LineWords; w++ {
		base := w * memline.WordCells
		// cell29 = (cand3, b58): b58 = 1 (data bit), cand3 = 1.
		if got := inv[cells[base+29]]; got != 0b11 {
			t.Errorf("word %d cell29 symbol = %02b, want 11", w, got)
		}
		// cell30 = (cand1, cand2) = 11.
		if got := inv[cells[base+30]]; got != 0b11 {
			t.Errorf("word %d cell30 symbol = %02b, want 11", w, got)
		}
		// cell31 = (group, cand0): group 1 (cheaper aux), cand0 = 1.
		if got := inv[cells[base+31]]; got != 0b11 {
			t.Errorf("word %d cell31 symbol = %02b, want 11 (group=1, cand0=1)", w, got)
		}
		// Data cells of blocks 0..2 hold 11 -> S1 under C3.
		for c := 0; c < 24; c++ {
			if cells[base+c] != pcm.S1 {
				t.Fatalf("word %d cell %d = %v, want S1 (C3 maps 11 there)", w, c, cells[base+c])
			}
		}
	}
}

// TestWLCRCBlockRangesCellAligned asserts the geometry table invariants
// for every granularity.
func TestWLCRCBlockRangesCellAligned(t *testing.T) {
	for gran, g := range wlcrcGeoms {
		covered := make([]bool, memline.WordCells)
		for _, rng := range g.blocks {
			if rng[0] < 0 || rng[1] > g.dataCells || rng[0] >= rng[1] {
				t.Errorf("gran %d: bad block range %v", gran, rng)
			}
			for c := rng[0]; c < rng[1]; c++ {
				if covered[c] {
					t.Errorf("gran %d: cell %d in two blocks", gran, c)
				}
				covered[c] = true
			}
		}
		for c := 0; c < g.dataCells; c++ {
			if !covered[c] {
				t.Errorf("gran %d: data cell %d not in any block", gran, c)
			}
		}
		// Aux bits required must fit the reclaimed field: one bit per
		// block plus a group bit (except gran 64: a 2-bit index).
		need := len(g.blocks) + 1
		if gran == 64 {
			need = 2
		}
		if need > g.reclaim {
			t.Errorf("gran %d: %d aux bits > %d reclaimed", gran, need, g.reclaim)
		}
		// Data bits + reclaimed bits must cover the word exactly; a cell
		// between the data cells and the pure-aux cells is mixed.
		if g.dataCells < memline.WordCells-4 {
			t.Errorf("gran %d: the cells from %d on do not fit the codec's four-cell tail tables", gran, g.dataCells)
		}
		mixed := g.auxCell - g.dataCells
		if mixed < 0 || mixed > 1 || 2*g.dataCells+mixed+g.reclaim != memline.WordBits {
			t.Errorf("gran %d: %d data cells, aux from cell %d, %d reclaimed do not tile 64 bits",
				gran, g.dataCells, g.auxCell, g.reclaim)
		}
		// Candidate bits: one per block, distinct, inside the reclaimed
		// field and below the group bit; a mixed cell's aux bit is the
		// last block's, which prices it.
		if gran == 64 {
			continue
		}
		if len(g.candBit) != len(g.blocks) {
			t.Errorf("gran %d: %d candidate bits for %d blocks", gran, len(g.candBit), len(g.blocks))
		}
		seen := map[uint]bool{wlcrcGroupBit: true}
		for b, pos := range g.candBit {
			if int(pos) < memline.WordBits-g.reclaim || seen[pos] {
				t.Errorf("gran %d: block %d candidate bit %d", gran, b, pos)
			}
			seen[pos] = true
		}
		if mixed == 1 && g.candBit[len(g.blocks)-1] != uint(2*g.dataCells+1) {
			t.Errorf("gran %d: the mixed cell's aux bit is not the last block's", gran)
		}
	}
}
