package core

import (
	"testing"

	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
	"wlcrc/internal/prng"
)

// bruteForceWordCost enumerates every legal WLCRC-16 encoding of one
// word — 2 groups x 2^4 per-block candidate choices — materializes the
// cell states exactly as commit() would, and returns the minimum
// differential-write cost. This independently validates the encoder's
// two-pass plan search (Algorithm 1 plus aux-cell accounting).
func bruteForceWordCost(s *WLCRC, word uint64, old []pcm.State) float64 {
	em := s.em
	var syms [memline.WordCells]uint8
	for c := 0; c < memline.WordCells; c++ {
		syms[c] = uint8(word >> (uint(c) * 2) & 3)
	}
	best := -1.0
	out := make([]pcm.State, memline.WordCells)
	for group := uint8(0); group <= 1; group++ {
		for mask := 0; mask < 1<<len(s.geom.blocks); mask++ {
			plan := wordPlan{group: group}
			for b := 0; b < len(s.geom.blocks); b++ {
				plan.cands[b] = uint8(mask >> uint(b) & 1)
			}
			copy(out, old)
			s.commit(&plan, syms[:], out)
			var cost float64
			for c := range out {
				if out[c] != old[c] {
					cost += em.WriteEnergy(out[c])
				}
			}
			if best < 0 || cost < best {
				best = cost
			}
		}
	}
	return best
}

// The encoder implements the paper's Algorithm 1: per-block greedy
// candidate selection inside each group, then a group-level compare.
// That is NOT globally optimal — a block's candidate bit also sits in a
// shared auxiliary cell, so a locally-worse candidate can occasionally
// buy a cheaper aux symbol. The tests below bound the greedy gap: the
// encoder can never beat the exhaustive optimum, and it can only lose by
// aux-cell coupling (at most two shared aux cells' worth of energy), and
// on average the gap must be tiny.
func TestWLCRC16PlanSearchNearOptimal(t *testing.T) {
	testPlanSearchNearOptimal(t, 16, 58, 2024)
}

func TestWLCRC32PlanSearchNearOptimal(t *testing.T) {
	testPlanSearchNearOptimal(t, 32, 60, 77)
}

func testPlanSearchNearOptimal(t *testing.T, gran, payloadBits int, seed uint64) {
	t.Helper()
	s, err := NewWLCRC(DefaultConfig(), gran)
	if err != nil {
		t.Fatal(err)
	}
	r := prng.New(seed)
	em := s.em
	// Worst possible coupling loss: two shared aux cells rewritten into
	// the most expensive state.
	maxGap := 2 * em.WriteEnergy(pcm.S4)
	var totalGot, totalOpt float64
	for trial := 0; trial < 500; trial++ {
		word := memline.SignExtend(r.Uint64()&(1<<uint(payloadBits)-1), payloadBits+1)
		old := make([]pcm.State, memline.WordCells)
		for i := range old {
			old[i] = pcm.State(r.Intn(pcm.NumStates))
		}
		oldLo, oldHi := coset.PackStates(old)
		nlo, nhi := s.encodeWordPlanes(word, oldLo, oldHi)
		out := make([]pcm.State, memline.WordCells)
		coset.UnpackStates(nlo, nhi, out)
		var got float64
		for c := range out {
			if out[c] != old[c] {
				got += em.WriteEnergy(out[c])
			}
		}
		want := bruteForceWordCost(s, word, old)
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
	if gap > 0.02 {
		t.Errorf("average greedy gap %.2f%%, want <= 2%%", 100*gap)
	}
	t.Logf("gran %d: average greedy-vs-exhaustive gap %.3f%%", gran, 100*gap)
}

// TestWLCRC16AuxLayoutGolden pins the physical aux-bit layout of
// DESIGN.md §3 so a refactor cannot silently change the stored format:
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
		// Data bits + reclaimed bits must cover the word exactly.
		dataBits := g.dataCells * 2
		if g.mixed {
			dataBits++
		}
		if dataBits+g.reclaim != memline.WordBits {
			t.Errorf("gran %d: %d data + %d reclaimed != 64", gran, dataBits, g.reclaim)
		}
	}
}
