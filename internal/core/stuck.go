package core

import (
	"wlcrc/internal/coset"
	"wlcrc/internal/fault"
	"wlcrc/internal/memline"
)

// StuckAwareEncoder is the optional Scheme extension behind the fault
// repair pipeline's first recourse: re-encode the line so every stuck
// cell's frozen state is exactly what the encoding wants to store
// there. Coset families can often do this for free — any candidate
// whose mapped output matches the stuck cells is a valid encoding — so
// a stuck line costs a second candidate search instead of ECC budget.
//
// EncodeStuckPlanesInto follows the PlaneScheme contract and reports
// false when no candidate assignment satisfies the stuck cells; dst is
// then unspecified and the caller falls back to its next recourse
// (re-encoding canonically first).
type StuckAwareEncoder interface {
	EncodeStuckPlanesInto(dst, old []uint64, data *memline.Line, stuck *fault.LineStuck) bool
}

// EncodeStuckFunc resolves a scheme's stuck-aware re-encode entry
// point, or nil when the scheme cannot trade candidate freedom against
// stuck cells (the pipeline then goes straight to ECC). Resolved once
// at store construction like the other optional extensions.
func EncodeStuckFunc(s Scheme) func(dst, old []uint64, data *memline.Line, stuck *fault.LineStuck) bool {
	if sa, ok := s.(StuckAwareEncoder); ok {
		return sa.EncodeStuckPlanesInto
	}
	return nil
}

// EncodeStuckPlanesInto implements StuckAwareEncoder for the
// unrestricted coset family: per block, the candidates are re-priced
// with the stuck cells as a hard constraint — a candidate survives only
// if its mapped output agrees with every stuck data cell of the block
// (64 cells at a time via SWARTable.StuckMismatch) and its aux code
// agrees with every stuck aux cell — and the cheapest survivor wins,
// the lowest index on ties. A block with no survivor fails the whole
// line. With no stuck cells the result is EncodePlanesInto's.
func (s *LineCosets) EncodeStuckPlanesInto(dst, old []uint64, data *memline.Line, stuck *fault.LineStuck) bool {
	var p coset.Regs
	p.Load(data, old)
	var sm, sl, sh [coset.MaxRegs]uint64
	for r := range sm {
		m0, l0, h0 := stuck.WordPlanes(2 * r)
		m1, l1, h1 := stuck.WordPlanes(2*r + 1)
		sm[r], sl[r], sh[r] = coset.Pair(m0, m1), coset.Pair(l0, l1), coset.Pair(h0, h1)
	}
	n := s.geom.Len()
	var idx [maxBlocks]uint8
	var found [maxBlocks]bool
	var cost, bestCost [maxBlocks]float64
	for i := range s.tabs {
		coset.EvalBlocks(s.tabs[i:i+1], &p, s.geom, cost[:n])
		for b := 0; b < n; b++ {
			if (!found[b] || cost[b] < bestCost[b]) && s.stuckOK(&p, i, b, &sm, &sl, &sh, stuck) {
				idx[b], found[b], bestCost[b] = uint8(i), true, cost[b]
			}
		}
	}
	for b := 0; b < n; b++ {
		if !found[b] {
			return false
		}
	}
	s.store(dst, &p, 0, idx[:n])
	return true
}

// stuckOK reports whether candidate i of block b satisfies every stuck
// cell it would program: the block's data cells, checked word-parallel
// per register, and the cells holding its aux code.
func (s *LineCosets) stuckOK(p *coset.Regs, i, b int, sm, sl, sh *[coset.MaxRegs]uint64, stuck *fault.LineStuck) bool {
	t := &s.tabs[i]
	r0, r1, mask := s.geom.Span(b)
	for r := r0; r < r1; r++ {
		if sm[r]&mask != 0 && t.StuckMismatch(&p.Sym[r], mask, sm[r], sl[r], sh[r]) != 0 {
			return false
		}
	}
	code := s.groups[0].code[i]
	for j := 0; j < s.auxWidth; j++ {
		k := s.auxBit[b] + j
		if st, ok := stuck.StateOf(k >> 1); ok && uint8(st)>>(k&1)&1 != code>>j&1 {
			return false
		}
	}
	return true
}
