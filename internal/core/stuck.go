package core

import (
	"wlcrc/internal/fault"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
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
// at shard construction like the other optional extensions.
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
// (word-parallel via SWARTable.StuckMismatch) and its auxiliary
// encoding agrees with every stuck aux cell — and the cheapest survivor
// wins, the lowest index on ties. A block with no survivor fails the
// whole line. With no stuck cells the result is EncodePlanesInto's.
func (s *LineCosets) EncodeStuckPlanesInto(dst, old []uint64, data *memline.Line, stuck *fault.LineStuck) bool {
	var lp linePlanes
	lp.initPlanes(data, old)
	var ns newStates
	zeroTail(dst)
	for b := 0; b < s.nblocks; b++ {
		lo := b * s.blockCells
		hi := lo + s.blockCells
		best, bestCost := -1, 0.0
		for i := range s.swar {
			if !s.stuckOK(&lp, i, b, lo, hi, stuck) {
				continue
			}
			c, _ := lp.blockCost(&s.swar[i], lo, hi)
			if best < 0 || c < bestCost {
				best, bestCost = i, c
			}
		}
		if best < 0 {
			return false
		}
		ns.applyBlock(&s.swar[best], &lp, lo, hi)
		s.writeAuxPlanes(dst, b, best)
	}
	ns.writePlanes(dst, memline.LineCells)
	return true
}

// stuckOK reports whether candidate idx of block b (data cells
// [lo, hi)) satisfies every stuck cell it would program.
func (s *LineCosets) stuckOK(lp *linePlanes, idx, b, lo, hi int, stuck *fault.LineStuck) bool {
	t := &s.swar[idx]
	for w := lo / memline.WordCells; w*memline.WordCells < hi; w++ {
		sm, sl, sh := stuck.WordPlanes(w)
		if sm == 0 {
			continue
		}
		if t.StuckMismatch(&lp[w], wordMask(w, lo, hi), sm, sl, sh) != 0 {
			return false
		}
	}
	base := memline.LineCells + b*s.auxPerBlk
	if s.auxPerBlk == 1 {
		if st, ok := stuck.StateOf(base); ok && st != pcm.State(idx) {
			return false
		}
		return true
	}
	pair := s.pairs[idx]
	if st, ok := stuck.StateOf(base); ok && st != pair[0] {
		return false
	}
	if st, ok := stuck.StateOf(base + 1); ok && st != pair[1] {
		return false
	}
	return true
}
