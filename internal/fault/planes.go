package fault

import (
	"math/bits"

	"wlcrc/internal/pcm"
)

// This file is the fault model's plane-resident surface: the replay
// stores keep lines as (lo, hi) bit-plane pairs (see internal/sim's
// arena), and the write-path checks that run on every request to a
// stuck line — mismatch detection, the stored-state overlay, and the
// wear-onset scan — operate on that layout directly, as do the repair
// recourses' re-encodes (the stuck-aware retry and the canonical and
// retirement re-encodes run the scheme's plane codec). The scalar
// []pcm.State methods in fault.go remain the reference implementations,
// and the ECC (ecc.go) works on cells: the stores unpack a line only at
// that boundary.
//
// Plane layout convention (shared with internal/coset): planes[2w] and
// planes[2w+1] hold the low and high state bits of cells [32w, 32w+32),
// cell state s contributing bit s&1 to the low plane and s>>1 to the
// high plane.

// planeState reads cell c's state out of a plane-resident line.
func planeState(planes []uint64, c int) pcm.State {
	w, b := c>>5, uint(c&31)
	return pcm.State((planes[2*w]>>b)&1 | ((planes[2*w+1]>>b)&1)<<1)
}

// MismatchCountPlanes is MismatchCount over a plane-resident intended
// vector: how many stuck cells disagree with what the write wants to
// store.
func (ls *LineStuck) MismatchCountPlanes(planes []uint64) int {
	n := 0
	seen := 0
	for c, v := range ls.States {
		if v == 0 {
			continue
		}
		if pcm.State(v-1) != planeState(planes, c) {
			n++
		}
		seen++
		if seen == ls.N {
			break
		}
	}
	return n
}

// OverlayPlanes forces every stuck cell's frozen state into the
// plane-resident line, turning an intended vector into the physically
// stored one. The plane counterpart of Overlay.
func (ls *LineStuck) OverlayPlanes(planes []uint64) {
	seen := 0
	for c, v := range ls.States {
		if v == 0 {
			continue
		}
		st := uint64(v - 1)
		w, b := c>>5, uint(c&31)
		planes[2*w] = planes[2*w]&^(1<<b) | (st&1)<<b
		planes[2*w+1] = planes[2*w+1]&^(1<<b) | (st>>1)<<b
		seen++
		if seen == ls.N {
			break
		}
	}
}

// OnWriteMasks is OnWrite fed from the plane-resident settle path:
// masks are the per-word changed-cell bit masks the energy diff already
// produced, and planes is the settled intended content the newly dead
// cells freeze at. Cells are visited in ascending index order, exactly
// like the scalar changed[] scan, so the stats and stuck states are
// bit-identical between the two paths.
func (m *Map) OnWriteMasks(addr uint64, masks, planes []uint64, counts []uint32) {
	r := m.rec(addr)
	if !r.touched {
		r.touched = true
		m.Stats.LinesTouched++
	}
	if r.remapped {
		m.Stats.RemapHits++
	}
	if counts == nil {
		return
	}
	if r.thr == nil {
		r.thr = make([]uint32, m.cells)
		for c := range r.thr {
			r.thr[c] = m.drawThreshold(addr, c, r.gen)
		}
	}
	for w, mk := range masks {
		for ; mk != 0; mk &= mk - 1 {
			c := w*32 + bits.TrailingZeros64(mk)
			if c >= m.cells {
				break
			}
			if counts[c] >= r.thr[c] && r.set(c, planeState(planes, c)) {
				m.Stats.StuckCells++
				m.Stats.WearStuck++
			}
		}
	}
}
