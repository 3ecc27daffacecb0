package sim

import (
	"math/bits"

	"wlcrc/internal/coset"
	"wlcrc/internal/pcm"
)

// VnRStats aggregates the Verify-and-Restore behavior of one run
// (§VIII.C): with fault injection enabled, every write may disturb idle
// neighbor cells toward S2; a read-after-write detects the corruption
// and restore iterations rewrite the affected cells, each iteration
// itself risking new disturbance. The paper reports that 3–5 iterations
// remove all disturbance errors; the stats below let that be checked.
type VnRStats struct {
	InjectedErrors  uint64 // cells corrupted by disturbance
	RestoreWrites   uint64 // cells rewritten by VnR
	RestoreEnergyPJ float64
	Iterations      uint64 // total VnR iterations across writes
	MaxIterations   int    // worst single write
	Residual        uint64 // errors left when the iteration cap was hit
}

// Merge folds another shard's VnR stats into v: accumulators add,
// MaxIterations takes the maximum.
func (v *VnRStats) Merge(o VnRStats) {
	v.InjectedErrors += o.InjectedErrors
	v.RestoreWrites += o.RestoreWrites
	v.RestoreEnergyPJ += o.RestoreEnergyPJ
	v.Iterations += o.Iterations
	if o.MaxIterations > v.MaxIterations {
		v.MaxIterations = o.MaxIterations
	}
	v.Residual += o.Residual
}

// runVnR injects disturbance faults for a completed write and repairs
// them, on plane masks. newP is the freshly-programmed line (the
// intended content) and u.masks marks the cells this write programmed.
// The stored copy equals newP at every draw: disturbance drives each
// hit to the SET state S2, the read-after-write then finds exactly the
// hits whose intended state is not S2, and restore rewrites those
// cells, so a round's restored cells are hits &^ (lo &^ hi). The
// restore writes are RESET events of their own and may disturb their
// idle neighbors again, up to Options.MaxVnRIterations rounds. Hits are
// drawn in ascending cell order and restore energy is added in
// ascending cell order, so draws and sums match the cell-vector
// reference kept in the tests (scalar_oracle_test.go). Residual errors
// at the cap — disturbance VnR never cleared — feed the fault pipeline
// when it is enabled: the affected cells of addr are injected as stuck
// at S2.
func (u *shard) runVnR(newP []uint64, addr uint64) {
	m := &u.m
	dm, em := &u.opts.Disturb, &u.opts.Energy
	n := u.scheme.TotalCells()
	hits, restore := u.vnrHits, u.vnrRestore
	nHits := dm.DisturbedMasksInto(hits, newP, u.masks, n, u.rnd)
	m.VnR.InjectedErrors += uint64(nHits)
	iter := 0
	for nHits > 0 && iter < u.opts.MaxVnRIterations {
		iter++
		for w, h := range hits {
			lo, hi := newP[2*w], newP[2*w+1]
			r := h &^ (lo &^ hi)
			restore[w] = r
			m.VnR.RestoreWrites += uint64(bits.OnesCount64(r))
			for ; r != 0; r &= r - 1 {
				m.VnR.RestoreEnergyPJ += em.WriteEnergy(pcm.PlaneState(lo, hi, bits.TrailingZeros64(r)))
			}
		}
		nHits = dm.DisturbedMasksInto(hits, newP, restore, n, u.rnd)
		m.VnR.InjectedErrors += uint64(nHits)
	}
	m.VnR.Iterations += uint64(iter)
	if iter > m.VnR.MaxIterations {
		m.VnR.MaxIterations = iter
	}
	if nHits > 0 {
		m.VnR.Residual += uint64(nHits)
		if u.fm != nil {
			u.injectResiduals(addr, newP, hits)
		}
	}
}

// injectResiduals freezes the VnR residual cells of the hit mask at the
// SET state the disturbance drove them to and classifies the line's
// recoverability: residuals beyond the ECC budget make reads of the
// line deterministic garbage, counted as uncorrectable (no retry or
// retirement recourse — the write itself succeeded; the corruption
// crept in afterwards). Only the ECC classification unpacks newP to
// cells.
func (u *shard) injectResiduals(addr uint64, newP, hits []uint64) {
	injected := 0
	for w, h := range hits {
		for ; h != 0; h &= h - 1 {
			if u.fm.InjectStuck(addr, w*32+bits.TrailingZeros64(h), pcm.S2) {
				injected++
			}
		}
	}
	if injected == 0 {
		return
	}
	cells := u.cellsNew[:u.scheme.TotalCells()]
	coset.UnpackLine(newP, cells)
	if _, ok := u.fm.Correct(cells, u.fm.Stuck(addr), &u.eccSc); !ok {
		u.fm.Stats.Uncorrectable++
	}
}
