// Package wear tracks per-cell program counts and projects array
// lifetime. The paper evaluates endurance as the average number of
// updated cells per write (Figure 9) because PCM cells wear out with
// programming; this package extends that metric to the distributions a
// lifetime analysis needs: dense per-cell wear counts, worst-cell wear,
// a wear-level CDF, and a first-cell-failure projection under a given
// cell endurance budget.
//
// The package is built for the streaming replay engine in internal/sim:
// each single-threaded store owns a Dense recorder (per-cell uint32
// counts over the store's line footprint, map-free on the hot path once
// a line is known), and maintains a fixed-size, mergeable Summary
// incrementally with every programmed cell. Only the Summary travels —
// it is embedded in the simulator's Metrics, copied into concurrent
// snapshots, and folded across stores with plain adds and maxes — while
// the dense count array never leaves its owning store.
package wear

import (
	"math"
	"math/bits"
)

// DefaultCellEndurance is a representative MLC PCM cell endurance
// (program cycles to failure); PCM literature reports 1e6..1e8 for MLC.
const DefaultCellEndurance = 1e7

// summaryBuckets is the number of wear-level buckets of a Summary:
// bucket b (1..32) counts cells whose program count c has
// bits.Len32(c) == b, i.e. c in [2^(b-1), 2^b). Bucket 0 is unused —
// never-programmed cells are Cells - CellsTouched.
const summaryBuckets = 33

// Summary is the fixed-size, mergeable digest of a wear distribution.
// It is a plain value (no slices), so the simulator can embed it in
// metrics, copy it when publishing snapshots, and merge per-store
// partials deterministically: counters add, MaxCellWear takes the
// maximum. Because stores partition the address space, cells are never
// double-counted across merged summaries.
type Summary struct {
	// Writes is the number of recorded line writes.
	Writes uint64
	// Updates is the total number of cell programs (the Figure 9
	// numerator).
	Updates uint64
	// Cells is the total number of tracked cells (touched lines times
	// cells per line).
	Cells uint64
	// CellsTouched is the number of distinct cells programmed at least
	// once.
	CellsTouched uint64
	// MaxCellWear is the largest per-cell program count seen.
	MaxCellWear uint32
	// Buckets[b] counts cells whose current wear c has bits.Len32(c)==b:
	// a log2-scaled wear-level histogram over touched cells, maintained
	// incrementally as counts move between levels.
	Buckets [summaryBuckets]uint64
}

// Merge folds another store's summary into s. Stores partition the
// address space, so every tracked cell belongs to exactly one operand.
func (s *Summary) Merge(o Summary) {
	s.Writes += o.Writes
	s.Updates += o.Updates
	s.Cells += o.Cells
	s.CellsTouched += o.CellsTouched
	if o.MaxCellWear > s.MaxCellWear {
		s.MaxCellWear = o.MaxCellWear
	}
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// AvgUpdatedCells returns the Figure 9 metric over the recorded history.
func (s Summary) AvgUpdatedCells() float64 {
	if s.Writes == 0 {
		return 0
	}
	return float64(s.Updates) / float64(s.Writes)
}

// MeanWear returns the mean program count over cells programmed at
// least once (0 when nothing was programmed).
func (s Summary) MeanWear() float64 {
	if s.CellsTouched == 0 {
		return 0
	}
	return float64(s.Updates) / float64(s.CellsTouched)
}

// WearImbalance returns max wear divided by mean wear over programmed
// cells (1.0 = perfectly even). Higher values mean hot cells will fail
// far earlier than the array average.
func (s Summary) WearImbalance() float64 {
	mean := s.MeanWear()
	if mean == 0 {
		return 0
	}
	return float64(s.MaxCellWear) / mean
}

// BucketUpper returns the largest wear count belonging to bucket b
// (inclusive), the x-axis of the wear CDF.
func BucketUpper(b int) uint32 {
	if b <= 0 {
		return 0
	}
	if b >= 32 {
		return math.MaxUint32
	}
	return 1<<uint(b) - 1
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]) of
// per-cell wear over all tracked cells, including never-programmed
// ones: the upper edge of the log2 wear-level bucket holding the cell
// of that rank. MaxCellWear is exact; Quantile trades exactness for a
// fixed-size summary.
func (s Summary) Quantile(q float64) uint32 {
	if s.Cells == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.Cells))
	if rank == 0 {
		rank = 1
	}
	cum := s.Cells - s.CellsTouched // never-programmed cells sort first
	if cum >= rank {
		return 0
	}
	for b := 1; b < summaryBuckets; b++ {
		cum += s.Buckets[b]
		if cum >= rank {
			u := BucketUpper(b)
			if u > s.MaxCellWear {
				u = s.MaxCellWear
			}
			return u
		}
	}
	return s.MaxCellWear
}

// LifetimeWrites projects how many writes (with the recorded workload's
// wear pattern) the array survives before the hottest cell exhausts
// cellEndurance program cycles. It scales the observed worst-cell wear
// rate linearly, the standard first-failure model.
func (s Summary) LifetimeWrites(cellEndurance float64) float64 {
	if s.MaxCellWear == 0 || s.Writes == 0 {
		return math.Inf(1)
	}
	perWrite := float64(s.MaxCellWear) / float64(s.Writes)
	return cellEndurance / perWrite
}

// RelativeLifetime returns how much longer (>1) or shorter (<1) this
// summary's projected lifetime is versus other, under the same cell
// endurance. Useful for scheme-vs-scheme endurance comparisons beyond
// the average-updates metric.
func (s Summary) RelativeLifetime(other Summary) float64 {
	a := s.LifetimeWrites(DefaultCellEndurance)
	b := other.LifetimeWrites(DefaultCellEndurance)
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return 1
	}
	if b == 0 || math.IsInf(a, 1) {
		return math.Inf(1)
	}
	return a / b
}

// Dense accumulates per-cell program counts for a set of lines in one
// flat uint32 array, keyed by the caller's dense line slot — in the
// replay engine, the store arena's slot, assigned in first-touch order.
// A write of a known slot is direct array increments, allocation-free.
// Dense is single-writer by design — in the replay engine exactly one
// store (hence one goroutine) owns each Dense — and the mergeable
// Summary is maintained incrementally so readers never need to scan the
// count array.
type Dense struct {
	cellsPerLine int
	nSlots       int      // lines tracked
	counts       []uint32 // slot*cellsPerLine + cell
	zero         []uint32 // reusable zero block for new lines
	s            Summary
}

// NewDense builds a recorder for lines of the given cell count.
func NewDense(cellsPerLine int) *Dense {
	if cellsPerLine <= 0 {
		panic("wear: cellsPerLine must be positive")
	}
	return &Dense{
		cellsPerLine: cellsPerLine,
		zero:         make([]uint32, cellsPerLine),
	}
}

// CellsPerLine returns the per-line cell count the recorder was built
// with.
func (d *Dense) CellsPerLine() int { return d.cellsPerLine }

// bump programs cell at flat index i once, keeping the summary's
// touched-cell count, wear-level buckets and max in sync.
func (d *Dense) bump(i int) {
	c := d.counts[i] + 1
	d.counts[i] = c
	d.s.Updates++
	if c == 1 {
		d.s.CellsTouched++
	} else {
		d.s.Buckets[bits.Len32(c-1)]--
	}
	d.s.Buckets[bits.Len32(c)]++
	if c > d.s.MaxCellWear {
		d.s.MaxCellWear = c
	}
}

// ensureSlot grows the count array to cover slot, zeroing any new
// blocks. Slots are handed out by the sim arena in first-touch order, so
// growth is almost always by exactly one line.
func (d *Dense) ensureSlot(slot int) {
	for d.nSlots <= slot {
		d.counts = append(d.counts, d.zero...)
		d.nSlots++
		d.s.Cells += uint64(d.cellsPerLine)
	}
}

// RecordSlotMasks registers one line write from plane-diff change masks:
// bit i of masks[w] reports whether cell 32*w+i was programmed (bits at
// or beyond cells-per-line must be zero — the plane storage's tail-zero
// invariant guarantees this for masks produced by DiffWriteMasks). slot
// is the caller's dense line index.
func (d *Dense) RecordSlotMasks(slot int, masks []uint64) {
	d.ensureSlot(slot)
	base := slot * d.cellsPerLine
	d.s.Writes++
	for w, m := range masks {
		for ; m != 0; m &= m - 1 {
			d.bump(base + w*32 + bits.TrailingZeros64(m))
		}
	}
}

// SlotCounts returns the live per-cell program counts of a line,
// growing the store if the slot is new. The slice aliases the
// recorder's storage — valid only until the next record call (which may
// grow the array) and must not be modified. The fault model reads it to
// compare a line's wear against its endurance thresholds without
// copying.
func (d *Dense) SlotCounts(slot int) []uint32 {
	d.ensureSlot(slot)
	base := slot * d.cellsPerLine
	return d.counts[base : base+d.cellsPerLine]
}

// Summary returns the current mergeable digest. The copy is detached:
// later writes do not affect it.
func (d *Dense) Summary() Summary { return d.s }

// Reset zeroes all wear counts and the summary but keeps the line
// footprint (slots stay allocated, Cells is preserved), mirroring the
// simulator's reset-metrics-after-warmup flow.
func (d *Dense) Reset() {
	for i := range d.counts {
		d.counts[i] = 0
	}
	d.s = Summary{Cells: uint64(d.nSlots * d.cellsPerLine)}
}

// Clear drops the line footprint as well as the counts but keeps the
// allocated capacity, so a full simulator reset reuses the count array
// instead of reallocating it. Callers reassign slots from 0 after a
// Clear (the sim arena resets its index the same way).
func (d *Dense) Clear() {
	d.counts = d.counts[:0]
	d.nSlots = 0
	d.s = Summary{}
}
