package wear

import (
	"math"
	"slices"
	"testing"

	"wlcrc/internal/core"
	"wlcrc/internal/coset"
	"wlcrc/internal/pcm"
	"wlcrc/internal/workload"
)

// cellMask returns the one-word change mask of the listed cells.
func cellMask(cells ...int) []uint64 {
	var m uint64
	for _, c := range cells {
		m |= 1 << uint(c)
	}
	return []uint64{m}
}

func TestRecordCountsOnlyChanges(t *testing.T) {
	d := NewDense(4)
	d.RecordSlotMasks(0, cellMask(1, 3))
	s := d.Summary()
	if s.Writes != 1 {
		t.Errorf("writes = %d", s.Writes)
	}
	if got := s.AvgUpdatedCells(); got != 2 {
		t.Errorf("avg updated = %v, want 2", got)
	}
	if s.MaxCellWear != 1 {
		t.Errorf("max wear = %d", s.MaxCellWear)
	}
	if s.Cells != 4 || s.CellsTouched != 2 {
		t.Errorf("cells = %d touched = %d, want 4, 2", s.Cells, s.CellsTouched)
	}
	// An idle write: no changes.
	d.RecordSlotMasks(0, cellMask())
	if got := d.Summary().AvgUpdatedCells(); got != 1 {
		t.Errorf("avg updated after idle write = %v, want 1", got)
	}
}

// TestSlotCountsTrackMasks pins the per-cell counts behind the summary:
// SlotCounts reads back exactly the recorded programs, a slot first
// seen through SlotCounts reads zero and joins the footprint, and slots
// past the last one grow the store with zeroed lines.
func TestSlotCountsTrackMasks(t *testing.T) {
	d := NewDense(3)
	d.RecordSlotMasks(0, cellMask(0, 2))
	d.RecordSlotMasks(0, cellMask(2))
	if got := d.SlotCounts(0); !slices.Equal(got, []uint32{1, 0, 2}) {
		t.Errorf("slot 0 counts = %v, want [1 0 2]", got)
	}
	if got := d.SlotCounts(2); !slices.Equal(got, []uint32{0, 0, 0}) {
		t.Errorf("fresh slot 2 counts = %v, want zeros", got)
	}
	if s := d.Summary(); s.Cells != 9 || s.Writes != 2 || s.Updates != 3 {
		t.Errorf("summary = %+v, want 9 cells over 3 slots, 2 writes, 3 updates", s)
	}
	d.RecordSlotMasks(1, cellMask(1))
	if got := d.SlotCounts(1); !slices.Equal(got, []uint32{0, 1, 0}) {
		t.Errorf("slot 1 counts = %v, want [0 1 0]", got)
	}
}

func TestMaxWearAndImbalance(t *testing.T) {
	d := NewDense(2)
	for i := 0; i < 10; i++ {
		d.RecordSlotMasks(0, cellMask(0))
	}
	s := d.Summary()
	if s.MaxCellWear != 10 {
		t.Errorf("max wear = %d, want 10 (cell 0 flipped every write)", s.MaxCellWear)
	}
	// Cell 1 never programmed: imbalance counts only programmed cells.
	if got := s.WearImbalance(); got != 1 {
		t.Errorf("imbalance = %v, want 1 (single hot cell)", got)
	}
	// The wear-level buckets must hold exactly the one touched cell, at
	// level bits.Len32(10) = 4.
	var n uint64
	for b, c := range s.Buckets {
		n += c
		if c > 0 && b != 4 {
			t.Errorf("bucket %d = %d, want only bucket 4 occupied", b, c)
		}
	}
	if n != 1 {
		t.Errorf("bucket total = %d, want 1", n)
	}
}

func TestQuantile(t *testing.T) {
	d := NewDense(4)
	d.RecordSlotMasks(0, cellMask(0))
	s := d.Summary()
	if got := s.Quantile(1); got != 1 {
		t.Errorf("p100 = %d, want 1", got)
	}
	if got := s.Quantile(0.5); got != 0 {
		t.Errorf("p50 = %d, want 0 (3 of 4 cells unworn)", got)
	}
	if got := (Summary{}).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %d", got)
	}
}

func TestSummaryMergePartitions(t *testing.T) {
	// Recording the same stream into one recorder, or partitioned by
	// line across two recorders (each with its own dense slots) and
	// merged, must give identical summaries — the property the sharded
	// engine's metric merge needs.
	whole := NewDense(2)
	even, odd := NewDense(2), NewDense(2)
	changes := [][]uint64{cellMask(0, 1), cellMask(1), cellMask()}
	for i := 0; i < 40; i++ {
		line, m := i%4, changes[i%len(changes)]
		whole.RecordSlotMasks(line, m)
		if line%2 == 0 {
			even.RecordSlotMasks(line/2, m)
		} else {
			odd.RecordSlotMasks(line/2, m)
		}
	}
	merged := even.Summary()
	merged.Merge(odd.Summary())
	if merged != whole.Summary() {
		t.Errorf("merged partitions differ from whole:\nwhole:  %+v\nmerged: %+v",
			whole.Summary(), merged)
	}
}

func TestResetKeepsFootprint(t *testing.T) {
	d := NewDense(2)
	d.RecordSlotMasks(0, cellMask(0, 1))
	d.Reset()
	s := d.Summary()
	if s.Writes != 0 || s.Updates != 0 || s.MaxCellWear != 0 || s.CellsTouched != 0 {
		t.Errorf("reset left counters: %+v", s)
	}
	if s.Cells != 2 {
		t.Errorf("reset dropped footprint: cells=%d", s.Cells)
	}
	if got := d.SlotCounts(0); !slices.Equal(got, []uint32{0, 0}) {
		t.Errorf("reset left counts %v", got)
	}
	d.RecordSlotMasks(0, cellMask(0))
	if got := d.Summary().MaxCellWear; got != 1 {
		t.Errorf("post-reset max wear = %d, want 1", got)
	}
	d.Clear()
	if s := d.Summary(); s != (Summary{}) {
		t.Errorf("clear left %+v", s)
	}
}

func TestLifetimeProjection(t *testing.T) {
	d := NewDense(1)
	// One cell programmed every write: lifetime = endurance writes.
	for i := 0; i < 100; i++ {
		d.RecordSlotMasks(0, cellMask(0))
	}
	if got := d.Summary().LifetimeWrites(1e6); math.Abs(got-1e6) > 1 {
		t.Errorf("lifetime = %v, want 1e6", got)
	}
	if !math.IsInf((Summary{}).LifetimeWrites(1e6), 1) {
		t.Error("empty summary must project infinite lifetime")
	}
}

func TestBucketUpper(t *testing.T) {
	cases := map[int]uint32{0: 0, 1: 1, 2: 3, 3: 7, 10: 1023, 32: math.MaxUint32}
	for b, want := range cases {
		if got := BucketUpper(b); got != want {
			t.Errorf("BucketUpper(%d) = %d, want %d", b, got, want)
		}
	}
}

// TestSchemesLifetimeOrdering is the wear-level integration check:
// WLCRC-16 must project a longer lifetime than the baseline on biased
// workloads (it programs fewer cells), mirroring the paper's endurance
// claim at the distribution level rather than just the mean.
func TestSchemesLifetimeOrdering(t *testing.T) {
	cfg := core.DefaultConfig()
	base, _ := core.NewScheme("Baseline", cfg)
	wl, _ := core.NewScheme("WLCRC-16", cfg)

	run := func(s core.Scheme) Summary {
		n := s.TotalCells()
		codec := core.CtrPlaneCodec(s)
		em := pcm.DefaultEnergy()
		d := NewDense(n)
		mem := map[uint64][]uint64{}
		slots := map[uint64]int{}
		masks := make([]uint64, coset.PlaneWords(n)/2)
		p, _ := workload.ProfileByName("gcc")
		gen := workload.NewGenerator(p, 128, 5)
		for i := 0; i < 3000; i++ {
			req, _ := gen.Next()
			old, ok := mem[req.Addr]
			if !ok {
				old = make([]uint64, coset.PlaneWords(n))
				slots[req.Addr] = len(slots)
			}
			next := make([]uint64, len(old))
			codec.EncodeCtrPlanesInto(next, old, req.Addr, 0, &req.New)
			em.DiffWriteMasks(old, next, masks, s.DataCells())
			d.RecordSlotMasks(slots[req.Addr], masks)
			mem[req.Addr] = next
		}
		return d.Summary()
	}
	sBase := run(base)
	sWl := run(wl)
	if sWl.AvgUpdatedCells() >= sBase.AvgUpdatedCells() {
		t.Errorf("WLCRC updates %.1f >= baseline %.1f",
			sWl.AvgUpdatedCells(), sBase.AvgUpdatedCells())
	}
	rel := sWl.RelativeLifetime(sBase)
	if rel < 1.0 {
		t.Errorf("WLCRC relative lifetime %.2f, want >= 1", rel)
	}
	t.Logf("projected lifetime ratio WLCRC-16 / Baseline = %.2f "+
		"(avg updates %.1f vs %.1f, max wear %d vs %d)",
		rel, sWl.AvgUpdatedCells(), sBase.AvgUpdatedCells(),
		sWl.MaxCellWear, sBase.MaxCellWear)
}
