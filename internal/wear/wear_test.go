package wear

import (
	"math"
	"testing"

	"wlcrc/internal/core"
	"wlcrc/internal/coset"
	"wlcrc/internal/pcm"
	"wlcrc/internal/workload"
)

func TestRecordCountsOnlyChanges(t *testing.T) {
	d := NewDense(4)
	old := []pcm.State{pcm.S1, pcm.S1, pcm.S2, pcm.S3}
	new := []pcm.State{pcm.S1, pcm.S2, pcm.S2, pcm.S4}
	d.Record(0, old, new)
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
	// Same write again: no changes.
	d.Record(0, new, new)
	if got := d.Summary().AvgUpdatedCells(); got != 1 {
		t.Errorf("avg updated after idle write = %v, want 1", got)
	}
}

func TestRecordChangedMatchesRecord(t *testing.T) {
	a, b := NewDense(3), NewDense(3)
	old := []pcm.State{pcm.S1, pcm.S2, pcm.S3}
	new := []pcm.State{pcm.S4, pcm.S2, pcm.S1}
	a.Record(7, old, new)
	b.RecordChanged(7, []bool{true, false, true})
	if a.Summary() != b.Summary() {
		t.Errorf("Record %+v != RecordChanged %+v", a.Summary(), b.Summary())
	}
	if a.CellWear(7, 0) != 1 || a.CellWear(7, 1) != 0 || a.CellWear(7, 2) != 1 {
		t.Error("per-cell counts wrong")
	}
	if a.CellWear(99, 0) != 0 {
		t.Error("untracked line should read 0")
	}
}

func TestMaxWearAndImbalance(t *testing.T) {
	d := NewDense(2)
	a := []pcm.State{pcm.S1, pcm.S1}
	b := []pcm.State{pcm.S2, pcm.S1}
	for i := 0; i < 10; i++ {
		if i%2 == 0 {
			d.Record(0, a, b)
		} else {
			d.Record(0, b, a)
		}
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
	old := []pcm.State{pcm.S1, pcm.S1, pcm.S1, pcm.S1}
	new := []pcm.State{pcm.S2, pcm.S1, pcm.S1, pcm.S1}
	d.Record(0, old, new)
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
	// address across two recorders and merged, must give identical
	// summaries — the property the sharded engine's metric merge needs.
	whole := NewDense(2)
	even, odd := NewDense(2), NewDense(2)
	states := [][]pcm.State{
		{pcm.S1, pcm.S1}, {pcm.S2, pcm.S3}, {pcm.S2, pcm.S1}, {pcm.S4, pcm.S1},
	}
	for i := 0; i < 40; i++ {
		addr := uint64(i % 4)
		old, new := states[i%4], states[(i+1)%4]
		whole.Record(addr, old, new)
		if addr%2 == 0 {
			even.Record(addr, old, new)
		} else {
			odd.Record(addr, old, new)
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
	d.Record(1, []pcm.State{pcm.S1, pcm.S1}, []pcm.State{pcm.S2, pcm.S2})
	d.Reset()
	s := d.Summary()
	if s.Writes != 0 || s.Updates != 0 || s.MaxCellWear != 0 || s.CellsTouched != 0 {
		t.Errorf("reset left counters: %+v", s)
	}
	if s.Cells != 2 || d.Lines() != 1 {
		t.Errorf("reset dropped footprint: cells=%d lines=%d", s.Cells, d.Lines())
	}
	d.Record(1, []pcm.State{pcm.S1, pcm.S1}, []pcm.State{pcm.S2, pcm.S1})
	if got := d.Summary().MaxCellWear; got != 1 {
		t.Errorf("post-reset max wear = %d, want 1", got)
	}
}

func TestLifetimeProjection(t *testing.T) {
	d := NewDense(1)
	// One cell programmed every write: lifetime = endurance writes.
	for i := 0; i < 100; i++ {
		st := []pcm.State{pcm.State(i % 2)}
		nx := []pcm.State{pcm.State((i + 1) % 2)}
		d.Record(0, st, nx)
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
		d := NewDense(n)
		mem := map[uint64][]uint64{}
		oldC, nextC := make([]pcm.State, n), make([]pcm.State, n)
		p, _ := workload.ProfileByName("gcc")
		gen := workload.NewGenerator(p, 128, 5)
		for i := 0; i < 3000; i++ {
			req, _ := gen.Next()
			old, ok := mem[req.Addr]
			if !ok {
				old = make([]uint64, coset.PlaneWords(n))
			}
			next := make([]uint64, len(old))
			codec.EncodeCtrPlanesInto(next, old, req.Addr, 0, &req.New)
			coset.UnpackLine(old, oldC)
			coset.UnpackLine(next, nextC)
			d.Record(req.Addr, oldC, nextC)
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
