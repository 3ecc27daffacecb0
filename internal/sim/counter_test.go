package sim

import (
	"reflect"
	"testing"

	"wlcrc/internal/core"
	"wlcrc/internal/trace"
	"wlcrc/internal/workload"
)

// counterSchemeNames are the counter-keyed (encrypted-PCM) schemes the
// integration tests replay alongside the raw encrypted write.
var counterSchemeNames = []string{"Baseline", "Enc(Baseline)", "Enc(WLCRC-16)", "VCC-2", "VCC-4", "VCC-8"}

// encryptedTrace records a deterministic counter-mode encrypted stream.
func encryptedTrace(t *testing.T, n int) *trace.SliceSource {
	t.Helper()
	p, ok := workload.ProfileByName("gcc")
	if !ok {
		t.Fatal("gcc profile missing")
	}
	return trace.Record(workload.Encrypted(workload.NewGenerator(p, 256, 13), 0), n)
}

// TestEngineCounterSchemesBitIdenticalAcrossWorkers extends the
// engine's determinism guarantee to counter-keyed schemes: the per-line
// write counters live in the bank shards, and because one address
// always replays in trace order on one shard, metrics must stay
// bit-identical for every worker count — with Verify on, so every write
// also round-trips through decrypt.
func TestEngineCounterSchemesBitIdenticalAcrossWorkers(t *testing.T) {
	src := encryptedTrace(t, 2500)
	run := func(workers int) []Metrics {
		src.Rewind()
		opts := DefaultOptions() // Verify on
		opts.Workers = workers
		e := NewEngine(opts, schemesForTest(t, counterSchemeNames...)...)
		if err := e.Run(src, 0); err != nil {
			t.Fatal(err)
		}
		return e.Metrics()
	}
	baseline := run(1)
	for _, m := range baseline {
		if m.DecodeErrors != 0 {
			t.Fatalf("%s: %d decode errors", m.Scheme, m.DecodeErrors)
		}
	}
	for _, workers := range []int{2, 4, 7} {
		if got := run(workers); !reflect.DeepEqual(baseline, got) {
			t.Errorf("workers=%d metrics differ from serial run", workers)
		}
	}
}

// TestCompressionGateCollapsesOnEncryptedStream is the acceptance
// criterion of the encrypted scenario: on a counter-mode encrypted
// workload the compression-gated WLCRC baseline falls back to raw on
// essentially every write, while every VCC-n scheme still decodes
// bit-exactly and programs less energy and fewer cells than the raw
// encrypted write.
func TestCompressionGateCollapsesOnEncryptedStream(t *testing.T) {
	src := encryptedTrace(t, 3000)
	names := []string{"Baseline", "WLCRC-16", "VCC-2", "VCC-4", "VCC-8"}
	e := NewEngine(DefaultOptions(), schemesForTest(t, names...)...)
	if err := e.Run(src, 0); err != nil {
		t.Fatal(err)
	}
	byName := map[string]Metrics{}
	for _, m := range e.Metrics() {
		if m.DecodeErrors != 0 {
			t.Fatalf("%s: %d decode errors on encrypted stream", m.Scheme, m.DecodeErrors)
		}
		byName[m.Scheme] = m
	}
	if f := byName["WLCRC-16"].CompressedFraction(); f > 0.001 {
		t.Errorf("WLCRC-16 compressed %.4f of encrypted writes, want ~0", f)
	}
	raw := byName["Baseline"]
	for _, n := range []string{"VCC-2", "VCC-4", "VCC-8"} {
		m := byName[n]
		if m.AvgEnergy() >= raw.AvgEnergy() {
			t.Errorf("%s energy %.0f pJ/write >= raw encrypted write %.0f", n, m.AvgEnergy(), raw.AvgEnergy())
		}
		if m.AvgUpdated() >= raw.AvgUpdated() {
			t.Errorf("%s updated %.1f cells/write >= raw encrypted write %.1f", n, m.AvgUpdated(), raw.AvgUpdated())
		}
	}
	// The recovery must be substantial for the larger candidate pools.
	if e8 := byName["VCC-8"].AvgEnergy(); e8 > 0.88*raw.AvgEnergy() {
		t.Errorf("VCC-8 energy %.0f recovers <12%% of the raw encrypted write %.0f", e8, raw.AvgEnergy())
	}
}

// TestShardCounterAdvances pins the counter-store semantics: one
// slot-indexed counter per address beside the arena, starting at 1,
// incrementing per write, surviving resetMetrics but not reset. Only
// counter-keyed schemes get a counter store.
func TestShardCounterAdvances(t *testing.T) {
	opts := DefaultOptions()
	for _, name := range append(allocSchemes, "Enc(WLCRC-16)") {
		sch, err := core.NewScheme(name, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		u := newShard(&opts, sch, nil, nil)
		if got, keyed := u.lineCtrs != nil, core.UsesCounters(sch); got != keyed {
			t.Errorf("%s: counter store present = %v, UsesCounters = %v", name, got, keyed)
		}
	}
	sch, err := core.NewScheme("VCC-4", core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	u := newShard(&opts, sch, nil, nil)
	rs := routedBatch(encryptedTrace(t, 1).Reqs)
	addr := rs[0].req.Addr
	ctr := func() uint64 {
		slot, ok := u.arena.Lookup(addr)
		if !ok {
			return 0
		}
		return u.lineCtrs[slot]
	}
	for i := 1; i <= 3; i++ {
		if err := applyOne(u, rs, 0); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if got := ctr(); got != uint64(i) {
			t.Fatalf("after write %d: counter = %d", i, got)
		}
	}
	u.resetMetrics()
	if got := ctr(); got != 3 {
		t.Errorf("resetMetrics cleared the counter store (ctr=%d)", got)
	}
	u.reset()
	if got := ctr(); got != 0 {
		t.Errorf("reset kept the counter store (ctr=%d)", got)
	}
	if len(u.lineCtrs) != 0 {
		t.Errorf("reset kept %d slot counters", len(u.lineCtrs))
	}
}
