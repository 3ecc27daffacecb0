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

// TestEngineCounterSchemesMatchSimulator checks the sharded engine
// against the single-threaded reference for counter-keyed schemes: the
// counter stores are per-frontend, so both must advance identically.
func TestEngineCounterSchemesMatchSimulator(t *testing.T) {
	src := encryptedTrace(t, 1500)
	ref := New(DefaultOptions(), schemesForTest(t, counterSchemeNames...)...)
	if err := ref.Run(src, 0); err != nil {
		t.Fatal(err)
	}
	src.Rewind()
	e := NewEngine(DefaultOptions(), schemesForTest(t, counterSchemeNames...)...)
	if err := e.Run(src, 0); err != nil {
		t.Fatal(err)
	}
	want, got := ref.Metrics(), e.Metrics()
	for i := range want {
		w, g := want[i], got[i]
		if w.Scheme != g.Scheme || w.Writes != g.Writes ||
			w.Energy.UpdatedData != g.Energy.UpdatedData ||
			w.Energy.UpdatedAux != g.Energy.UpdatedAux ||
			w.DecodeErrors != g.DecodeErrors {
			t.Errorf("%s: simulator and engine diverge: %+v vs %+v", w.Scheme, w.Energy, g.Energy)
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

// TestShardCounterAdvances pins the counter-store semantics on both
// line stores: one counter per address (slot-indexed beside the arena,
// addr-keyed on the scalar reference), starting at 1, incrementing per
// write, surviving resetMetrics but not reset.
func TestShardCounterAdvances(t *testing.T) {
	sch, err := core.NewScheme("VCC-4", core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, scalar := range []bool{false, true} {
		opts := DefaultOptions()
		opts.ScalarStorage = scalar
		u := newShard(&opts, sch, nil, nil)
		src := encryptedTrace(t, 1)
		req := src.Reqs[0]
		ctr := func() uint64 {
			if scalar {
				return u.ctrs[req.Addr]
			}
			slot, ok := u.arena.Lookup(req.Addr)
			if !ok {
				return 0
			}
			return u.lineCtrs[slot]
		}
		for i := 1; i <= 3; i++ {
			if err := u.apply(&req, 0); err != nil {
				t.Fatalf("scalar=%v write %d: %v", scalar, i, err)
			}
			if got := ctr(); got != uint64(i) {
				t.Fatalf("scalar=%v after write %d: counter = %d", scalar, i, got)
			}
		}
		u.resetMetrics()
		if got := ctr(); got != 3 {
			t.Errorf("scalar=%v: resetMetrics cleared the counter store (ctr=%d)", scalar, got)
		}
		u.reset()
		if got := ctr(); got != 0 {
			t.Errorf("scalar=%v: reset kept the counter store (ctr=%d)", scalar, got)
		}
		if !scalar && len(u.lineCtrs) != 0 {
			t.Errorf("reset kept %d slot counters", len(u.lineCtrs))
		}
	}
}
