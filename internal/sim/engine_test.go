package sim

import (
	"reflect"
	"strings"
	"testing"

	"wlcrc/internal/memsys"
	"wlcrc/internal/trace"
	"wlcrc/internal/workload"
)

// fixedTrace records a deterministic finite trace from a synthetic
// profile so every engine run in a test replays the exact same stream.
func fixedTrace(t *testing.T, profile string, footprint, n int, seed uint64) *trace.SliceSource {
	t.Helper()
	p, ok := workload.ProfileByName(profile)
	if !ok {
		t.Fatalf("unknown profile %q", profile)
	}
	return trace.Record(workload.NewGenerator(p, footprint, seed), n)
}

// engineSchemes is the cross-section of scheme families the determinism
// tests replay: plain differential write, full-line cosets, a
// compression-gated scheme and the paper's headline configuration.
var engineSchemeNames = []string{"Baseline", "6cosets", "COC+4cosets", "WLCRC-16"}

// TestEngineBitIdenticalAcrossWorkerCounts is the core determinism
// guarantee: the merged metrics of a parallel run must equal the serial
// (Workers=1) run of the same engine exactly — floats bit-for-bit — in
// every accounting mode.
func TestEngineBitIdenticalAcrossWorkerCounts(t *testing.T) {
	modes := map[string]func(*Options){
		"deterministic": func(o *Options) {},
		"sampled":       func(o *Options) { o.SampleDisturb = true; o.Seed = 42 },
		"vnr":           func(o *Options) { o.InjectFaults = true; o.Seed = 7 },
	}
	for name, tweak := range modes {
		t.Run(name, func(t *testing.T) {
			src := fixedTrace(t, "gcc", 512, 3000, 11)
			baseline := engineRun(t, src, 1, tweak)
			for _, workers := range []int{2, 3, 4, 8} {
				src.Rewind()
				got := engineRun(t, src, workers, tweak)
				if !reflect.DeepEqual(baseline, got) {
					t.Errorf("workers=%d metrics differ from serial run:\nserial:   %+v\nparallel: %+v",
						workers, baseline, got)
				}
			}
		})
	}
}

func engineRun(t *testing.T, src *trace.SliceSource, workers int, tweak func(*Options)) []Metrics {
	t.Helper()
	src.Rewind()
	opts := DefaultOptions()
	opts.Workers = workers
	tweak(&opts)
	e := NewEngine(opts, schemesForTest(t, engineSchemeNames...)...)
	if err := e.Run(src, 0); err != nil {
		t.Fatal(err)
	}
	return e.Metrics()
}

// TestEngineWarmupResetMetrics mirrors the experiment harness's warm-up
// flow: warm up, reset metrics, measure — and must still be
// worker-count independent.
func TestEngineWarmupResetMetrics(t *testing.T) {
	run := func(workers int) []Metrics {
		src := fixedTrace(t, "lesl", 256, 2000, 9)
		opts := DefaultOptions()
		opts.Workers = workers
		e := NewEngine(opts, schemesForTest(t, "Baseline", "WLCRC-16")...)
		if err := e.Run(src, 1000); err != nil {
			t.Fatal(err)
		}
		e.ResetMetrics()
		if err := e.Run(src, 0); err != nil {
			t.Fatal(err)
		}
		return e.Metrics()
	}
	serial := run(1)
	parallel := run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("warmed-up metrics differ:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	if serial[0].Writes != 1000 {
		t.Errorf("post-warmup writes = %d, want 1000", serial[0].Writes)
	}
}

// TestEngineVerifyErrorDeterministic checks that a decode failure is
// reported identically for every worker count: the engine must surface
// the globally-first failing request no matter which worker detects it.
// (Metrics after an error cover an unspecified prefix — see Run — so
// only the error is compared.)
func TestEngineVerifyErrorDeterministic(t *testing.T) {
	run := func(workers int) string {
		src := fixedTrace(t, "gcc", 128, 500, 3)
		opts := DefaultOptions()
		opts.Workers = workers
		e := NewEngine(opts, brokenScheme{})
		err := e.Run(src, 0)
		if err == nil {
			t.Fatal("broken scheme did not surface a decode error")
		}
		if !strings.Contains(err.Error(), "decode mismatch") {
			t.Fatalf("err = %v, want decode mismatch", err)
		}
		return err.Error()
	}
	serialErr := run(1)
	for _, workers := range []int{2, 8} {
		for round := 0; round < 3; round++ {
			if gotErr := run(workers); gotErr != serialErr {
				t.Errorf("workers=%d reported %q, serial reported %q", workers, gotErr, serialErr)
			}
		}
	}
}

// TestEngineGeometry checks shard-count plumbing: the engine must adopt
// the Table II bank count by default and honor an explicit geometry.
func TestEngineGeometry(t *testing.T) {
	e := NewEngine(DefaultOptions(), schemesForTest(t, "Baseline")...)
	if want := memsys.TableII().Banks(); e.Banks() != want {
		t.Errorf("default banks = %d, want %d", e.Banks(), want)
	}
	if e.Workers() < 1 {
		t.Errorf("resolved workers = %d, want >= 1", e.Workers())
	}
	opts := DefaultOptions()
	opts.Geometry = memsys.Config{Channels: 1, DIMMsPerChan: 1, BanksPerDIMM: 4, WriteQueueCap: 8, DrainThreshold: 0.8}
	e = NewEngine(opts, schemesForTest(t, "Baseline")...)
	if e.Banks() != 4 {
		t.Errorf("explicit banks = %d, want 4", e.Banks())
	}

	// A different bank count regroups float sums, but worker-count
	// independence must hold for any geometry.
	src := fixedTrace(t, "sopl", 256, 1500, 21)
	runWith := func(workers int) []Metrics {
		src.Rewind()
		o := opts
		o.Workers = workers
		e := NewEngine(o, schemesForTest(t, "Baseline", "WLCRC-16")...)
		if err := e.Run(src, 0); err != nil {
			t.Fatal(err)
		}
		return e.Metrics()
	}
	if !reflect.DeepEqual(runWith(1), runWith(4)) {
		t.Error("4-bank geometry not worker-count independent")
	}
}

// TestEngineMetricsForAndReset covers MetricsFor and Reset.
func TestEngineMetricsForAndReset(t *testing.T) {
	src := fixedTrace(t, "libq", 64, 300, 1)
	e := NewEngine(DefaultOptions(), schemesForTest(t, "Baseline", "WLCRC-16")...)
	if err := e.Run(src, 0); err != nil {
		t.Fatal(err)
	}
	m, ok := e.MetricsFor("WLCRC-16")
	if !ok || m.Writes != 300 {
		t.Errorf("MetricsFor(WLCRC-16) = %+v, %v", m, ok)
	}
	if _, ok := e.MetricsFor("nope"); ok {
		t.Error("MetricsFor(nope) succeeded")
	}
	e.Reset()
	if m, _ := e.MetricsFor("Baseline"); m.Writes != 0 || m.Energy.Energy() != 0 {
		t.Errorf("Reset did not clear metrics: %+v", m)
	}
}

// TestEngineRunMaxLimit pins the max-request contract at the default
// worker count.
func TestEngineRunMaxLimit(t *testing.T) {
	p, _ := workload.ProfileByName("mcf")
	e := NewEngine(DefaultOptions(), schemesForTest(t, "Baseline")...)
	if err := e.Run(workload.NewGenerator(p, 128, 2), 100); err != nil {
		t.Fatal(err)
	}
	if m := e.Metrics()[0]; m.Writes != 100 {
		t.Errorf("writes = %d, want 100", m.Writes)
	}
}
