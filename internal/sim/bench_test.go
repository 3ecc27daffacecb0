package sim

// Per-layer replay benchmarks, the bottom two rungs of the ladder the
// root package's replay benchmarks sit on:
//
//	word:   internal/coset BenchmarkSWARBestWord / BenchmarkSWARApplyWord
//	line:   root BenchmarkEncodePlanesInto (codec hot path, no simulation state)
//	shard:  BenchmarkShardApply (this file)
//	engine: BenchmarkEngineRun (this file), root BenchmarkReplaySerial /
//	        BenchmarkReplayParallelScaling (full dispatch pipeline)
//
// Comparing adjacent layers attributes regressions: a shard slowdown
// with flat line cost is accounting overhead; an engine slowdown with
// flat shard cost is dispatch overhead. BenchmarkReplayStoragePaired
// (this file) sets the serial engine against the cell-vector reference
// store of the tests, the line-store gate.

import (
	"fmt"
	"testing"

	"wlcrc/internal/benchpair"
	"wlcrc/internal/core"
	"wlcrc/internal/fault"
	"wlcrc/internal/trace"
	"wlcrc/internal/workload"
)

// BenchmarkShardApply measures the shard layer: one op replays a warmed
// 256-request routed run through touch and applyRun, the calls every
// Engine worker makes, so each request is encoded and settled against its
// line's stored planes. The schemes span the cost spectrum — plain
// differential write, the paper's headline scheme, a counter-keyed
// encrypted scheme — and the vnr case adds fault injection with
// Verify-and-Restore to the headline scheme's settle.
func BenchmarkShardApply(b *testing.B) {
	for _, c := range []struct {
		name, scheme string
		inject       bool
	}{
		{"Baseline", "Baseline", false},
		{"WLCRC-16", "WLCRC-16", false},
		{"VCC-4", "VCC-4", false},
		{"WLCRC-16/vnr", "WLCRC-16", true},
	} {
		b.Run(c.name, func(b *testing.B) {
			opts := DefaultOptions()
			opts.Verify = false
			opts.InjectFaults = c.inject
			u, rs := allocFixture(b, c.scheme, opts)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u.touch(rs)
				if _, err := u.applyRun(rs); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(64 * len(rs)))
		})
	}
}

// BenchmarkEngineRun measures the full engine layer at fixed small
// worker counts on a single-scheme load, isolating dispatch overhead
// from the root package's multi-scheme replay benchmarks. Each worker
// count runs with one and with two ingest router goroutines
// pre-routing the stream; the delta is what a second router buys (or
// costs, on a single-CPU box) at the engine layer.
func BenchmarkEngineRun(b *testing.B) {
	p, ok := workload.ProfileByName("gcc")
	if !ok {
		b.Fatal("gcc profile missing")
	}
	src := trace.Record(workload.NewGenerator(p, 1024, 17), 4000)
	for _, workers := range []int{1, 4} {
		for _, ingest := range []int{1, 2} {
			b.Run(fmt.Sprintf("workers=%d/routers=%d", workers, ingest), func(b *testing.B) {
				opts := DefaultOptions()
				opts.Verify = false
				opts.Workers = workers
				opts.IngestRouters = ingest
				e := NewEngine(opts, schemesForBench(b, "WLCRC-16")...)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					src.Rewind()
					if err := e.Run(src, 0); err != nil {
						b.Fatal(err)
					}
				}
				writes := float64(len(src.Reqs) * b.N)
				b.ReportMetric(writes/b.Elapsed().Seconds(), "writes/s")
			})
		}
	}
}

// BenchmarkEngineRunFaults measures the fault model's replay cost at
// the engine layer on the BenchmarkEngineRun fixture: "off" is the
// fault-free configuration (TestFaultDisabledEngineCarriesNoFaultState
// pins that it builds no fault state and settles without allocating),
// "on" pays for live stuck maps, wear thresholds and repair
// classification.
func BenchmarkEngineRunFaults(b *testing.B) {
	p, ok := workload.ProfileByName("gcc")
	if !ok {
		b.Fatal("gcc profile missing")
	}
	src := trace.Record(workload.NewGenerator(p, 1024, 17), 4000)
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			opts := DefaultOptions()
			opts.Verify = false
			opts.Workers = 4
			opts.IngestRouters = 1
			if mode == "on" {
				opts.Faults = fault.Config{
					Enabled:         true,
					CellEndurance:   1 << 20, // wear tracked, onset never fires
					EnduranceSpread: 0.3,
					Static:          fault.RandomStatic(3, 64, 1024),
				}
			}
			e := NewEngine(opts, schemesForBench(b, "WLCRC-16")...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.Rewind()
				if err := e.Run(src, 0); err != nil {
					b.Fatal(err)
				}
			}
			writes := float64(len(src.Reqs) * b.N)
			b.ReportMetric(writes/b.Elapsed().Seconds(), "writes/s")
		})
	}
}

// BenchmarkReplayStoragePaired replays the root replay benchmarks'
// fixture (the eight Fig. 8 schemes over 4000 gcc writes on a
// 1024-line footprint) serially on both line stores, timed round-robin
// (benchpair): the Engine with Workers: 1 on its plane arena, and the
// cell-vector reference store of the tests (scalarOracle). Results are
// bit-identical (TestScalarStorageBitIdentical); only wall-clock
// changes. The rung reports the median per-round scalar/planes time
// ratio the benchguard arena gate reads, which collapses toward 1 when
// cell-level settle work or map lookups creep back into the replay hot
// path.
func BenchmarkReplayStoragePaired(b *testing.B) {
	p, ok := workload.ProfileByName("gcc")
	if !ok {
		b.Fatal("gcc profile missing")
	}
	src := trace.Record(workload.NewGenerator(p, 1024, 17), 4000)
	schemes := schemesForBench(b, "Baseline", "FlipMin", "FNW", "DIN", "6cosets",
		"COC+4cosets", "WLC+4cosets", "WLCRC-16")
	opts := DefaultOptions()
	opts.Workers = 1
	run := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	benchpair.Run(b, 1, benchpair.Pair{Metric: "scalar/planes",
		Num: func() { src.Rewind(); run(newScalarOracle(opts, schemes...).Run(src)) },
		Den: func() { src.Rewind(); run(NewEngine(opts, schemes...).Run(src, 0)) }})
}

func schemesForBench(b *testing.B, names ...string) []core.Scheme {
	b.Helper()
	out := make([]core.Scheme, len(names))
	for i, n := range names {
		s, err := core.NewScheme(n, core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		out[i] = s
	}
	return out
}
