package sim

// Per-layer replay benchmarks, the bottom two rungs of the ladder the
// root package's replay benchmarks sit on:
//
//	word:   internal/coset BenchmarkSWARBestWord / BenchmarkSWARApplyWord
//	line:   root BenchmarkEncodeInto (codec hot path, no simulation state)
//	shard:  BenchmarkShardApply / BenchmarkShardApplyRun (this file)
//	engine: BenchmarkEngineRun (this file), root BenchmarkReplaySerial /
//	        BenchmarkReplayParallelScaling (full dispatch pipeline)
//
// Comparing adjacent layers attributes regressions: a shard slowdown
// with flat line cost is accounting overhead; an engine slowdown with
// flat shard cost is dispatch overhead. BenchmarkReplayStorage (this
// file) sets the serial engine against the cell-vector reference store
// of the tests, the line-store gate.

import (
	"fmt"
	"testing"

	"wlcrc/internal/core"
	"wlcrc/internal/fault"
	"wlcrc/internal/trace"
	"wlcrc/internal/workload"
)

// benchShard builds a warmed shard and routed request set for b,
// mirroring the alloc tests' fixture: every address pre-written once so
// the measured loop is the steady-state rewrite path.
func benchShard(b *testing.B, scheme string, opts Options) (*shard, []routedReq) {
	b.Helper()
	sch, err := core.NewScheme(scheme, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if opts.MaxVnRIterations == 0 {
		opts.MaxVnRIterations = 16
	}
	u := newShard(&opts, sch, nil, nil)
	p, ok := workload.ProfileByName("gcc")
	if !ok {
		b.Fatal("gcc profile missing")
	}
	rs := routedBatch(trace.Record(workload.NewGenerator(p, 64, 11), 256).Reqs)
	for i := range rs {
		if err := applyOne(u, rs, i); err != nil {
			b.Fatal(err)
		}
	}
	return u, rs
}

// benchShardSchemes spans the cost spectrum: plain differential write,
// the paper's headline scheme, and a counter-keyed encrypted scheme.
var benchShardSchemes = []string{"Baseline", "WLCRC-16", "VCC-4"}

// BenchmarkShardApply measures the shard layer one request at a time,
// as one-request runs through the batch entry point.
func BenchmarkShardApply(b *testing.B) {
	for _, scheme := range benchShardSchemes {
		b.Run(scheme, func(b *testing.B) {
			opts := DefaultOptions()
			opts.Verify = false
			u, rs := benchShard(b, scheme, opts)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := applyOne(u, rs, i); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(64)
		})
	}
}

// BenchmarkShardApplyRun measures the same work through the batch-encode
// path the Engine workers run — the delta against BenchmarkShardApply is
// what batching the scheme calls buys at the shard layer.
func BenchmarkShardApplyRun(b *testing.B) {
	for _, scheme := range benchShardSchemes {
		b.Run(scheme, func(b *testing.B) {
			opts := DefaultOptions()
			opts.Verify = false
			u, rs := benchShard(b, scheme, opts)
			if _, err := u.applyRun(rs); err != nil { // warm run buffers
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
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
// count runs with the ingest front-end off (the classic serial
// dispatcher) and with 2 router goroutines pre-routing the stream; the
// delta is what the parallel front-end buys (or costs, on a single-CPU
// box) at the engine layer.
func BenchmarkEngineRun(b *testing.B) {
	p, ok := workload.ProfileByName("gcc")
	if !ok {
		b.Fatal("gcc profile missing")
	}
	src := trace.Record(workload.NewGenerator(p, 1024, 17), 4000)
	for _, workers := range []int{1, 4} {
		for _, ingest := range []int{-1, 2} {
			name := fmt.Sprintf("workers=%d/ingest=off", workers)
			if ingest > 0 {
				name = fmt.Sprintf("workers=%d/ingest=%d", workers, ingest)
			}
			b.Run(name, func(b *testing.B) {
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
// fault-free configuration the benchguard faultfree gate holds
// within 5% of the pre-fault-model engine (the stuck-map check must
// compile out to one nil test per request), "on" pays for live stuck
// maps, wear thresholds and repair classification.
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
			opts.IngestRouters = -1
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

// BenchmarkReplayStorage replays the root replay benchmarks' fixture
// (the eight Fig. 8 schemes over 4000 gcc writes on a 1024-line
// footprint) serially on both line stores: storage=planes is the Engine
// with Workers: 1 on its plane arena, storage=scalar the cell-vector
// reference store of the tests (scalarOracle). Results are
// bit-identical (TestScalarStorageBitIdentical); only wall-clock
// changes. The benchguard arena gate reads the scalar/planes wall-clock ratio —
// a same-box number that is meaningful on any machine, unlike absolute
// times — so a regression that erases the arena's advantage, such as
// cell-level settle work creeping back into the hot loop, fails CI.
func BenchmarkReplayStorage(b *testing.B) {
	p, ok := workload.ProfileByName("gcc")
	if !ok {
		b.Fatal("gcc profile missing")
	}
	src := trace.Record(workload.NewGenerator(p, 1024, 17), 4000)
	schemes := schemesForBench(b, "Baseline", "FlipMin", "FNW", "DIN", "6cosets",
		"COC+4cosets", "WLC+4cosets", "WLCRC-16")
	opts := DefaultOptions()
	opts.Workers = 1
	for _, storage := range []string{"planes", "scalar"} {
		b.Run("storage="+storage, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				src.Rewind()
				var err error
				if storage == "planes" {
					err = NewEngine(opts, schemes...).Run(src, 0)
				} else {
					err = newScalarOracle(opts, schemes...).Run(src)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			writes := float64(len(src.Reqs) * len(schemes) * b.N)
			b.ReportMetric(writes/b.Elapsed().Seconds(), "writes/s")
		})
	}
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
