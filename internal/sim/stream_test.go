package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"wlcrc/internal/memsys"
	"wlcrc/internal/trace"
)

// TestEngineRoutedDeterminismWithWear extends the bit-identity guarantee
// to the full streaming feature set: routed dispatch, dense wear
// tracking and per-write histograms must produce byte-identical merged
// metrics for Workers in {1, 2, 7, GOMAXPROCS} — 7 deliberately does not
// divide the 64-bank geometry, so bank ownership wraps unevenly.
func TestEngineRoutedDeterminismWithWear(t *testing.T) {
	src := fixedTrace(t, "gcc", 512, 4000, 11)
	run := func(workers int) []Metrics {
		src.Rewind()
		opts := DefaultOptions()
		opts.Workers = workers
		opts.TrackWear = true
		e := NewEngine(opts, schemesForTest(t, engineSchemeNames...)...)
		if err := e.Run(src, 0); err != nil {
			t.Fatal(err)
		}
		return e.Metrics()
	}
	baseline := run(1)
	if baseline[0].Wear.Writes != 4000 || baseline[0].Wear.MaxCellWear == 0 {
		t.Fatalf("wear not tracked: %+v", baseline[0].Wear)
	}
	if baseline[0].EnergyHist.N != 4000 || baseline[0].UpdatedHist.N != 4000 {
		t.Fatalf("histograms not populated: energy N=%d updated N=%d",
			baseline[0].EnergyHist.N, baseline[0].UpdatedHist.N)
	}
	for _, workers := range []int{2, 7, runtime.GOMAXPROCS(0)} {
		if got := run(workers); !reflect.DeepEqual(baseline, got) {
			t.Errorf("workers=%d metrics differ from serial run", workers)
		}
	}
}

// TestEngineSnapshotDuringRun hammers Snapshot from a second goroutine
// while Run is executing (the -race CI job is the real assertion here)
// and checks the online invariants: per-scheme Writes never decreases
// across snapshots, never exceeds the trace length, and the final
// snapshot agrees exactly with the post-run Metrics.
func TestEngineSnapshotDuringRun(t *testing.T) {
	const total = 20000
	src := fixedTrace(t, "gcc", 512, total, 3)
	opts := DefaultOptions()
	opts.Workers = 4
	opts.TrackWear = true
	e := NewEngine(opts, schemesForTest(t, "Baseline", "WLCRC-16")...)
	done := make(chan error, 1)
	go func() { done <- e.Run(src, 0) }()

	last := make([]int, 2)
	snaps := 0
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if snaps == 0 {
				t.Log("run finished before the first snapshot; invariants vacuous")
			}
			if !reflect.DeepEqual(e.Snapshot(), e.Metrics()) {
				t.Error("post-run Snapshot differs from Metrics")
			}
			return
		default:
		}
		snap := e.Snapshot()
		snaps++
		for i, m := range snap {
			if m.Writes < last[i] {
				t.Fatalf("scheme %d Writes went backwards: %d -> %d", i, last[i], m.Writes)
			}
			if m.Writes > total {
				t.Fatalf("scheme %d Writes = %d exceeds trace length %d", i, m.Writes, total)
			}
			if m.Wear.Writes != uint64(m.Writes) {
				t.Fatalf("scheme %d wear writes %d inconsistent with %d writes "+
					"(publish must copy atomically)", i, m.Wear.Writes, m.Writes)
			}
			last[i] = m.Writes
		}
	}
}

// TestEngineSnapshotWhileIdle checks Snapshot outside a Run: fresh
// engines report zeroed metrics, finished engines the final state.
func TestEngineSnapshotWhileIdle(t *testing.T) {
	e := NewEngine(DefaultOptions(), schemesForTest(t, "Baseline")...)
	snap := e.Snapshot()
	if snap[0].Writes != 0 || snap[0].Scheme != "Baseline" {
		t.Errorf("fresh snapshot = %+v", snap[0])
	}
	src := fixedTrace(t, "libq", 64, 300, 1)
	if err := e.Run(src, 0); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e.Snapshot(), e.Metrics()) {
		t.Error("idle Snapshot differs from Metrics after Run")
	}
	e.ResetMetrics()
	if snap := e.Snapshot(); snap[0].Writes != 0 {
		t.Errorf("Snapshot after ResetMetrics = %+v", snap[0])
	}
}

// TestDispatcherSteadyStateAllocs asserts the pooled routed dispatcher
// runs allocation-free at steady state: after a warm-up Run has filled
// the shard memory, a whole second Run on the prefilled chunk pool
// amortizes to (near) zero allocations per request — only the fixed
// per-Run setup (channels, router and worker goroutines, per-router
// and per-worker scratch) remains.
func TestDispatcherSteadyStateAllocs(t *testing.T) {
	const reqs = 8192
	src := fixedTrace(t, "gcc", 256, reqs, 13)
	for _, routers := range testRouters {
		for _, workers := range testWorkers {
			t.Run(fmt.Sprintf("routers=%d/workers=%d", routers, workers), func(t *testing.T) {
				opts := DefaultOptions()
				opts.Verify = false
				opts.Workers = workers
				opts.IngestRouters = routers
				e := NewEngine(opts, schemesForTest(t, "Baseline")...)
				src.Rewind()
				if err := e.Run(src, 0); err != nil { // warm up memory, pools, histograms
					t.Fatal(err)
				}
				allocs := testing.AllocsPerRun(1, func() {
					src.Rewind()
					if err := e.Run(src, 0); err != nil {
						t.Fatal(err)
					}
				})
				if perReq := allocs / reqs; perReq > 0.01 {
					t.Errorf("dispatcher allocates %.4f objects per request (%.0f per run), want ~0",
						perReq, allocs)
				}
			})
		}
	}
}

// gatedSource serves a recorded trace through the plain Source
// interface and runs wait just before handing out its last request.
type gatedSource struct {
	src  *trace.SliceSource
	left int
	wait func()
}

func (g *gatedSource) Next() (trace.Request, bool) {
	if g.left == 1 {
		g.wait()
	}
	g.left--
	return g.src.Next()
}

// TestWorkerStartsBeforeSourceDrains checks that the workers apply
// requests while the source is still being read, on a fig8-gcc-shaped
// stream: one worker, one router and ~47 requests per routing unit
// (12 000 requests over a 4096-line footprint and 256 units). The
// source holds back its last request until a Snapshot reports writes.
// If none appear within a few seconds it gives up and releases the
// source, and the test fails instead of hanging.
func TestWorkerStartsBeforeSourceDrains(t *testing.T) {
	const total = 12000
	opts := DefaultOptions()
	opts.Workers = 1
	opts.IngestRouters = 1
	e := NewEngine(opts, schemesForTest(t, "Baseline")...)
	started := false
	src := &gatedSource{src: fixedTrace(t, "gcc", 4096, total, 1), left: total}
	src.wait = func() {
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
			if e.Snapshot()[0].Writes > 0 {
				started = true
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	if err := e.Run(src, 0); err != nil {
		t.Fatal(err)
	}
	if !started {
		t.Error("no write was applied before the source's last request was read: the worker waited for the whole stream")
	}
	if got := e.Metrics()[0].Writes; got != total {
		t.Errorf("writes = %d, want %d", got, total)
	}
}

// TestEngineProgressCallback drives the dispatcher with a zero-interval
// progress hook and checks the stream of reports: monotone dispatched
// counts, sane queue depths, and a terminal Done report carrying the
// full request count.
func TestEngineProgressCallback(t *testing.T) {
	const total = 5000
	var calls, doneCalls int
	var lastDispatched uint64
	opts := DefaultOptions()
	opts.Workers = 2
	opts.ProgressInterval = time.Nanosecond
	opts.Progress = func(p Progress) {
		calls++
		if p.Dispatched < lastDispatched {
			t.Errorf("dispatched went backwards: %d -> %d", lastDispatched, p.Dispatched)
		}
		lastDispatched = p.Dispatched
		if len(p.QueueDepth) != 2 {
			t.Errorf("queue depth len = %d, want workers=2", len(p.QueueDepth))
		}
		if p.Done {
			doneCalls++
			if p.Dispatched != total {
				t.Errorf("final report dispatched = %d, want %d", p.Dispatched, total)
			}
			for w, d := range p.QueueDepth {
				if d != 0 {
					t.Errorf("final report queue[%d] = %d, want drained", w, d)
				}
			}
			if p.Rate() <= 0 {
				t.Errorf("final rate = %v, want > 0", p.Rate())
			}
		}
	}
	e := NewEngine(opts, schemesForTest(t, "Baseline")...)
	if err := e.Run(fixedTrace(t, "gcc", 256, total, 7), 0); err != nil {
		t.Fatal(err)
	}
	if doneCalls != 1 {
		t.Errorf("done reports = %d, want exactly 1", doneCalls)
	}
	if calls < 2 { // at least one mid-run tick (5000 > ingestChunkCap) + final
		t.Errorf("progress calls = %d, want >= 2", calls)
	}
}

// TestEngineProgressNotCalledWhenUnset guards the hot path: without a
// callback the dispatcher must not consult the clock (proxy: nothing
// blows up and results match a progress-enabled run).
func TestEngineProgressNotCalledWhenUnset(t *testing.T) {
	src := fixedTrace(t, "mcf", 128, 2500, 9)
	run := func(withProgress bool) []Metrics {
		src.Rewind()
		opts := DefaultOptions()
		opts.Workers = 2
		if withProgress {
			opts.ProgressInterval = time.Nanosecond
			opts.Progress = func(Progress) {}
		}
		e := NewEngine(opts, schemesForTest(t, "Baseline")...)
		if err := e.Run(src, 0); err != nil {
			t.Fatal(err)
		}
		return e.Metrics()
	}
	if !reflect.DeepEqual(run(false), run(true)) {
		t.Error("progress callback changed results")
	}
}

// TestEngineWorkersCappedAtUnits: a (bank, sub-shard) unit is the
// routing unit, so the resolved worker count caps at banks x sub-shards
// — not at the bank count, which used to be the (silent) ceiling.
func TestEngineWorkersCappedAtUnits(t *testing.T) {
	opts := DefaultOptions()
	opts.Workers = 64
	opts.Geometry = memsys.Config{Channels: 1, DIMMsPerChan: 1, BanksPerDIMM: 4,
		WriteQueueCap: 8, DrainThreshold: 0.8}
	e := NewEngine(opts, schemesForTest(t, "Baseline")...)
	units := 4 * memsys.DefaultSubShards
	if e.Units() != units {
		t.Fatalf("units = %d, want %d (4 banks x %d sub-shards)",
			e.Units(), units, memsys.DefaultSubShards)
	}
	if e.Workers() != units {
		t.Errorf("workers = %d, want capped at %d units (4 banks is no longer the cap)",
			e.Workers(), units)
	}
	if err := e.Run(fixedTrace(t, "gcc", 64, 500, 5), 0); err != nil {
		t.Fatal(err)
	}
	if m := e.Metrics()[0]; m.Writes != 500 {
		t.Errorf("writes = %d, want 500", m.Writes)
	}
}

// TestEngineWorkersBeyondBanksEngage is the regression test for the old
// silent cap: with Workers above the bank count, more than `banks`
// goroutines must actually process requests — sub-bank sharding has to
// spread the work, not just resolve to a bigger number.
func TestEngineWorkersBeyondBanksEngage(t *testing.T) {
	const banks, workers = 2, 6
	opts := DefaultOptions()
	opts.Workers = workers
	opts.Geometry = memsys.Config{Channels: 1, DIMMsPerChan: 1, BanksPerDIMM: banks,
		WriteQueueCap: 8, DrainThreshold: 0.8}
	e := NewEngine(opts, schemesForTest(t, "Baseline")...)
	if e.Workers() != workers {
		t.Fatalf("workers = %d, want %d (units = %d)", e.Workers(), workers, e.Units())
	}
	if err := e.Run(fixedTrace(t, "gcc", 256, 4000, 17), 0); err != nil {
		t.Fatal(err)
	}
	engaged := 0
	var total uint64
	for w, n := range e.workerReqs {
		if n > 0 {
			engaged++
		}
		total += n
		t.Logf("worker %d applied %d requests", w, n)
	}
	if total != 4000 {
		t.Errorf("workers applied %d requests total, want 4000", total)
	}
	if engaged <= banks {
		t.Errorf("only %d workers engaged, want more than the %d banks", engaged, banks)
	}
}

// TestEngineWearWarmupReset mirrors the experiment harness flow with
// wear on: warm-up wear must not leak into measured metrics, and the
// measured wear must still be worker-count independent.
func TestEngineWearWarmupReset(t *testing.T) {
	run := func(workers int) []Metrics {
		src := fixedTrace(t, "lesl", 256, 2000, 9)
		opts := DefaultOptions()
		opts.Workers = workers
		opts.TrackWear = true
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
	if got := serial[0].Wear.Writes; got != 1000 {
		t.Errorf("post-warmup wear writes = %d, want 1000", got)
	}
	if serial[0].Wear.MaxCellWear == 0 {
		t.Error("post-warmup wear empty")
	}
	if !reflect.DeepEqual(serial, run(7)) {
		t.Error("warmed-up wear metrics differ across worker counts")
	}
}

// TestEngineSnapshotConcurrencyStress is a dedicated -race workout:
// several goroutines snapshot concurrently while the engine replays,
// with wear and sampling enabled to cover every published field.
func TestEngineSnapshotConcurrencyStress(t *testing.T) {
	src := fixedTrace(t, "sopl", 256, 8000, 21)
	opts := DefaultOptions()
	opts.Workers = 4
	opts.TrackWear = true
	opts.SampleDisturb = true
	opts.Seed = 42
	e := NewEngine(opts, schemesForTest(t, "Baseline", "6cosets")...)
	var stop atomic.Bool
	snapDone := make(chan struct{})
	for g := 0; g < 3; g++ {
		go func() {
			defer func() { snapDone <- struct{}{} }()
			for !stop.Load() {
				_ = e.Snapshot()
			}
		}()
	}
	err := e.Run(src, 0)
	stop.Store(true)
	for g := 0; g < 3; g++ {
		<-snapDone
	}
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e.Snapshot(), e.Metrics()) {
		t.Error("final snapshot differs from metrics")
	}
}
