package sim

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wlcrc/internal/memsys"
	"wlcrc/internal/trace"
)

// testRouters and testWorkers are the Options.IngestRouters and
// Options.Workers values every dispatch test sweeps: a negative router
// count (one router), one router and several, each with one worker and
// with several.
var (
	testRouters = []int{-1, 1, 3}
	testWorkers = []int{1, 4}
)

// nextOnlySource hides SliceSource's NextBatch so a test can force the
// trace.Batched adapter path — the one a legacy Source takes through the
// ingest stage.
type nextOnlySource struct{ src *trace.SliceSource }

func (s nextOnlySource) Next() (trace.Request, bool) { return s.src.Next() }

// ingestTraceFile records a fixed trace to a real on-disk file (so the
// header count is back-patched) and returns its path alongside the
// in-memory SliceSource it was recorded from.
func ingestTraceFile(t *testing.T, n int) (string, *trace.SliceSource) {
	t.Helper()
	src := fixedTrace(t, "gcc", 512, n, 17)
	path := filepath.Join(t.TempDir(), "ingest.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for {
		req, ok := src.Next()
		if !ok {
			break
		}
		if err := w.Write(req); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	src.Rewind()
	return path, src
}

// TestIngestSourceKindsBitIdentical is the acceptance matrix across
// source types: the same trace replayed through a legacy Source (via the
// Batched adapter), a batch-decoding ReaderSource, and a MappedSource
// must produce bit-identical Metrics and Snapshot for every combination
// of worker and ingest-router counts — all equal to the one-worker,
// one-router reference run of the in-memory trace.
func TestIngestSourceKindsBitIdentical(t *testing.T) {
	const n = 3000
	path, slice := ingestTraceFile(t, n)
	sources := map[string]func(t *testing.T) trace.Source{
		"legacy-source": func(t *testing.T) trace.Source {
			slice.Rewind()
			return nextOnlySource{src: slice}
		},
		"batch-source": func(t *testing.T) trace.Source {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Close() })
			r, err := trace.NewReader(f)
			if err != nil {
				t.Fatal(err)
			}
			return &trace.ReaderSource{R: r}
		},
		"mapped-source": func(t *testing.T) trace.Source {
			m, err := trace.OpenMapped(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { m.Close() })
			return m
		},
	}
	run := func(t *testing.T, src trace.Source, workers, ingest int) ([]Metrics, []Metrics) {
		opts := DefaultOptions()
		opts.Workers = workers
		opts.IngestRouters = ingest
		opts.TrackWear = true
		e := NewEngine(opts, schemesForTest(t, engineSchemeNames...)...)
		if want := max(ingest, 1); e.IngestRouters() != want {
			t.Fatalf("IngestRouters() = %d, want %d", e.IngestRouters(), want)
		}
		if err := e.Run(src, 0); err != nil {
			t.Fatal(err)
		}
		return e.Metrics(), e.Snapshot()
	}
	slice.Rewind()
	wantMetrics, wantSnap := run(t, slice, 1, 1)
	if wantMetrics[0].Writes != n {
		t.Fatalf("reference run replayed %d writes, want %d", wantMetrics[0].Writes, n)
	}
	for name, open := range sources {
		t.Run(name, func(t *testing.T) {
			for _, workers := range testWorkers {
				for _, ingest := range testRouters {
					gotMetrics, gotSnap := run(t, open(t), workers, ingest)
					if !reflect.DeepEqual(wantMetrics, gotMetrics) {
						t.Errorf("workers=%d routers=%d: Metrics differ from the reference",
							workers, ingest)
					}
					if !reflect.DeepEqual(wantSnap, gotSnap) {
						t.Errorf("workers=%d routers=%d: Snapshot differs from the reference",
							workers, ingest)
					}
				}
			}
		})
	}
}

// TestIngestRunMaxLimit checks the max-request budget is enforced by the
// chunk reader exactly (the budget is clipped per fill, not rounded to a
// chunk boundary) — including a limit below one chunk and one that does
// not divide the chunk size.
func TestIngestRunMaxLimit(t *testing.T) {
	src := fixedTrace(t, "mcf", 256, 2*ingestChunkCap, 2)
	for _, limit := range []int{100, ingestChunkCap + 37} {
		for _, workers := range testWorkers {
			for _, routers := range testRouters {
				src.Rewind()
				opts := DefaultOptions()
				opts.Workers = workers
				opts.IngestRouters = routers
				e := NewEngine(opts, schemesForTest(t, "Baseline")...)
				if err := e.Run(src, limit); err != nil {
					t.Fatal(err)
				}
				if m := e.Metrics()[0]; m.Writes != limit {
					t.Errorf("max=%d workers=%d routers=%d: writes = %d", limit, workers, routers, m.Writes)
				}
			}
		}
	}
}

// TestIngestVerifyErrorDeterministic is the earliest-failure
// guarantee: with routers racing over chunks, the reported error must
// still be the globally-first failing request, run after run, for every
// router and worker count.
func TestIngestVerifyErrorDeterministic(t *testing.T) {
	run := func(workers, ingest int) string {
		src := fixedTrace(t, "gcc", 128, 500, 3)
		opts := DefaultOptions()
		opts.Workers = workers
		opts.IngestRouters = ingest
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
	serialErr := run(1, 1)
	for _, workers := range []int{1, 2, 4, 8} {
		for _, ingest := range testRouters {
			for round := 0; round < 3; round++ {
				if gotErr := run(workers, ingest); gotErr != serialErr {
					t.Errorf("workers=%d routers=%d reported %q, serial reported %q",
						workers, ingest, gotErr, serialErr)
				}
			}
		}
	}
}

// TestResolveIngestRouters pins the Options.IngestRouters resolution
// rule: negative means one router, zero auto-sizes by CPU count (one
// router on one CPU), positive is taken verbatim — and every resolved
// count is capped at the routing-unit count, so a client-supplied count
// cannot size the chunk pool past it.
func TestResolveIngestRouters(t *testing.T) {
	cases := []struct{ opt, cpus, units, want int }{
		{-1, 1, 256, 1},
		{-1, 8, 256, 1},
		{0, 1, 256, 1},
		{0, 2, 256, 2},
		{0, 16, 256, ingestAutoMax},
		{3, 1, 256, 3},
		{7, 16, 256, 7},
		{1 << 30, 2, 256, 256},
		{1 << 30, 2, 4, 4},
		{5, 2, 4, 4},
		{0, 16, 2, 2},
		{-1, 16, 1, 1},
	}
	for _, c := range cases {
		if got := resolveIngestRouters(c.opt, c.cpus, c.units); got != c.want {
			t.Errorf("resolveIngestRouters(%d, %d, %d) = %d, want %d", c.opt, c.cpus, c.units, got, c.want)
		}
	}
}

// TestEngineIngestRoutersCappedAtUnits checks the cap end to end on a
// 4-unit geometry (4 banks, 1 sub-shard): a request for more routers
// than units resolves to the unit count, and the engine still replays.
// The requested count is kept small, so a broken cap cannot allocate a
// large chunk pool.
func TestEngineIngestRoutersCappedAtUnits(t *testing.T) {
	opts := DefaultOptions()
	opts.Geometry = memsys.Config{Channels: 1, DIMMsPerChan: 1, BanksPerDIMM: 4,
		SubShards: 1, WriteQueueCap: 16, DrainThreshold: 0.8}
	opts.IngestRouters = 64
	e := NewEngine(opts, schemesForTest(t, "Baseline")...)
	if e.Units() != 4 {
		t.Fatalf("units = %d, want 4", e.Units())
	}
	if got := e.IngestRouters(); got != 4 {
		t.Errorf("IngestRouters() = %d, want 4 (capped at the unit count)", got)
	}
	if got := cap(e.freeChunks); got != 2*4+chunkQueueCap+1 {
		t.Errorf("chunk pool = %d, want %d", got, 2*4+chunkQueueCap+1)
	}
	if err := e.Run(fixedTrace(t, "gcc", 256, 3000, 5), 0); err != nil {
		t.Fatal(err)
	}
	if m := e.Metrics()[0]; m.Writes != 3000 {
		t.Errorf("writes = %d, want 3000", m.Writes)
	}
}
