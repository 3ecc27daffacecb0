package sim

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"wlcrc/internal/fault"
	"wlcrc/internal/memsys"
	"wlcrc/internal/trace"
)

// determinismGeometry is a deliberately small bank array so the worker
// set {banks, banks+1} sits well inside the test's time budget while
// still exercising uneven unit-to-worker wrapping (units = banks x 4
// sub-shards = 32).
func determinismGeometry() memsys.Config {
	return memsys.Config{Channels: 1, DIMMsPerChan: 2, BanksPerDIMM: 4,
		WriteQueueCap: 16, DrainThreshold: 0.8}
}

// determinismWorkerSet is the matrix axis from the sub-bank sharding
// PR: the serial reference, small counts that wrap the units unevenly,
// the bank count itself (the old cap), one past it (the old silent-cap
// regression point), and twice the machine's CPU count.
func determinismWorkerSet(banks int) []int {
	set := []int{1, 2, 3, banks, banks + 1, 2 * runtime.NumCPU()}
	seen := map[int]bool{}
	out := set[:0]
	for _, w := range set {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// TestScalarStorageBitIdentical is the cross-storage leg of the net:
// every matrix mode's trace replayed on the Engine's plane arena and on
// the cell-vector reference store (scalarOracle) must produce DeepEqual
// metrics, wear digests, retired-line sets and errors — including under
// the full stuck-at + repair pipeline, whose plane fast path falls back
// to the cell-level repair encoder on mismatches. The counter-keyed
// schemes ride along in every mode: their slot-indexed counters must
// key every plane encode, Verify decode and repair re-encode exactly as
// the oracle's counter map does.
func TestScalarStorageBitIdentical(t *testing.T) {
	names := append(append([]string(nil), engineSchemeNames...),
		"VCC-2", "VCC-4", "VCC-8", "Enc(WLCRC-16)", "Enc(COC+4cosets)")
	for _, mode := range matrixModes {
		mode.schemes = names
		t.Run(mode.name, func(t *testing.T) {
			src := mode.src(t)
			e, planeErr := matrixRun(t, mode, src, 1, 1)
			src.Rewind()
			o := newScalarOracle(matrixOptions(mode, 1, 1), schemesForTest(t, names...)...)
			oracleErr := o.Run(src)
			if oracleErr != nil && !errors.As(oracleErr, new(*DegradedError)) {
				t.Fatal(oracleErr)
			}
			planeMetrics, oracleMetrics := e.Metrics(), o.e.Metrics()
			if oracleMetrics[0].Writes != 2500 {
				t.Fatalf("oracle replayed %d writes, want 2500", oracleMetrics[0].Writes)
			}
			for i := range planeMetrics {
				if !reflect.DeepEqual(planeMetrics[i], oracleMetrics[i]) {
					t.Errorf("%s: plane-arena Metrics differ from the scalar oracle:\nplanes: %+v\noracle: %+v",
						names[i], planeMetrics[i], oracleMetrics[i])
				}
			}
			if planeRetired, oracleRetired := e.RetiredLines(), o.e.RetiredLines(); !reflect.DeepEqual(planeRetired, oracleRetired) {
				t.Errorf("retired-line sets differ:\nplanes: %v\noracle: %v", planeRetired, oracleRetired)
			}
			if !reflect.DeepEqual(planeErr, oracleErr) {
				t.Errorf("run errors differ:\nplanes: %v\noracle: %v", planeErr, oracleErr)
			}
		})
	}
}

// matrixMode is one accounting mode of the determinism matrix: the
// schemes it replays, its fixed trace and its option tweaks. The golden
// files pin the same modes (golden_test.go).
type matrixMode struct {
	name    string
	schemes []string
	src     func(t *testing.T) *trace.SliceSource
	tweak   func(*Options)
}

// matrixModes covers deterministic accounting, sampled disturbance,
// fault injection + VnR, counter-keyed encrypted replay and the stuck-at
// repair pipeline.
var matrixModes = []matrixMode{
	{
		name:    "deterministic",
		schemes: engineSchemeNames,
		src:     func(t *testing.T) *trace.SliceSource { return fixedTrace(t, "gcc", 512, 2500, 11) },
		tweak:   func(o *Options) {},
	},
	{
		name:    "sampled",
		schemes: engineSchemeNames,
		src:     func(t *testing.T) *trace.SliceSource { return fixedTrace(t, "mcf", 512, 2500, 23) },
		tweak:   func(o *Options) { o.SampleDisturb = true; o.Seed = 42 },
	},
	{
		name:    "faults",
		schemes: engineSchemeNames,
		src:     func(t *testing.T) *trace.SliceSource { return fixedTrace(t, "libq", 512, 2500, 5) },
		tweak:   func(o *Options) { o.InjectFaults = true; o.Seed = 7 },
	},
	{
		name:    "encrypted",
		schemes: []string{"Baseline", "Enc(WLCRC-16)", "VCC-4"},
		src:     func(t *testing.T) *trace.SliceSource { return encryptedTrace(t, 2500) },
		tweak:   func(o *Options) {}, // Verify stays on: every write round-trips decrypt
	},
	{
		// Stuck-at faults plus the whole repair pipeline: tiny
		// endurance so wear onset, retries, ECC corrections,
		// retirements, spare-pool exhaustion and uncorrectable
		// writes all fire mid-trace. Graceful mode replays the full
		// trace, so the run may legitimately end in a *DegradedError
		// — which must itself be DeepEqual-identical across worker
		// counts, like the retired-line sets.
		name:    "stuck+repair",
		schemes: engineSchemeNames,
		src:     func(t *testing.T) *trace.SliceSource { return fixedTrace(t, "gcc", 96, 2500, 31) },
		tweak: func(o *Options) {
			o.Seed = 13
			o.Faults = fault.Config{
				Enabled:            true,
				CellEndurance:      8,
				EnduranceSpread:    0.5,
				ECCBits:            4,
				SpareLines:         4,
				MaxRetiredFraction: 1,
				Static:             fault.RandomStatic(5, 40, 96),
			}
		},
	},
}

// matrixOptions is mode's configuration over the matrix geometry with
// wear tracking on.
func matrixOptions(mode matrixMode, workers, ingest int) Options {
	opts := DefaultOptions()
	opts.Geometry = determinismGeometry()
	opts.Workers = workers
	opts.IngestRouters = ingest
	opts.TrackWear = true
	mode.tweak(&opts)
	return opts
}

// matrixRun replays mode's trace on a fresh engine configured by
// matrixOptions. A *DegradedError is a legitimate
// outcome and is returned; any other error fails the test.
func matrixRun(t *testing.T, mode matrixMode, src *trace.SliceSource, workers, ingest int) (e *Engine, err error) {
	t.Helper()
	src.Rewind()
	e = NewEngine(matrixOptions(mode, workers, ingest), schemesForTest(t, mode.schemes...)...)
	err = e.Run(src, 0)
	if err != nil && !errors.As(err, new(*DegradedError)) {
		t.Fatal(err)
	}
	return e, err
}

// TestEngineDeterminismMatrix is the layered determinism net: for
// every accounting mode (deterministic, sampled disturbance, fault
// injection + VnR, and counter-keyed encrypted replay), every worker
// count in the matrix, and one or several ingest routers, the engine's
// Metrics, post-run Snapshot and wear summaries must be bit-identical —
// reflect.DeepEqual, floats included — to the Workers=1, one-router
// run of the same trace. The -race CI job runs
// this matrix too, so the guarantee is checked under the race detector.
func TestEngineDeterminismMatrix(t *testing.T) {
	banks := determinismGeometry().Banks()
	for _, mode := range matrixModes {
		t.Run(mode.name, func(t *testing.T) {
			src := mode.src(t)
			run := func(workers, ingest int) (metrics, snapshot []Metrics, retired [][]uint64, err error) {
				e, err := matrixRun(t, mode, src, workers, ingest)
				return e.Metrics(), e.Snapshot(), e.RetiredLines(), err
			}
			wantMetrics, wantSnap, wantRetired, wantErr := run(1, 1)
			if wantMetrics[0].Writes != 2500 {
				t.Fatalf("serial run replayed %d writes, want 2500", wantMetrics[0].Writes)
			}
			if wantMetrics[0].Wear.Writes != 2500 || wantMetrics[0].Wear.MaxCellWear == 0 {
				t.Fatalf("serial run wear not tracked: %+v", wantMetrics[0].Wear)
			}
			if !reflect.DeepEqual(wantMetrics, wantSnap) {
				t.Fatal("serial Snapshot differs from Metrics after Run")
			}
			for _, workers := range determinismWorkerSet(banks) {
				for _, ingest := range testRouters {
					if workers == 1 && ingest == 1 {
						continue // the baseline itself
					}
					gotMetrics, gotSnap, gotRetired, gotErr := run(workers, ingest)
					if !reflect.DeepEqual(wantMetrics, gotMetrics) {
						t.Errorf("workers=%d routers=%d: Metrics differ from serial run", workers, ingest)
					}
					if !reflect.DeepEqual(wantSnap, gotSnap) {
						t.Errorf("workers=%d routers=%d: Snapshot differs from serial run", workers, ingest)
					}
					if !reflect.DeepEqual(wantRetired, gotRetired) {
						t.Errorf("workers=%d routers=%d: retired-line sets differ from serial run:\nserial:   %v\nparallel: %v",
							workers, ingest, wantRetired, gotRetired)
					}
					if !reflect.DeepEqual(wantErr, gotErr) {
						t.Errorf("workers=%d routers=%d: run error differs from serial run:\nserial:   %v\nparallel: %v",
							workers, ingest, wantErr, gotErr)
					}
					for i := range wantMetrics {
						if !reflect.DeepEqual(wantMetrics[i].Wear, gotMetrics[i].Wear) {
							t.Errorf("workers=%d routers=%d: %s wear summary differs from serial run",
								workers, ingest, wantMetrics[i].Scheme)
						}
					}
				}
			}
			if mode.name == "stuck+repair" {
				nRetired := 0
				for _, rs := range wantRetired {
					nRetired += len(rs)
				}
				if nRetired == 0 || wantMetrics[0].Faults.WearStuck == 0 {
					t.Errorf("stuck+repair mode exercised no retirements/wear onset: retired %d, %+v",
						nRetired, wantMetrics[0].Faults)
				}
			}
		})
	}
}
