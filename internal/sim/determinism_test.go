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

// TestEngineDeterminismMatrix is the layered determinism net: for
// every accounting mode (deterministic, sampled disturbance, fault
// injection + VnR, and counter-keyed encrypted replay), every worker
// count in the matrix, and the ingest front-end both off and on, the
// engine's Metrics, post-run Snapshot and wear summaries must be
// bit-identical — reflect.DeepEqual, floats included — to the
// Workers=1, ingest-off run of the same trace. The -race CI job runs
// this matrix too, so the guarantee is checked under the race detector.
// TestScalarStorageBitIdentical is the cross-storage leg of the net:
// the same trace replayed on the plane-native arena and on the
// reference scalar store (Options.ScalarStorage) must produce
// DeepEqual metrics, snapshots, retired-line sets and errors —
// including under the full stuck-at + repair pipeline, whose plane
// fast path falls back to the scalar repair encoder on mismatches.
// The counter-keyed schemes ride along: their slot-indexed counters
// must key every plane encode, Verify decode and repair re-encode
// exactly as the scalar store's counter map does.
func TestScalarStorageBitIdentical(t *testing.T) {
	geo := determinismGeometry()
	names := append(append([]string(nil), engineSchemeNames...),
		"VCC-2", "VCC-8", "Enc(WLCRC-16)", "Enc(COC+4cosets)")
	modes := []struct {
		name  string
		src   func(t *testing.T) *trace.SliceSource
		tweak func(*Options)
	}{
		{
			name:  "deterministic",
			src:   func(t *testing.T) *trace.SliceSource { return fixedTrace(t, "gcc", 512, 2500, 11) },
			tweak: func(o *Options) {},
		},
		{
			name: "stuck+repair",
			src:  func(t *testing.T) *trace.SliceSource { return fixedTrace(t, "gcc", 96, 2500, 31) },
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
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			src := mode.src(t)
			run := func(scalar bool) (metrics []Metrics, retired [][]uint64, err error) {
				src.Rewind()
				opts := DefaultOptions()
				opts.Geometry = geo
				opts.Workers = 1
				opts.TrackWear = true
				opts.ScalarStorage = scalar
				mode.tweak(&opts)
				e := NewEngine(opts, schemesForTest(t, names...)...)
				err = e.Run(src, 0)
				if err != nil && !errors.As(err, new(*DegradedError)) {
					t.Fatal(err)
				}
				return e.Metrics(), e.RetiredLines(), err
			}
			planeMetrics, planeRetired, planeErr := run(false)
			scalarMetrics, scalarRetired, scalarErr := run(true)
			if !reflect.DeepEqual(planeMetrics, scalarMetrics) {
				t.Error("plane-arena Metrics differ from scalar-storage reference")
			}
			if !reflect.DeepEqual(planeRetired, scalarRetired) {
				t.Errorf("retired-line sets differ:\nplanes: %v\nscalar: %v", planeRetired, scalarRetired)
			}
			if !reflect.DeepEqual(planeErr, scalarErr) {
				t.Errorf("run errors differ:\nplanes: %v\nscalar: %v", planeErr, scalarErr)
			}
		})
	}
}

func TestEngineDeterminismMatrix(t *testing.T) {
	geo := determinismGeometry()
	banks := geo.Banks()
	modes := []struct {
		name    string
		schemes []string
		src     func(t *testing.T) *trace.SliceSource
		tweak   func(*Options)
	}{
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
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			src := mode.src(t)
			run := func(workers, ingest int) (metrics, snapshot []Metrics, retired [][]uint64, err error) {
				src.Rewind()
				opts := DefaultOptions()
				opts.Geometry = geo
				opts.Workers = workers
				opts.IngestRouters = ingest
				opts.TrackWear = true
				mode.tweak(&opts)
				e := NewEngine(opts, schemesForTest(t, mode.schemes...)...)
				err = e.Run(src, 0)
				if err != nil && !errors.As(err, new(*DegradedError)) {
					t.Fatal(err)
				}
				return e.Metrics(), e.Snapshot(), e.RetiredLines(), err
			}
			wantMetrics, wantSnap, wantRetired, wantErr := run(1, -1)
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
				for _, ingest := range []int{-1, 2} {
					if workers == 1 && ingest == -1 {
						continue // the baseline itself
					}
					gotMetrics, gotSnap, gotRetired, gotErr := run(workers, ingest)
					if !reflect.DeepEqual(wantMetrics, gotMetrics) {
						t.Errorf("workers=%d ingest=%d: Metrics differ from serial run", workers, ingest)
					}
					if !reflect.DeepEqual(wantSnap, gotSnap) {
						t.Errorf("workers=%d ingest=%d: Snapshot differs from serial run", workers, ingest)
					}
					if !reflect.DeepEqual(wantRetired, gotRetired) {
						t.Errorf("workers=%d ingest=%d: retired-line sets differ from serial run:\nserial:   %v\nparallel: %v",
							workers, ingest, wantRetired, gotRetired)
					}
					if !reflect.DeepEqual(wantErr, gotErr) {
						t.Errorf("workers=%d ingest=%d: run error differs from serial run:\nserial:   %v\nparallel: %v",
							workers, ingest, wantErr, gotErr)
					}
					for i := range wantMetrics {
						if !reflect.DeepEqual(wantMetrics[i].Wear, gotMetrics[i].Wear) {
							t.Errorf("workers=%d ingest=%d: %s wear summary differs from serial run",
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
