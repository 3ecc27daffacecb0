package sim

import (
	"testing"

	"wlcrc/internal/core"
	"wlcrc/internal/fault"
	"wlcrc/internal/trace"
	"wlcrc/internal/workload"
)

// allocSchemes is every evaluation scheme plus the remaining WLCRC
// granularities and the VCC family — the full set whose steady-state
// replay must be allocation-free. The Enc(...) wrapper is exempt: its
// ciphertext staging line cycles through a sync.Pool, which is
// allocation-free in steady state but may refill after a GC, so it has
// no hard zero-alloc guarantee to assert.
var allocSchemes = []string{
	"Baseline", "FlipMin", "FNW", "DIN", "6cosets", "COC+4cosets",
	"WLC+4cosets", "WLC+3cosets",
	"WLCRC-8", "WLCRC-16", "WLCRC-32", "WLCRC-64",
	"VCC-2", "VCC-4", "VCC-8",
}

// allocFixture builds a shard and a warmed routed request set: every
// address has been written once, so the measured loop only exercises
// the steady-state rewrite path.
func allocFixture(t *testing.T, name string, opts Options) (*shard, []routedReq) {
	t.Helper()
	sch, err := core.NewScheme(name, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if opts.MaxVnRIterations == 0 {
		opts.MaxVnRIterations = 16
	}
	u := newShard(&opts, sch, nil, nil)
	p, ok := workload.ProfileByName("gcc")
	if !ok {
		t.Fatal("gcc profile missing")
	}
	rs := routedBatch(trace.Record(workload.NewGenerator(p, 64, 11), 256).Reqs)
	for i := range rs {
		if err := applyOne(u, rs, i); err != nil {
			t.Fatal(err)
		}
	}
	return u, rs
}

// routedBatch wraps requests as one routed unit-batch, sequence-numbered
// in order, for tests that drive the engine's batch-encode entry point
// (shard.applyRun) directly.
func routedBatch(reqs []trace.Request) []routedReq {
	rs := make([]routedReq, len(reqs))
	for i := range reqs {
		rs[i] = routedReq{seq: uint64(i), req: reqs[i]}
	}
	return rs
}

// applyOne replays request i (mod len(rs)) as a one-request run — the
// per-request form of the batch entry point.
func applyOne(u *shard, rs []routedReq, i int) error {
	k := i % len(rs)
	_, err := u.applyRun(rs[k : k+1])
	return err
}

// TestSteadyStateApplyZeroAllocs is the PR's acceptance criterion: with
// deterministic disturbance accounting and Verify off, replaying a
// warmed address space performs zero heap allocations per request, for
// every scheme.
func TestSteadyStateApplyZeroAllocs(t *testing.T) {
	for _, name := range allocSchemes {
		t.Run(name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Verify = false
			u, rs := allocFixture(t, name, opts)
			i := 0
			avg := testing.AllocsPerRun(200, func() {
				if err := applyOne(u, rs, i); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if avg != 0 {
				t.Errorf("%s: steady-state apply allocates %.2f objects/op, want 0", name, avg)
			}
		})
	}
}

// TestSteadyStateApplyZeroAllocsWear extends the guarantee to dense
// wear tracking: once a line has a wear slot, recording its programmed
// cells is pure array increments.
func TestSteadyStateApplyZeroAllocsWear(t *testing.T) {
	for _, name := range []string{"Baseline", "WLCRC-16"} {
		t.Run(name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Verify = false
			opts.TrackWear = true
			u, rs := allocFixture(t, name, opts)
			i := 0
			avg := testing.AllocsPerRun(200, func() {
				if err := applyOne(u, rs, i); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if avg != 0 {
				t.Errorf("%s: wear-tracking apply allocates %.2f objects/op, want 0", name, avg)
			}
			if u.wear.Summary().MaxCellWear == 0 {
				t.Errorf("%s: wear not recorded", name)
			}
		})
	}
}

// TestSteadyStateApplyRunZeroAllocs pins the batch-encode path: after a
// warm-up pass has grown the run buffers (the job slices, the spare
// plane stack) to their steady-state capacity, replaying whole routed batches
// through applyRun must allocate nothing — with Verify off and on, for
// every scheme. This is the path every Engine worker runs, so it is the
// pipeline's real zero-alloc guarantee.
func TestSteadyStateApplyRunZeroAllocs(t *testing.T) {
	for _, verify := range []bool{false, true} {
		name := "verify=off"
		if verify {
			name = "verify=on"
		}
		t.Run(name, func(t *testing.T) {
			for _, scheme := range allocSchemes {
				t.Run(scheme, func(t *testing.T) {
					opts := DefaultOptions()
					opts.Verify = verify
					u, rs := allocFixture(t, scheme, opts)
					// Warm the run buffers themselves (allocFixture warmed
					// with one-request runs only).
					if _, err := u.applyRun(rs); err != nil {
						t.Fatal(err)
					}
					avg := testing.AllocsPerRun(20, func() {
						if _, err := u.applyRun(rs); err != nil {
							t.Fatal(err)
						}
					})
					if avg != 0 {
						t.Errorf("%s: steady-state applyRun allocates %.2f objects/batch, want 0",
							scheme, avg)
					}
				})
			}
		})
	}
}

// TestSteadyStateApplyZeroAllocsStuckRepair extends the zero-alloc
// guarantee to the fault pipeline on arena storage: with static stuck
// cells live in the written footprint — so writes keep hitting the
// detection, retry and ECC paths — warmed replay must still allocate
// nothing. Endurance wear-out stays off to keep the stuck set (and
// hence the parity store) fixed after warm-up.
func TestSteadyStateApplyZeroAllocsStuckRepair(t *testing.T) {
	for _, name := range []string{"Baseline", "WLCRC-16", "6cosets"} {
		t.Run(name, func(t *testing.T) {
			sch, err := core.NewScheme(name, core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			cfg := fault.Config{
				Enabled:            true,
				ECCBits:            8,
				SpareLines:         2,
				MaxRetiredFraction: 1,
			}.WithDefaults()
			fm := fault.NewMap(cfg, 99, sch.TotalCells(), fault.NewECC(cfg.ECCBits))
			for _, sc := range fault.RandomStatic(5, 24, 64) {
				fm.SeedStatic(sc)
			}
			opts := DefaultOptions()
			opts.Verify = true
			opts.MaxVnRIterations = 16
			u := newShard(&opts, sch, nil, fm)
			p, ok := workload.ProfileByName("gcc")
			if !ok {
				t.Fatal("gcc profile missing")
			}
			rs := routedBatch(trace.Record(workload.NewGenerator(p, 64, 11), 256).Reqs)
			for i := range rs {
				if err := applyOne(u, rs, i); err != nil {
					t.Fatal(err)
				}
			}
			if u.fm.Stats.Detected == 0 {
				t.Fatal("warm-up never hit a stuck cell; the test is not exercising repair")
			}
			i := len(rs)
			avg := testing.AllocsPerRun(200, func() {
				if err := applyOne(u, rs, i); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if avg != 0 {
				t.Errorf("%s: stuck+repair apply allocates %.2f objects/op, want 0", name, avg)
			}
		})
	}
}

// TestSteadyStateApplyZeroAllocsVerify extends the guarantee to the
// Verify path: decoding every write back through the plane decode must
// not allocate either.
func TestSteadyStateApplyZeroAllocsVerify(t *testing.T) {
	for _, name := range allocSchemes {
		t.Run(name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Verify = true
			u, rs := allocFixture(t, name, opts)
			i := 0
			avg := testing.AllocsPerRun(200, func() {
				if err := applyOne(u, rs, i); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if avg != 0 {
				t.Errorf("%s: verify-on apply allocates %.2f objects/op, want 0", name, avg)
			}
		})
	}
}
