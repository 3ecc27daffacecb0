package sim

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"wlcrc/internal/fault"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
	"wlcrc/internal/prng"
	"wlcrc/internal/trace"
)

// faultTestTrace returns a deterministic trace plus the expected final
// content of every written address (the read-back oracle).
func faultTestTrace(t *testing.T, profile string, footprint, n int, seed uint64) (*trace.SliceSource, map[uint64]*memline.Line) {
	t.Helper()
	src := fixedTrace(t, profile, footprint, n, seed)
	final := map[uint64]*memline.Line{}
	for i := range src.Reqs {
		final[src.Reqs[i].Addr] = &src.Reqs[i].New
	}
	return src, final
}

// checkReadBack reads every written address back through its owning
// shard's controller read path, for every scheme, and compares it
// bit-exactly against the last write — the fault pipeline's end-to-end
// recoverability contract.
func checkReadBack(t *testing.T, e *Engine, final map[uint64]*memline.Line) {
	t.Helper()
	for i := range e.schemes {
		var got memline.Line
		for addr, want := range final {
			u := e.lineShard(i, addr)
			ok, err := u.readLine(addr, &got)
			if err != nil {
				t.Fatalf("%s: read %#x: %v", u.scheme.Name(), addr, err)
			}
			if !ok {
				t.Fatalf("%s: addr %#x not resident", u.scheme.Name(), addr)
			}
			if !got.Equal(want) {
				t.Fatalf("%s: addr %#x reads back wrong content", u.scheme.Name(), addr)
			}
		}
	}
}

// TestFaultRepairWithinECCBudget is the first acceptance scenario: with
// static stuck cells within the per-line ECC budget, the run completes
// clean (no uncorrectable writes, no degradation) and every line reads
// back bit-exactly through the recovery path. Baseline has no candidate
// freedom, so its repairs exercise the ECC; the coset schemes also
// exercise the stuck-aware re-encode retry.
func TestFaultRepairWithinECCBudget(t *testing.T) {
	src, final := faultTestTrace(t, "gcc", 32, 800, 17)
	opts := DefaultOptions()
	opts.Faults = fault.Config{
		Enabled: true,
		ECCBits: 8, // 4 interleaved ways
		Static:  fault.RandomStatic(9, 24, 32),
	}
	s := newSerialEngine(opts, schemesForTest(t, "Baseline", "6cosets", "WLCRC-16")...)
	if err := s.Run(src, 0); err != nil {
		t.Fatal(err)
	}
	sawRetry, sawECC := false, false
	for _, m := range s.Metrics() {
		f := m.Faults
		if f.StuckCells == 0 || f.Detected == 0 {
			t.Errorf("%s: fault pipeline never engaged: %+v", m.Scheme, f)
		}
		if f.Uncorrectable != 0 {
			t.Errorf("%s: %d uncorrectable writes within budget", m.Scheme, f.Uncorrectable)
		}
		if m.DecodeErrors != 0 {
			t.Errorf("%s: %d decode errors", m.Scheme, m.DecodeErrors)
		}
		sawRetry = sawRetry || f.RetriedOK > 0
		sawECC = sawECC || f.CorrectedWrites > 0
		t.Logf("%-10s stuck %d, detected %d, retriedOK %d, ECC-corrected %d (%d bits), retired %d",
			m.Scheme, f.StuckCells, f.Detected, f.RetriedOK, f.CorrectedWrites, f.CorrectedBits, f.RetiredLines)
	}
	if !sawRetry || !sawECC {
		t.Errorf("repair recourses not both exercised: retry=%v ecc=%v", sawRetry, sawECC)
	}
	checkReadBack(t, s, final)
}

// TestFaultRetireBeyondBudget is the second acceptance scenario: a line
// with more stuck cells than the ECC can absorb retires to a spare, its
// traffic replays onto the remap, and reads stay bit-exact.
func TestFaultRetireBeyondBudget(t *testing.T) {
	src, final := faultTestTrace(t, "mcf", 8, 200, 3)
	static := make([]fault.StuckCell, 0, 6)
	for c := 0; c < 6; c++ { // six worst-case cells on one hot line
		static = append(static, fault.StuckCell{Addr: 2, Cell: 40 * c, State: 3})
	}
	opts := DefaultOptions()
	opts.Faults = fault.Config{
		Enabled:            true,
		ECCBits:            2, // one way: at most one fully-stuck cell
		SpareLines:         4,
		MaxRetiredFraction: 1,
		Static:             static,
	}
	s := newSerialEngine(opts, schemesForTest(t, "Baseline", "WLCRC-16")...)
	if err := s.Run(src, 0); err != nil {
		t.Fatal(err)
	}
	for _, m := range s.Metrics() {
		f := m.Faults
		if f.RetiredLines == 0 || f.FirstRetireSeq == 0 {
			t.Errorf("%s: overloaded line never retired: %+v", m.Scheme, f)
		}
		if f.RemapHits == 0 {
			t.Errorf("%s: no traffic replayed onto the remapped line", m.Scheme)
		}
		if f.Uncorrectable != 0 {
			t.Errorf("%s: %d uncorrectable despite spare pool", m.Scheme, f.Uncorrectable)
		}
	}
	checkReadBack(t, s, final)
}

// TestFaultFailFastVsGraceful pins the two failure semantics over the
// same wear-out collapse: a one-spare pool and single-cycle endurance
// exhaust recoverability mid-trace. FailFast aborts at the first
// uncorrectable write; graceful mode replays the whole trace and
// reports the collapse as a *DegradedError carrying complete metrics.
func TestFaultFailFastVsGraceful(t *testing.T) {
	r := prng.New(77)
	reqs := make([]trace.Request, 60)
	for i := range reqs {
		var ws [memline.LineWords]uint64
		for w := range ws {
			ws[w] = r.Uint64()
		}
		reqs[i] = trace.Request{Addr: uint64(i % 2), New: memline.FromWords(ws)}
	}
	cfg := fault.Config{
		Enabled:       true,
		CellEndurance: 1,
		ECCBits:       2,
		SpareLines:    1,
		// MaxRetiredFraction left at the 0.25 default: with 2 touched
		// lines and 1 retirement the fraction alone crosses it too.
	}

	opts := DefaultOptions()
	opts.Faults = cfg
	opts.FailFast = true
	s := newSerialEngine(opts, schemesForTest(t, "Baseline")...)
	err := s.Run(&trace.SliceSource{Reqs: reqs}, 0)
	if err == nil || !strings.Contains(err.Error(), "uncorrectable stuck-at fault") {
		t.Fatalf("FailFast err = %v, want uncorrectable abort", err)
	}
	if w := s.Metrics()[0].Writes; w == 0 || w >= len(reqs) {
		t.Errorf("FailFast replayed %d writes, want a strict prefix", w)
	}

	opts.FailFast = false
	s = newSerialEngine(opts, schemesForTest(t, "Baseline")...)
	err = s.Run(&trace.SliceSource{Reqs: reqs}, 0)
	var de *DegradedError
	if !errors.As(err, &de) {
		t.Fatalf("graceful err = %v, want *DegradedError", err)
	}
	if len(de.Schemes) != 1 || de.Schemes[0] != "Baseline" {
		t.Errorf("degraded schemes = %v", de.Schemes)
	}
	if de.Threshold != 0.25 {
		t.Errorf("threshold = %v, want resolved default 0.25", de.Threshold)
	}
	m := s.Metrics()[0]
	if m.Writes != len(reqs) {
		t.Errorf("graceful mode replayed %d writes, want the full trace %d", m.Writes, len(reqs))
	}
	if m.Faults.Uncorrectable == 0 {
		t.Errorf("graceful run recorded no uncorrectable writes: %+v", m.Faults)
	}
	if len(de.Metrics) != 1 || de.Metrics[0].Writes != m.Writes {
		t.Errorf("DegradedError metrics incomplete: %+v", de.Metrics)
	}
}

// TestFaultBelowThresholdNoError covers the healthy-degradation
// boundary: retirements below MaxRetiredFraction and zero uncorrectable
// writes must not error.
func TestFaultBelowThresholdNoError(t *testing.T) {
	src, _ := faultTestTrace(t, "gcc", 64, 600, 29)
	var static []fault.StuckCell
	for addr := uint64(0); addr < 4; addr++ {
		for c := 0; c < 3; c++ { // three worst-case cells: beyond a 1-way ECC
			static = append(static, fault.StuckCell{Addr: addr, Cell: 50 * (c + 1), State: 3})
		}
	}
	opts := DefaultOptions()
	opts.Faults = fault.Config{
		Enabled:            true,
		ECCBits:            2,
		SpareLines:         32,
		MaxRetiredFraction: 0.9,
		Static:             static,
	}
	s := newSerialEngine(opts, schemesForTest(t, "Baseline")...)
	if err := s.Run(src, 0); err != nil {
		t.Fatalf("run below threshold errored: %v", err)
	}
	f := s.Metrics()[0].Faults
	if f.RetiredLines == 0 {
		t.Fatal("overloaded static lines never retired; threshold boundary untested")
	}
	if frac := f.RetiredFraction(); frac > 0.9 {
		t.Fatalf("retired fraction %v above configured threshold yet no error", frac)
	}
}

// cancelAfterSource cancels a context after serving n requests, then
// keeps serving — modeling an external cancellation racing a long
// replay.
type cancelAfterSource struct {
	src    trace.Source
	n      int
	served int
	cancel context.CancelFunc
}

func (c *cancelAfterSource) Next() (trace.Request, bool) {
	if c.served == c.n {
		c.cancel()
	}
	c.served++
	return c.src.Next()
}

// TestEngineRunContextCancel is the cooperative-cancellation contract:
// a canceled context stops dispatch, drains the workers cleanly, and
// returns ctx.Err() with the merged metrics of the replayed prefix.
func TestEngineRunContextCancel(t *testing.T) {
	const total = 20000
	src := fixedTrace(t, "gcc", 256, total, 13)
	for _, routers := range testRouters {
		for _, workers := range testWorkers {
			ctx, cancel := context.WithCancel(context.Background())
			opts := DefaultOptions()
			opts.Workers = workers
			opts.IngestRouters = routers
			e := NewEngine(opts, schemesForTest(t, "Baseline", "WLCRC-16")...)
			cs := &cancelAfterSource{src: src, n: 500, cancel: cancel}
			err := e.RunContext(ctx, cs, 0)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("routers=%d workers=%d: err = %v, want context.Canceled", routers, workers, err)
			}
			ms := e.Metrics()
			for _, m := range ms {
				if m.Writes == 0 || m.Writes >= total {
					t.Errorf("routers=%d workers=%d: %s replayed %d writes after cancel, want a non-empty strict prefix",
						routers, workers, m.Scheme, m.Writes)
				}
				if m.Writes != ms[0].Writes {
					t.Errorf("routers=%d workers=%d: schemes drained unevenly: %d vs %d writes",
						routers, workers, m.Writes, ms[0].Writes)
				}
			}
			src.Rewind()
		}
	}

	// A context canceled up front never dispatches at all.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := NewEngine(DefaultOptions(), schemesForTest(t, "Baseline")...)
	if err := e.RunContext(ctx, src, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled err = %v", err)
	}
	if w := e.Metrics()[0].Writes; w != 0 {
		t.Errorf("pre-canceled context still replayed %d writes", w)
	}
}

// TestVnRIterationCapFeedsFaultPipeline covers the restore-loop cap
// path: with the cap forced to one iteration on a disturbance-prone
// profile, residual errors survive VnR, and with the fault model on
// they freeze as injected stuck-at cells.
func TestVnRIterationCapFeedsFaultPipeline(t *testing.T) {
	opts := DefaultOptions()
	opts.InjectFaults = true
	opts.Seed = 11
	opts.MaxVnRIterations = 1
	opts.Faults = fault.Config{Enabled: true, ECCBits: 8, MaxRetiredFraction: 1}
	opts.FailFast = false
	s := newSerialEngine(opts, schemesForTest(t, "Baseline")...)
	src, _ := faultTestTrace(t, "lesl", 128, 2000, 9)
	err := s.Run(src, 0)
	var de *DegradedError
	if err != nil && !errors.As(err, &de) {
		t.Fatal(err)
	}
	m := s.Metrics()[0]
	if m.VnR.MaxIterations != 1 {
		t.Errorf("MaxIterations = %d, want the forced cap 1", m.VnR.MaxIterations)
	}
	if m.VnR.Residual == 0 {
		t.Fatal("iteration cap never left residual errors; cap path untested")
	}
	if m.Faults.InjectedStuck == 0 {
		t.Errorf("residuals did not feed the fault pipeline: %+v", m.Faults)
	}
	if m.Faults.InjectedStuck > m.VnR.Residual {
		t.Errorf("injected %d stuck cells from %d residuals", m.Faults.InjectedStuck, m.VnR.Residual)
	}
}

// TestVnRResidualsMatchScalarOracle holds the plane-mask VnR to its
// cell-vector reference on the residual path the matrix modes do not
// reach: with the restore cap at one iteration and the fault model on,
// residual hits freeze as stuck cells, are classified through the ECC,
// and then steer the later writes' repair — metrics, retired lines and
// the run error must be DeepEqual to the scalar oracle's. Besides Table
// II it runs a model under which S2 cells are disturbable too, so a hit
// on a cell already in S2 needs no restore.
func TestVnRResidualsMatchScalarOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		dm   pcm.DisturbModel
	}{
		{"tableII", pcm.DefaultDisturb()},
		{"S2-disturbable", pcm.DisturbModel{DER: [pcm.NumStates]float64{0.2, 0.15, 0.25, 0.1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Disturb = tc.dm
			opts.InjectFaults = true
			opts.Seed = 11
			opts.MaxVnRIterations = 1
			opts.TrackWear = true
			opts.Workers = 1
			opts.Geometry = serialGeometry()
			opts.Faults = fault.Config{Enabled: true, ECCBits: 4, SpareLines: 2, MaxRetiredFraction: 1}
			names := []string{"Baseline", "WLCRC-16", "6cosets", "VCC-4"}
			src, _ := faultTestTrace(t, "lesl", 128, 2000, 9)
			e := NewEngine(opts, schemesForTest(t, names...)...)
			planeErr := e.Run(src, 0)
			src.Rewind()
			o := newScalarOracle(opts, schemesForTest(t, names...)...)
			oracleErr := o.Run(src)
			for _, err := range []error{planeErr, oracleErr} {
				if err != nil && !errors.As(err, new(*DegradedError)) {
					t.Fatal(err)
				}
			}
			planeMetrics, oracleMetrics := e.Metrics(), o.e.Metrics()
			for i := range planeMetrics {
				if planeMetrics[i].VnR.Residual == 0 || planeMetrics[i].Faults.InjectedStuck == 0 {
					t.Errorf("%s: residual injection never fired: %+v %+v", names[i], planeMetrics[i].VnR, planeMetrics[i].Faults)
				}
				if !reflect.DeepEqual(planeMetrics[i], oracleMetrics[i]) {
					t.Errorf("%s: plane Metrics differ from the scalar oracle:\nplanes: %+v\noracle: %+v",
						names[i], planeMetrics[i], oracleMetrics[i])
				}
			}
			if !reflect.DeepEqual(e.RetiredLines(), o.e.RetiredLines()) {
				t.Errorf("retired-line sets differ:\nplanes: %v\noracle: %v", e.RetiredLines(), o.e.RetiredLines())
			}
			if !reflect.DeepEqual(planeErr, oracleErr) {
				t.Errorf("run errors differ:\nplanes: %v\noracle: %v", planeErr, oracleErr)
			}
		})
	}
}

// TestVnRIterationCapWithoutFaultModel pins the pre-existing behavior:
// residuals are counted but nothing is injected when the fault model is
// off.
func TestVnRIterationCapWithoutFaultModel(t *testing.T) {
	opts := DefaultOptions()
	opts.InjectFaults = true
	opts.Seed = 11
	opts.MaxVnRIterations = 1
	s := newSerialEngine(opts, schemesForTest(t, "Baseline")...)
	src, _ := faultTestTrace(t, "lesl", 128, 2000, 9)
	if err := s.Run(src, 0); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()[0]
	if m.VnR.Residual == 0 {
		t.Fatal("no residuals at cap 1")
	}
	if m.Faults.InjectedStuck != 0 || m.Faults.StuckCells != 0 {
		t.Errorf("fault stats touched with the model off: %+v", m.Faults)
	}
}

// TestRetiredLinesMergesInterleavedUnits retires a few thousand
// addresses spread over every routing unit, so each unit's sorted list
// interleaves with the others, and checks the merged per-scheme sets
// come back complete and sorted.
func TestRetiredLinesMergesInterleavedUnits(t *testing.T) {
	const lines = 4000
	opts := DefaultOptions()
	opts.Geometry = determinismGeometry()
	opts.Faults = fault.Config{Enabled: true, SpareLines: lines, MaxRetiredFraction: 1}
	e := NewEngine(opts, schemesForTest(t, "Baseline", "DIN")...)
	if e.units < 2 {
		t.Fatalf("geometry has %d routing units; the test needs several", e.units)
	}
	for i := range e.schemes {
		// Retire in descending order so no unit's list starts sorted by
		// insertion.
		for a := uint64(lines); a > 0; a-- {
			addr := (a - 1) * 3
			if !e.shards[i*e.units+e.routeOf(addr)].fm.Retire(addr, nil, addr) {
				t.Fatalf("scheme %d: spare pool exhausted at %d", i, addr)
			}
		}
	}
	for i, got := range e.RetiredLines() {
		if len(got) != lines {
			t.Fatalf("scheme %d: %d retired lines, want %d", i, len(got), lines)
		}
		for k, addr := range got {
			if addr != uint64(k)*3 {
				t.Fatalf("scheme %d: retired[%d] = %d, want %d", i, k, addr, k*3)
			}
		}
	}
}

// TestFaultDisabledEngineCarriesNoFaultState pins the fault model's
// zero cost when disabled, at the engine layer: an engine built with
// Faults off gives no shard a fault map or any of its repair scratch,
// builds a wear recorder only when TrackWear asks for one, and settles
// a warmed routed batch through an engine-built shard at 0 allocs/op.
// The leaks it names (fault state built unconditionally, wear tracking
// created without TrackWear, an allocation on the fault-free settle
// path) show here as a structural fact, independent of wall-clock
// noise.
func TestFaultDisabledEngineCarriesNoFaultState(t *testing.T) {
	src := fixedTrace(t, "gcc", 256, 2000, 5)
	for _, trackWear := range []bool{false, true} {
		opts := DefaultOptions()
		opts.Verify = false
		opts.Workers = 2
		opts.TrackWear = trackWear
		e := NewEngine(opts, schemesForTest(t, "Baseline", "WLCRC-16", "VCC-4")...)
		if err := e.Run(src, 0); err != nil {
			t.Fatal(err)
		}
		for _, u := range e.shards {
			name := u.scheme.Name()
			if u.fm != nil || u.encodeStuck != nil || u.cellsOld != nil || u.cellsNew != nil {
				t.Errorf("TrackWear=%v %s: fault-disabled shard carries fault state", trackWear, name)
			}
			if got := u.wear != nil; got != trackWear {
				t.Errorf("TrackWear=%v %s: wear recorder built = %v", trackWear, name, got)
			}
		}
		for i := range e.schemes {
			u := e.lineShard(i, src.Reqs[0].Addr)
			var rs []routedReq
			for k, req := range src.Reqs {
				if e.lineShard(i, req.Addr) == u {
					rs = append(rs, routedReq{seq: uint64(k), addr: req.Addr, data: req.New})
				}
			}
			avg := testing.AllocsPerRun(10, func() {
				if _, err := u.applyRun(rs); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Errorf("TrackWear=%v %s: fault-disabled settle allocates %.2f objects/batch, want 0",
					trackWear, u.scheme.Name(), avg)
			}
		}
	}
}
