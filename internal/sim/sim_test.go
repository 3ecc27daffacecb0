package sim

import (
	"math"
	"strings"
	"testing"

	"wlcrc/internal/core"
	"wlcrc/internal/memline"
	"wlcrc/internal/memsys"
	"wlcrc/internal/trace"
	"wlcrc/internal/workload"
)

func schemesForTest(t *testing.T, names ...string) []core.Scheme {
	t.Helper()
	cfg := core.DefaultConfig()
	var out []core.Scheme
	for _, n := range names {
		s, err := core.NewScheme(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

// serialGeometry is a single routing unit (one bank, one sub-shard): an
// Engine over it keeps exactly one shard per scheme, covering every
// address, so per-shard resources such as the fault model's spare pool
// are shared by the whole footprint.
func serialGeometry() memsys.Config {
	return memsys.Config{Channels: 1, DIMMsPerChan: 1, BanksPerDIMM: 1, SubShards: 1,
		WriteQueueCap: 8, DrainThreshold: 0.8}
}

// newSerialEngine builds the engine's serial mode (Workers: 1) over
// serialGeometry — the configuration the single-frontend tests replay
// through.
func newSerialEngine(opts Options, schemes ...core.Scheme) *Engine {
	opts.Workers = 1
	opts.Geometry = serialGeometry()
	return NewEngine(opts, schemes...)
}

// lineShard returns scheme i's shard that owns addr.
func (e *Engine) lineShard(i int, addr uint64) *shard {
	return e.shards[i*e.units+e.routeOf(addr)]
}

// TestSimulatorBasicRun replays a short gcc stream on the serial engine
// and checks every scheme's basic accounting.
func TestSimulatorBasicRun(t *testing.T) {
	schemes := schemesForTest(t, "Baseline", "WLCRC-16")
	s := newSerialEngine(DefaultOptions(), schemes...)
	p, _ := workload.ProfileByName("gcc")
	src := &workload.Limited{Src: workload.NewGenerator(p, 256, 1), N: 500}
	if err := s.Run(src, 0); err != nil {
		t.Fatal(err)
	}
	for _, m := range s.Metrics() {
		if m.Writes != 500 {
			t.Errorf("%s: writes = %d", m.Scheme, m.Writes)
		}
		if m.DecodeErrors != 0 {
			t.Errorf("%s: %d decode errors", m.Scheme, m.DecodeErrors)
		}
		if m.AvgEnergy() <= 0 {
			t.Errorf("%s: no energy recorded", m.Scheme)
		}
		if m.AvgUpdated() <= 0 || m.AvgUpdated() > float64(memline.LineCells) {
			t.Errorf("%s: avg updated = %v", m.Scheme, m.AvgUpdated())
		}
	}
}

// TestSimulatorRunMaxLimit pins the max-request contract of the serial
// engine on an infinite generator.
func TestSimulatorRunMaxLimit(t *testing.T) {
	schemes := schemesForTest(t, "Baseline")
	s := newSerialEngine(DefaultOptions(), schemes...)
	p, _ := workload.ProfileByName("mcf")
	if err := s.Run(workload.NewGenerator(p, 128, 2), 100); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics()[0]; m.Writes != 100 {
		t.Errorf("writes = %d, want 100", m.Writes)
	}
}

func TestWLCRCBeatsBaselineOnBenchmarks(t *testing.T) {
	// The headline claim at small scale: WLCRC-16 must use substantially
	// less write energy than the baseline on biased workloads.
	schemes := schemesForTest(t, "Baseline", "WLCRC-16")
	s := newSerialEngine(DefaultOptions(), schemes...)
	for _, name := range []string{"gcc", "mcf", "lesl"} {
		p, _ := workload.ProfileByName(name)
		if err := s.Run(&workload.Limited{Src: workload.NewGenerator(p, 256, 3), N: 800}, 0); err != nil {
			t.Fatal(err)
		}
	}
	base, _ := s.MetricsFor("Baseline")
	wl, _ := s.MetricsFor("WLCRC-16")
	if wl.AvgEnergy() >= base.AvgEnergy()*0.75 {
		t.Errorf("WLCRC-16 avg energy %.0f not clearly below baseline %.0f",
			wl.AvgEnergy(), base.AvgEnergy())
	}
	if wl.CompressedFraction() < 0.8 {
		t.Errorf("WLCRC-16 compressed fraction %.2f, want >= 0.8", wl.CompressedFraction())
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	// A scheme that decodes wrongly must surface as an error.
	s := newSerialEngine(DefaultOptions(), brokenScheme{})
	var req trace.Request
	req.New.SetWord(0, 42)
	err := s.Run(&trace.SliceSource{Reqs: []trace.Request{req}}, 0)
	if err == nil || !strings.Contains(err.Error(), "decode mismatch") {
		t.Fatalf("err = %v, want decode mismatch", err)
	}
}

type brokenScheme struct{ core.Baseline }

func (brokenScheme) Name() string { return "broken" }

// DecodePlanesInto corrupts every decode, so the breakage surfaces on
// the plane path the shard stores lines through.
func (b brokenScheme) DecodePlanesInto(planes []uint64, dst *memline.Line) {
	b.Baseline.DecodePlanesInto(planes, dst)
	dst[0] ^= 0xff
}

func TestDisturbSampledVsExpected(t *testing.T) {
	// Sampled disturbance should be close to expected-value accounting
	// in aggregate.
	p, _ := workload.ProfileByName("zeus")

	exp := newSerialEngine(DefaultOptions(), schemesForTest(t, "Baseline")...)
	if err := exp.Run(&workload.Limited{Src: workload.NewGenerator(p, 256, 4), N: 1500}, 0); err != nil {
		t.Fatal(err)
	}
	optsS := DefaultOptions()
	optsS.SampleDisturb = true
	optsS.Seed = 12345
	smp := newSerialEngine(optsS, schemesForTest(t, "Baseline")...)
	if err := smp.Run(&workload.Limited{Src: workload.NewGenerator(p, 256, 4), N: 1500}, 0); err != nil {
		t.Fatal(err)
	}
	e := exp.Metrics()[0].AvgDisturb()
	g := smp.Metrics()[0].AvgDisturb()
	if e <= 0 {
		t.Fatal("no disturbance recorded")
	}
	if math.Abs(e-g)/e > 0.15 {
		t.Errorf("sampled %.3f vs expected %.3f differ by >15%%", g, e)
	}
}

func TestReset(t *testing.T) {
	s := newSerialEngine(DefaultOptions(), schemesForTest(t, "Baseline")...)
	p, _ := workload.ProfileByName("libq")
	s.Run(&workload.Limited{Src: workload.NewGenerator(p, 64, 5), N: 50}, 0)
	s.Reset()
	if m := s.Metrics()[0]; m.Writes != 0 || m.Energy.Energy() != 0 {
		t.Errorf("Reset did not clear metrics: %+v", m)
	}
}

func TestMetricsForUnknown(t *testing.T) {
	s := newSerialEngine(DefaultOptions(), schemesForTest(t, "Baseline")...)
	if _, ok := s.MetricsFor("nope"); ok {
		t.Error("MetricsFor(nope) succeeded")
	}
}
