// Benchmarks regenerating every table and figure of the paper's
// evaluation (cmd/experiments lists the experiment ids). Each
// BenchmarkFigN replays a scaled-down version of the corresponding
// experiment and reports the figure's headline quantities as custom
// metrics (pJ/write, cells/write, errors/write, coverage %), so
// `go test -bench=. -benchmem` reproduces the paper's series end to end.
// Encode-throughput benchmarks for every scheme follow at the bottom.
package wlcrc_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"wlcrc"
	"wlcrc/internal/benchpair"
	"wlcrc/internal/core"
	"wlcrc/internal/coset"
	"wlcrc/internal/exp"
	"wlcrc/internal/hw"
	"wlcrc/internal/sim"
	"wlcrc/internal/trace"
	"wlcrc/internal/workload"
)

// benchConfig scales experiments down so a full -bench=. pass stays in
// benchmark-friendly territory while preserving the shapes.
func benchConfig() exp.Config {
	cfg := exp.DefaultConfig()
	cfg.WritesPerBenchmark = 400
	cfg.RandomWrites = 600
	cfg.Footprint = 256
	return cfg
}

func BenchmarkFig1Random(b *testing.B) {
	cfg := benchConfig()
	var points []exp.SweepPoint
	for i := 0; i < b.N; i++ {
		points, _ = exp.Figure1(cfg, true)
	}
	report16(b, points)
}

func BenchmarkFig1Biased(b *testing.B) {
	cfg := benchConfig()
	var points []exp.SweepPoint
	for i := 0; i < b.N; i++ {
		points, _ = exp.Figure1(cfg, false)
	}
	report16(b, points)
}

func report16(b *testing.B, points []exp.SweepPoint) {
	for _, p := range points {
		if p.Granularity == 16 {
			b.ReportMetric(p.Total(), "pJ/write@16b")
		}
	}
}

func BenchmarkFig2CosetCandidatesRandom(b *testing.B) {
	cfg := benchConfig()
	var pts map[string][]exp.SweepPoint
	for i := 0; i < b.N; i++ {
		pts, _ = exp.Figure2(cfg)
	}
	b.ReportMetric(pts["6cosets"][1].Total(), "6cosets-pJ@16b")
	b.ReportMetric(pts["4cosets"][1].Total(), "4cosets-pJ@16b")
}

func BenchmarkFig3CosetCandidatesBiased(b *testing.B) {
	cfg := benchConfig()
	var pts map[string][]exp.SweepPoint
	for i := 0; i < b.N; i++ {
		pts, _ = exp.Figure3(cfg)
	}
	b.ReportMetric(pts["6cosets"][1].Total(), "6cosets-pJ@16b")
	b.ReportMetric(pts["4cosets"][1].Total(), "4cosets-pJ@16b")
}

func BenchmarkFig4Compressibility(b *testing.B) {
	cfg := benchConfig()
	var rows []exp.Figure4Row
	for i := 0; i < b.N; i++ {
		rows, _ = exp.Figure4(cfg)
	}
	avg := rows[len(rows)-1]
	b.ReportMetric(100*avg.WLC[6], "WLC6-%")
	b.ReportMetric(100*avg.WLC[9], "WLC9-%")
	b.ReportMetric(100*avg.FPCBDI, "FPC+BDI-%")
	b.ReportMetric(100*avg.COC, "COC-%")
}

func BenchmarkFig5RestrictedCosets(b *testing.B) {
	cfg := benchConfig()
	var pts map[string][]exp.SweepPoint
	for i := 0; i < b.N; i++ {
		pts, _ = exp.Figure5(cfg)
	}
	b.ReportMetric(pts["3-r-cosets"][1].Total(), "3r-pJ@16b")
	b.ReportMetric(pts["4cosets"][1].Total(), "4cosets-pJ@16b")
}

// evalOnce caches the Figure 8/9/10 matrix across the three benches when
// run in the same process.
var evalCache *exp.Evaluation

func evalForBench(b *testing.B) *exp.Evaluation {
	b.Helper()
	if evalCache == nil {
		evalCache = exp.RunEvaluation(benchConfig())
	}
	return evalCache
}

func BenchmarkFig8WriteEnergy(b *testing.B) {
	var e *exp.Evaluation
	for i := 0; i < b.N; i++ {
		evalCache = nil
		e = evalForBench(b)
	}
	b.ReportMetric(e.Average("Baseline", sim.Metrics.AvgEnergy), "Baseline-pJ")
	b.ReportMetric(e.Average("6cosets", sim.Metrics.AvgEnergy), "6cosets-pJ")
	b.ReportMetric(e.Average("WLCRC-16", sim.Metrics.AvgEnergy), "WLCRC16-pJ")
}

func BenchmarkFig9Endurance(b *testing.B) {
	var e *exp.Evaluation
	for i := 0; i < b.N; i++ {
		evalCache = nil
		e = evalForBench(b)
	}
	b.ReportMetric(e.Average("Baseline", sim.Metrics.AvgUpdated), "Baseline-cells")
	b.ReportMetric(e.Average("WLCRC-16", sim.Metrics.AvgUpdated), "WLCRC16-cells")
}

func BenchmarkFig10Disturbance(b *testing.B) {
	var e *exp.Evaluation
	for i := 0; i < b.N; i++ {
		evalCache = nil
		e = evalForBench(b)
	}
	b.ReportMetric(e.Average("DIN", sim.Metrics.AvgDisturb), "DIN-errors")
	b.ReportMetric(e.Average("WLCRC-16", sim.Metrics.AvgDisturb), "WLCRC16-errors")
}

func BenchmarkFig11to13Granularity(b *testing.B) {
	cfg := benchConfig()
	var pts map[string][]exp.SweepPoint
	for i := 0; i < b.N; i++ {
		pts, _ = exp.GranularityStudy(cfg)
	}
	wl := pts["WLCRC"]
	for _, p := range wl {
		b.ReportMetric(p.Total(), fmt.Sprintf("WLCRC%d-pJ", p.Granularity))
	}
}

func BenchmarkFig14EnergyLevels(b *testing.B) {
	cfg := benchConfig()
	var pts []exp.Figure14Point
	for i := 0; i < b.N; i++ {
		pts, _ = exp.Figure14(cfg)
	}
	b.ReportMetric(100*pts[0].Improvement, "imp-583pJ-%")
	b.ReportMetric(100*pts[len(pts)-1].Improvement, "imp-116pJ-%")
}

func BenchmarkMultiObjective(b *testing.B) {
	cfg := benchConfig()
	var res exp.MultiObjectiveResult
	for i := 0; i < b.N; i++ {
		res, _ = exp.MultiObjective(cfg)
	}
	b.ReportMetric(res.PlainUpdated, "plain-cells")
	b.ReportMetric(res.MultiUpdated, "T1%-cells")
}

func BenchmarkAblationEmbedding(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		exp.AblationEmbedding(cfg)
	}
}

func BenchmarkAblationDisturbAware(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		exp.AblationDisturbAware(cfg, []float64{1000})
	}
}

func BenchmarkHWModel(b *testing.B) {
	var rep hw.Report
	for i := 0; i < b.N; i++ {
		rep = hw.Estimate(hw.FreePDK45(), hw.WLCRCDesign())
	}
	b.ReportMetric(rep.AreaMM2*1000, "area-10^-3mm2")
	b.ReportMetric(rep.WriteNS, "write-ns")
}

// Serial-vs-parallel replay benchmarks for the sharded engine: the same
// fixed trace replays through every evaluation scheme with one worker
// and with all CPUs. Results are bit-identical by construction (see
// sim.Engine); only wall-clock changes, reported as writes/s and as the
// parallel-over-serial speedup.

// engineFixture pre-records a deterministic multi-scheme replay load.
func engineFixture(b *testing.B) ([]core.Scheme, *trace.SliceSource) {
	b.Helper()
	cfg := core.DefaultConfig()
	names := []string{"Baseline", "FlipMin", "FNW", "DIN", "6cosets",
		"COC+4cosets", "WLC+4cosets", "WLCRC-16"}
	schemes := make([]core.Scheme, len(names))
	for i, n := range names {
		s, err := core.NewScheme(n, cfg)
		if err != nil {
			b.Fatal(err)
		}
		schemes[i] = s
	}
	p, ok := workload.ProfileByName("gcc")
	if !ok {
		b.Fatal("gcc profile missing")
	}
	return schemes, trace.Record(workload.NewGenerator(p, 1024, 17), 4000)
}

func replayOnce(b *testing.B, schemes []core.Scheme, src *trace.SliceSource, workers int) time.Duration {
	b.Helper()
	src.Rewind()
	opts := sim.DefaultOptions()
	opts.Workers = workers
	e := sim.NewEngine(opts, schemes...)
	start := time.Now()
	if err := e.Run(src, 0); err != nil {
		b.Fatal(err)
	}
	return time.Since(start)
}

func benchReplay(b *testing.B, workers int) {
	schemes, src := engineFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replayOnce(b, schemes, src, workers)
	}
	writes := float64(len(src.Reqs) * len(schemes) * b.N)
	b.ReportMetric(writes/b.Elapsed().Seconds(), "writes/s")
}

func BenchmarkReplaySerial(b *testing.B) { benchReplay(b, 1) }

// BenchmarkReplayParallelScaling replays the fixture at fixed worker
// counts: the scaling curve, with fixed counts (not GOMAXPROCS) so the
// series compares across machines. BenchmarkReplayPaired times the
// ratio the benchguard replay gate reads.
func BenchmarkReplayParallelScaling(b *testing.B) {
	schemes, src := engineFixture(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				replayOnce(b, schemes, src, workers)
			}
			writes := float64(len(src.Reqs) * len(schemes) * b.N)
			b.ReportMetric(writes/b.Elapsed().Seconds(), "writes/s")
		})
	}
}

// BenchmarkReplayPaired is the in-process paired rung of the engine's
// dispatch over the replay fixture: four workers against one, timed
// round-robin (benchpair). It reports the median per-round
// workers=4/workers=1 wall-clock ratio, which a broadcast-style fan-out
// or a lost-parallelism bug drags toward, or past, 1.
func BenchmarkReplayPaired(b *testing.B) {
	schemes, src := engineFixture(b)
	arm := func(workers int) func() { return func() { replayOnce(b, schemes, src, workers) } }
	benchpair.Run(b, 1, benchpair.Pair{Metric: "workers=4/workers=1", Num: arm(4), Den: arm(1)})
}

// BenchmarkReplaySpeedup interleaves serial and parallel replays of the
// same trace and reports their wall-clock ratio ("speedup-x") plus the
// worker count used, the headline number for the parallel engine.
func BenchmarkReplaySpeedup(b *testing.B) {
	schemes, src := engineFixture(b)
	workers := runtime.GOMAXPROCS(0)
	var serial, parallel time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serial += replayOnce(b, schemes, src, 1)
		parallel += replayOnce(b, schemes, src, workers)
	}
	b.ReportMetric(serial.Seconds()/parallel.Seconds(), "speedup-x")
	b.ReportMetric(float64(workers), "workers")
}

// Encode-throughput benchmarks: lines encoded per second for every
// scheme, on a steady-state biased write stream. With the zero-alloc
// codec path, -benchmem must report 0 allocs/op here.
func BenchmarkEncode(b *testing.B) {
	for _, name := range wlcrc.SchemeNames() {
		b.Run(name, func(b *testing.B) {
			mem := wlcrc.NewMemory(wlcrc.MustScheme(name))
			w, err := wlcrc.NewWorkload("gcc", 256, 9)
			if err != nil {
				b.Fatal(err)
			}
			reqs := make([]wlcrc.WriteRequest, 512)
			for i := range reqs {
				reqs[i] = w.Next()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := reqs[i%len(reqs)]
				mem.Write(r.Addr, r.New)
			}
			b.SetBytes(64)
		})
	}
}

// encodePool is the fixture of the line-codec benchmarks: a rotating
// pool of steady-state rewrites of gcc lines, each a warm line already
// stored and the data that overwrites it.
func encodePool(b *testing.B) (warm, data []wlcrc.Line) {
	w, err := wlcrc.NewWorkload("gcc", 64, 9)
	if err != nil {
		b.Fatal(err)
	}
	const pool = 64
	warm = make([]wlcrc.Line, pool)
	data = make([]wlcrc.Line, pool)
	for i := range warm {
		warm[i] = w.Next().New
		data[i] = w.Next().New // the rewrite the loop measures
	}
	return warm, data
}

// planePool encodes the encodePool fixture with the keyed plane codec
// replay stores a scheme's lines through: the warm lines' planes and,
// for each, the planes of its rewrite. Pool line k lives at address k;
// the warm write is its first (ctr 1), the rewrite its second (ctr 2).
func planePool(b *testing.B, name string) (ps core.CounterPlaneScheme, olds, news [][]uint64, data []wlcrc.Line) {
	return schemePool(b, wlcrc.MustScheme(name))
}

// schemePool is planePool for a scheme built under any configuration.
func schemePool(b *testing.B, sch core.Scheme) (ps core.CounterPlaneScheme, olds, news [][]uint64, data []wlcrc.Line) {
	ps = core.CtrPlaneCodec(sch)
	warm, data := encodePool(b)
	n := coset.PlaneWords(sch.TotalCells())
	fresh := make([]uint64, n) // all cells in the initial state
	olds = make([][]uint64, len(warm))
	news = make([][]uint64, len(warm))
	for i := range olds {
		olds[i] = make([]uint64, n)
		news[i] = make([]uint64, n)
		ps.EncodeCtrPlanesInto(olds[i], fresh, uint64(i), 1, &warm[i])
		ps.EncodeCtrPlanesInto(news[i], olds[i], uint64(i), 2, &data[i])
	}
	return ps, olds, news, data
}

// BenchmarkEncodePlanesInto measures the bare codec hot path — the
// keyed plane encode replay runs for every scheme — over a rotating set
// of steady-state (old, data) pairs, no memory map or metrics in the
// loop; allocs/op must be 0 for every scheme. It is a measurement and
// gates nothing: internal/core's BenchmarkEncodePaired gates each scheme's
// encode against its scalar reference.
func BenchmarkEncodePlanesInto(b *testing.B) {
	for _, name := range wlcrc.SchemeNames() {
		b.Run(name, func(b *testing.B) {
			ps, olds, news, data := planePool(b, name)
			dst := news[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(olds)
				ps.EncodeCtrPlanesInto(dst, olds[k], uint64(k), 2, &data[k])
			}
			b.SetBytes(64)
		})
	}
}

// BenchmarkDecodePlanesInto decodes the planes BenchmarkEncodePlanesInto
// writes; allocs/op must be 0.
func BenchmarkDecodePlanesInto(b *testing.B) {
	for _, name := range wlcrc.SchemeNames() {
		b.Run(name, func(b *testing.B) {
			ps, _, news, _ := planePool(b, name)
			var out wlcrc.Line
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(news)
				ps.DecodeCtrPlanesInto(news[k], uint64(k), 2, &out)
			}
			b.SetBytes(64)
		})
	}
}

// BenchmarkLaneKernelPaired is the in-process paired rung of the lane
// kernel (coset.BestBlocks' integer path and WLCRC's integer planner).
// WLCRC-16 and COC+4cosets each run two arms: Table II, which the lane
// kernel prices, and the same energies plus 0.5 pJ on Reset, whose
// fractional write energies send both schemes to the float path. One
// op is one round: every arm encodes the steady-state pool eight times,
// in an order that rotates each round, so both arms of a scheme share
// the machine's state of the moment. The rung reports, per scheme, the
// median over the rounds of that round's lane/float time ratio.
func BenchmarkLaneKernelPaired(b *testing.B) {
	var pairs []benchpair.Pair
	for _, name := range []string{"WLCRC-16", "COC+4cosets"} {
		var arms [2]func() // lane and float arm
		for i, reset := range []float64{0, 0.5} {
			cfg := core.DefaultConfig()
			cfg.Energy.Reset += reset
			sch, err := core.NewScheme(name, cfg)
			if err != nil {
				b.Fatal(err)
			}
			ps, olds, news, data := schemePool(b, sch)
			arms[i] = func() {
				for k := range olds {
					ps.EncodeCtrPlanesInto(news[k], olds[k], uint64(k), 2, &data[k])
				}
			}
		}
		pairs = append(pairs, benchpair.Pair{Metric: name + "-lane/float", Num: arms[0], Den: arms[1]})
	}
	benchpair.Run(b, 8, pairs...) // eight pool passes per arm per round
}
