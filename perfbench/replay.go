package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"wlcrc/internal/core"
	"wlcrc/internal/sim"
	"wlcrc/internal/trace"
	"wlcrc/internal/workload"
)

// libWorkload describes a library replay workload: which stream, which
// schemes, how the engine runs it.
type libWorkload struct {
	profile   string
	schemes   []string
	headline  string // the scheme whose pJ and cells per write are reported
	workers   int
	ingest    int // sim.Options.IngestRouters
	footprint int // lines; 0 = the profile's default
	reqs      int // trace requests per pass
	encrypted bool
	mapped    bool // replay from a trace file through trace.OpenMapped
}

// probeReqs bounds how many of a pass's requests the layer probes use.
const probeReqs = 2048

// librarySpec returns the named library workload, at smoke-test size
// when tiny.
func librarySpec(name string, tiny bool) libWorkload {
	pick := func(full, small int) int {
		if tiny {
			return small
		}
		return full
	}
	switch name {
	case "fig8-gcc":
		return libWorkload{profile: "gcc", schemes: core.EvaluationSchemes(), headline: "WLCRC-16",
			workers: 1, ingest: -1, footprint: 4096, reqs: pick(12000, 600)}
	case "mapped-baseline":
		return libWorkload{profile: "gcc", schemes: []string{"Baseline"}, headline: "Baseline",
			workers: 2, ingest: 0, footprint: pick(1<<20, 8192), reqs: pick(600000, 20000), mapped: true}
	case "encrypted-vcc":
		return libWorkload{profile: "gcc", schemes: []string{"VCC-2", "VCC-4", "VCC-8", "Enc(WLCRC-16)"},
			headline: "VCC-8", workers: 1, ingest: -1, footprint: 4096, reqs: pick(12000, 600), encrypted: true}
	}
	panic("perfbench: no library workload " + name)
}

// rewinder is a finite trace source that can be replayed again.
type rewinder interface {
	trace.Source
	Rewind()
}

// replayEnv is a library workload's inputs and system, built by setup.
type replayEnv struct {
	w       libWorkload
	seed    uint64
	src     rewinder
	n       int
	schemes []core.Scheme
	// sample is the first probeReqs requests of the replayed stream and
	// plain their plaintext (the same requests unless encrypted).
	sample, plain []trace.Request
	path          string              // the trace file (mapped only)
	mapped        *trace.MappedSource // (mapped only)
	genNs         float64             // Generator.NextBatch ns per request
	encNs         float64             // encryption ns per request (encrypted only)
	writeNs       float64             // Writer.Write ns per request (mapped only)
}

func (e *replayEnv) close() {
	if e.mapped != nil {
		e.mapped.Close()
		os.Remove(e.path)
	}
}

// setupLibrary builds a workload's inputs and system: it generates the
// stream, records it in memory or writes and maps it as a trace file,
// and constructs the schemes. tag names the trace file.
func setupLibrary(w libWorkload, seed uint64, dir string, tag int) (*replayEnv, error) {
	prof, ok := workload.ProfileByName(w.profile)
	if !ok {
		return nil, fmt.Errorf("no workload profile %q", w.profile)
	}
	e := &replayEnv{w: w, seed: seed, n: w.reqs}
	gen := workload.NewGenerator(prof, w.footprint, seed)
	var genD, encD, writeD time.Duration
	if w.mapped {
		e.path = filepath.Join(dir, fmt.Sprintf("trace-%d.wlct", tag))
		f, err := os.Create(e.path)
		if err != nil {
			return nil, err
		}
		tw, err := trace.NewWriter(f)
		if err != nil {
			f.Close()
			return nil, err
		}
		buf := make([]trace.Request, 512)
		for left := w.reqs; left > 0; {
			k := min(len(buf), left)
			t0 := time.Now()
			gen.NextBatch(buf[:k])
			t1 := time.Now()
			for i := range buf[:k] {
				if err := tw.Write(buf[i]); err != nil {
					f.Close()
					return nil, err
				}
			}
			writeD += time.Since(t1)
			genD += t1.Sub(t0)
			left -= k
		}
		if err := tw.Close(); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		ms, err := trace.OpenMapped(e.path)
		if err != nil {
			return nil, err
		}
		e.src, e.mapped = ms, ms
		e.sample = make([]trace.Request, min(probeReqs, w.reqs))
		e.sample = e.sample[:ms.NextBatch(e.sample)]
		ms.Rewind()
		e.plain = e.sample
	} else {
		reqs := make([]trace.Request, w.reqs)
		t0 := time.Now()
		for i := 0; i < len(reqs); i += 512 {
			gen.NextBatch(reqs[i:min(i+512, len(reqs))])
		}
		genD = time.Since(t0)
		plain := &trace.SliceSource{Reqs: reqs}
		e.src = plain
		if w.encrypted {
			t1 := time.Now()
			e.src = trace.Record(workload.Encrypted(plain, 0), w.reqs)
			encD = time.Since(t1)
		}
		e.plain = reqs[:min(probeReqs, len(reqs))]
		e.sample = e.src.(*trace.SliceSource).Reqs[:len(e.plain)]
	}
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(w.reqs) }
	e.genNs, e.encNs, e.writeNs = per(genD), per(encD), per(writeD)
	cfg := core.DefaultConfig()
	for _, name := range w.schemes {
		s, err := core.NewScheme(name, cfg)
		if err != nil {
			return nil, err
		}
		e.schemes = append(e.schemes, s)
	}
	return e, nil
}

// passResult is one timed replay pass: what wlcrc.Replay does,
// NewEngine, then Run over the whole stream, then Metrics.
type passResult struct {
	t0, t1, t2                    time.Time // NewEngine, Run, Metrics start
	newEngine, run, metrics, wall time.Duration
	ms                            []sim.Metrics
	err                           error
	// Traced passes only.
	engineAlloc, runAlloc uint64
	gcCycles              uint32
	gcPause               time.Duration
	runCPU                time.Duration
	reports, fullReports  int
}

// queueCap is the engine's per-worker batch-queue capacity
// (sim's unitChanCap): a Progress report with a worker's queue depth at
// this value means that worker bounds the run.
const queueCap = 16

// pass replays the stream once on workers workers. A traced pass also
// samples allocation, GC and CPU counters and the engine's queue-depth
// reports; their cost is the tracing overhead the traced run reports.
func (e *replayEnv) pass(workers int, traced bool) passResult {
	e.src.Rewind()
	o := sim.DefaultOptions()
	o.Workers = workers
	o.IngestRouters = e.w.ingest
	o.Seed = e.seed
	var p passResult
	var m0, m1, m2 runtime.MemStats
	if traced {
		o.ProgressInterval = time.Millisecond
		o.Progress = func(pr sim.Progress) {
			p.reports++
			for _, d := range pr.QueueDepth {
				if d >= queueCap {
					p.fullReports++
					break
				}
			}
		}
		runtime.ReadMemStats(&m0)
	}
	p.t0 = time.Now()
	eng := sim.NewEngine(o, e.schemes...)
	p.newEngine = time.Since(p.t0)
	var cpu0 time.Duration
	if traced {
		runtime.ReadMemStats(&m1)
		cpu0 = cpuTime()
	}
	p.t1 = time.Now()
	p.err = eng.Run(e.src, 0)
	p.run = time.Since(p.t1)
	if traced {
		p.runCPU = cpuTime() - cpu0
		runtime.ReadMemStats(&m2)
	}
	p.t2 = time.Now()
	p.ms = eng.Metrics()
	p.metrics = time.Since(p.t2)
	p.wall = p.newEngine + p.run + p.metrics
	if traced {
		p.engineAlloc = m1.TotalAlloc - m0.TotalAlloc
		p.runAlloc = m2.TotalAlloc - m1.TotalAlloc
		p.gcCycles = m2.NumGC - m0.NumGC
		p.gcPause = time.Duration(m2.PauseTotalNs - m0.PauseTotalNs)
	}
	return p
}

// checkPass counts one op and fails it when the replay erred, a scheme
// failed to decode what it stored, or the metrics differ from the
// reference (the run's first pass, or a direct replay).
func (r *run) checkPass(what string, ms []sim.Metrics, err error, ref *[]sim.Metrics) {
	r.ops++
	if err != nil {
		r.fail("%s: %v", what, err)
		return
	}
	for _, m := range ms {
		if m.DecodeErrors > 0 {
			r.fail("%s: %s: %d decode errors", what, m.Scheme, m.DecodeErrors)
			return
		}
	}
	if *ref == nil {
		*ref = ms
		return
	}
	if !reflect.DeepEqual(ms, *ref) {
		r.fail("%s: metrics differ from the reference", what)
	}
}

// headline returns the headline scheme's metrics.
func headline(ms []sim.Metrics, scheme string) (sim.Metrics, error) {
	for _, m := range ms {
		if m.Scheme == scheme {
			return m, nil
		}
	}
	return sim.Metrics{}, fmt.Errorf("no metrics for headline scheme %s", scheme)
}

// runLibrary runs a library workload: setup, then replay passes until
// the window closes, with the remaining setup repetitions spread over
// the window.
func runLibrary(r *run) error {
	w := librarySpec(r.cfg.workload, r.cfg.tiny)
	var env *replayEnv
	t, err := timed(func() (err error) {
		env, err = setupLibrary(w, r.cfg.seed, r.cfg.work, 0)
		return err
	})
	if err != nil {
		return err
	}
	defer env.close()
	if r.tr != nil {
		r.traceSetup(env, t)
		return r.traceLibrary(env)
	}
	setup := []float64{t}
	spent := 0.0 // setup seconds inside the window
	again := func() error {
		var e *replayEnv
		t, err := timed(func() (err error) {
			e, err = setupLibrary(w, r.cfg.seed, r.cfg.work, len(setup))
			return err
		})
		if err != nil {
			return err
		}
		e.close()
		setup = append(setup, t)
		spent += t
		return nil
	}
	var ref []sim.Metrics
	var rates, walls []float64
	var total time.Duration
	sched := newSchedule(r.cfg.seconds)
	for i := 0; i < minPasses || sched.open(); i++ {
		if sched.due(len(setup), spent) {
			if err := again(); err != nil {
				return err
			}
		}
		p := env.pass(w.workers, false)
		r.checkPass(fmt.Sprintf("pass %d", i), p.ms, p.err, &ref)
		rates = append(rates, float64(env.n)/p.wall.Seconds())
		walls = append(walls, p.wall.Seconds())
		total += p.wall
	}
	for len(setup) < setupReps {
		if err := again(); err != nil {
			return err
		}
	}
	if ref == nil {
		return fmt.Errorf("no pass succeeded")
	}
	hm, err := headline(ref, w.headline)
	if err != nil {
		return err
	}
	if err := r.checkDigest(ref, w.headline, hm.AvgEnergy(), hm.AvgUpdated()); err != nil {
		return err
	}
	rate := passRate(rates, warmPasses)
	r.set("req_per_s", rate, "1/s")
	r.set("scheme_writes_per_s", rate*float64(len(w.schemes)), "1/s")
	r.set("setup_s", median(setup), "s")
	r.set("pj_per_write", hm.AvgEnergy(), "pJ")
	r.set("cells_per_write", hm.AvgUpdated(), "cells")
	r.note("%d passes of %d requests x %d schemes; fastest pass %.0f req/s; setup median of %d builds; diagnostics, not gated: run-total rate %.0f req/s, pass latency p50 %.4fs p90 %.4fs",
		len(rates), env.n, len(w.schemes), rate, len(setup), float64(env.n*len(rates))/total.Seconds(), median(walls), percentile(walls, 0.9))
	return nil
}

// minPasses is the fewest passes a run makes however short its window.
const minPasses = 3

// warmPasses is how many leading passes the rate estimator drops.
const warmPasses = 1
