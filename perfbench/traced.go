package main

import (
	"fmt"
	"time"

	"wlcrc/internal/jobs"
	"wlcrc/internal/sim"
	"wlcrc/internal/trace"
)

// traceSetup records a setup that took total seconds as spans: the
// setup itself and one child per layer, each aggregating that layer's
// calls (generation and file writes interleave batch by batch, so the
// children are laid end to end here).
func (r *run) traceSetup(env *replayEnv, total float64) {
	at := time.Now()
	root := r.tr.add("setup", "setup", -1, at, time.Duration(total*float64(time.Second)), 1)
	for _, l := range []struct {
		name string
		ns   float64
	}{{"workload", env.genNs}, {"vcc", env.encNs}, {"trace", env.writeNs}} {
		d := time.Duration(l.ns * float64(env.n))
		r.tr.add(l.name, "setup", root, at, d, env.n)
		at = at.Add(d)
	}
}

// traceLibrary is a workload's traced run: the layer ladder on the
// workload's own passes, then the workload submitted as jobs to an
// in-process server, whose results must equal the passes'.
func (r *run) traceLibrary(env *replayEnv) error {
	ref, err := r.traceLayers(env, 0.75)
	if err != nil {
		return err
	}
	svc, err := startService(r.cfg.work + "/store")
	if err != nil {
		return err
	}
	defer svc.close()
	w := env.w
	spec := jobs.Spec{Workload: w.profile, Footprint: w.footprint, Writes: w.reqs, Seed: env.seed,
		Schemes: w.schemes, Workers: w.workers, IngestRouters: w.ingest, Encrypted: w.encrypted}
	if w.mapped {
		spec.Workload, spec.Writes, spec.Trace = "", 0, env.path
	}
	want, err := jsonRoundTrip(ref)
	if err != nil {
		return err
	}
	before := svc.dirBytes()
	samples, errs := jobLoop(svc, r.tr, 3, r.deadline(0.25), spec)
	for i, js := range samples {
		r.checkJob(js, errs[i], want)
	}
	r.serviceLayers(samples, errs, svc.dirBytes()-before)
	r.selfTimes()
	return nil
}

// traceLayers measures the per-layer ladder on env for the given share
// of the run: first the 1- vs 2-worker scaling curve, then untraced and
// traced passes alternately, each traced pass followed by the layer
// probes on the pass's requests. It returns the passes' reference
// metrics.
func (r *run) traceLayers(env *replayEnv, share float64) ([]sim.Metrics, error) {
	var ref []sim.Metrics
	var rate1, rate2, run1 []float64
	dl := r.deadline(share * 0.4)
	for i := 0; i < minPasses || time.Now().Before(dl); i++ {
		for _, workers := range []int{1, 2} {
			p := env.pass(workers, false)
			r.checkPass(fmt.Sprintf("scaling pass %d (%d workers)", i, workers), p.ms, p.err, &ref)
			rate := float64(env.n) / p.wall.Seconds()
			if workers == 1 {
				rate1, run1 = append(rate1, rate), append(run1, p.run.Seconds())
			} else {
				rate2 = append(rate2, rate)
			}
		}
	}
	speedup := passRate(rate2, warmPasses) / passRate(rate1, warmPasses)
	r.note("scaling on a 2-CPU container: 1 worker %.0f req/s, 2 workers %.0f req/s (fastest passes)",
		passRate(rate1, warmPasses), passRate(rate2, warmPasses))

	var all []trace.Request
	if ss, ok := env.src.(*trace.SliceSource); ok {
		all = ss.Reqs
	}
	probe, imageWriteNs, err := newLayerProbe(env.sample, env.plain, env.mapped, all)
	if err != nil {
		return nil, err
	}
	var untraced, traced, newEng, engAlloc, runS, metS, runAlloc, cpuWall, gcN, gcMs []float64
	var reports, full int
	var probes []probeResult
	dl = r.deadline(share * 0.6)
	for i := 0; i < minPasses || time.Now().Before(dl); i++ {
		p := env.pass(env.w.workers, false)
		r.checkPass(fmt.Sprintf("untraced pass %d", i), p.ms, p.err, &ref)
		untraced = append(untraced, float64(env.n)/p.wall.Seconds())

		id := fmt.Sprintf("pass-%d", i)
		p = env.pass(env.w.workers, true)
		root := r.tr.add("pass", id, -1, p.t0, p.t2.Add(p.metrics).Sub(p.t0), 1)
		r.tr.add("sim.new_engine", id, root, p.t0, p.newEngine, 1)
		r.tr.add("sim.run", id, root, p.t1, p.run, env.n)
		r.tr.add("sim.metrics", id, root, p.t2, p.metrics, 1)
		proot := r.tr.begin("probes", id, -1)
		res, perr := probe.run(r.tr, id, proot)
		r.tr.end(proot, 1)
		if p.err == nil {
			p.err = perr
		}
		r.checkPass("traced pass "+id, p.ms, p.err, &ref)
		traced = append(traced, float64(env.n)/p.wall.Seconds())
		newEng = append(newEng, p.newEngine.Seconds())
		engAlloc = append(engAlloc, float64(p.engineAlloc)/(1<<20))
		runS = append(runS, p.run.Seconds())
		metS = append(metS, p.metrics.Seconds())
		runAlloc = append(runAlloc, float64(p.runAlloc)/float64(env.n))
		cpuWall = append(cpuWall, p.runCPU.Seconds()/p.run.Seconds())
		gcN = append(gcN, float64(p.gcCycles))
		gcMs = append(gcMs, float64(p.gcPause.Microseconds())/1000)
		reports += p.reports
		full += p.fullReports
		if perr == nil {
			probes = append(probes, res)
		}
	}
	if ref == nil || len(probes) == 0 {
		return nil, fmt.Errorf("no traced pass succeeded")
	}

	med := func(f func(probeResult) float64) float64 {
		xs := make([]float64, len(probes))
		for i, pr := range probes {
			xs[i] = f(pr)
		}
		return median(xs)
	}
	r.set("workload.gen_ns_per_req", env.genNs, "ns")
	if env.w.encrypted {
		r.set("vcc.encrypt_ns_per_req", env.encNs, "ns")
	} else {
		r.set("vcc.encrypt_ns_per_req", med(func(p probeResult) float64 { return p.encryptNsReq }), "ns")
	}
	if env.w.mapped {
		r.set("trace.write_ns_per_req", env.writeNs, "ns")
	} else {
		r.set("trace.write_ns_per_req", imageWriteNs, "ns")
	}
	r.set("trace.decode_ns_per_req", med(func(p probeResult) float64 { return p.decodeNsReq }), "ns")
	r.set("coset.best_ns_per_word", med(func(p probeResult) float64 { return p.cosetNsWord }), "ns")
	r.set("compress.wlc_ns_per_line", med(func(p probeResult) float64 { return p.wlcNsLine }), "ns")
	r.set("compress.wlc_line_frac", probes[0].wlcFrac, "frac")
	codecNs := 0.0 // the workload's schemes' encode+decode ns per request
	for _, name := range probeSchemes {
		enc := med(func(p probeResult) float64 { return p.encNs[name] })
		dec := med(func(p probeResult) float64 { return p.decNs[name] })
		r.set("core.encode_ns."+metricName(name), enc, "ns")
		r.set("core.decode_ns."+metricName(name), dec, "ns")
		for _, s := range env.w.schemes {
			if s == name {
				codecNs += enc + dec
			}
		}
	}
	for _, name := range gatedSchemes {
		frac := probes[0].compressed[name]
		if m, err := headline(ref, name); err == nil {
			frac = m.CompressedFraction() // the engine's own count when it ran the scheme
		}
		r.set("core.compressed_frac."+metricName(name), frac, "frac")
	}
	r.set("sim.new_engine_s", median(newEng), "s")
	r.set("sim.new_engine_alloc_mb", median(engAlloc), "MB")
	r.set("sim.run_s", median(runS), "s")
	r.set("sim.metrics_s", median(metS), "s")
	r.set("sim.run_alloc_bytes_per_req", median(runAlloc), "B")
	r.set("sim.settle_dispatch_s", median(run1)-codecNs*float64(env.n)/1e9, "s")
	r.set("sim.cpu_per_wall", median(cpuWall), "ratio")
	r.set("sim.queue_full_frac", float64(full)/float64(max(1, reports)), "frac")
	r.set("sim.speedup_2w", speedup, "x")
	r.set("sim.serial_fraction", amdahl(speedup, 2), "frac")
	r.set("go.gc_cycles_per_pass", mean(gcN), "count")
	r.set("go.gc_pause_ms_per_pass", mean(gcMs), "ms")
	tracedRate, untracedRate := passRate(traced, warmPasses), passRate(untraced, warmPasses)
	r.set("trace.overhead_frac", 1-tracedRate/untracedRate, "frac")
	r.note("tracing overhead: traced %.0f vs untraced %.0f req/s (fastest passes)", tracedRate, untracedRate)
	return ref, nil
}

// spanLayers are the span names whose mean self time the traced run
// reports.
var spanLayers = []string{"setup", "workload", "vcc", "trace", "pass", "sim.new_engine", "sim.run",
	"sim.metrics", "probes", "core", "coset", "compress", "job", "server.submit", "server.events",
	"server.result_get"}

// selfTimes reports each span layer's mean self time per span.
func (r *run) selfTimes() {
	self := r.tr.selfTimes()
	for _, name := range spanLayers {
		r.set("self_s."+name, self[name]/float64(max(1, r.tr.count(name))), "s")
	}
}
