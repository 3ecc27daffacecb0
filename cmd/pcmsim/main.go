// Command pcmsim replays a workload (synthetic or from a trace file)
// through one or more encoding schemes and reports the paper's three
// metrics — write energy, updated cells, disturbance errors — plus
// compression coverage. With -memsys it also pushes the write stream
// through the Table II memory-system model, one controller per scheme
// with every write's bank-busy time scaled by that scheme's
// programmed-cell count (P&V iterations), and reports per-scheme
// latency and utilization — fewer updated cells shows up directly as a
// latency/bandwidth win. The cell counts come from per-scheme shadow
// memories on the source path, so -memsys roughly doubles the encode
// work and serializes it ahead of the engine; it is a timing study
// knob, not a throughput mode.
//
// -encrypted replays the stream in its counter-mode encrypted form (the
// ciphertext an encrypted DIMM stores; -key picks the key), under which
// compression-gated schemes collapse to their raw fallback. -vcc
// appends the virtual coset coding schemes VCC-2/4/8, which recover
// coset-style write reduction on exactly that traffic.
//
// Replay runs on the parallel sharded engine: every scheme replays
// concurrently, and within a scheme the address space is sharded by
// (bank, sub-shard) routing unit — each bank splits into
// address-interleaved sub-shards, so useful worker counts extend well
// past the bank count (256 units under the Table II geometry). -workers
// bounds the goroutines (default: all CPUs); results are bit-identical
// for every worker count, so -workers 1 reproduces the serial numbers
// exactly. -ingest sets how many router goroutines read and pre-route
// the stream in chunks ahead of the dispatcher (0 = auto, negative =
// one router) — also bit-identical for any value. Trace files given
// with -trace are memory-mapped and decoded zero-copy when the platform
// allows it.
//
// -progress streams live dispatcher throughput and per-worker queue
// depths to stderr while a replay runs; -wear enables dense per-cell
// wear tracking and appends a wear report (worst-cell wear, wear CDF
// quantiles, first-cell-failure projection) per scheme. -cpuprofile,
// -memprofile and -exectrace write a pprof CPU profile, a heap profile
// and a runtime execution trace of the replay (-trace already names the
// input trace file, hence -exectrace).
//
// -faults enables the stuck-at fault model: cells wear out (mean
// endurance -fault-endurance, spread -fault-spread) or start defective
// (-fault-static), and the controller repairs affected writes through
// stuck-aware re-encode retries, interleaved BCH ECC (-fault-ecc-bits)
// and line retirement to a spare pool (-fault-spares). A fault/repair
// table is appended per scheme. By default the replay degrades
// gracefully — the full trace runs and a run that breaches the
// -fault-retire-frac threshold (or sees any uncorrectable write) exits
// non-zero after reporting; -failfast aborts on the first uncorrectable
// write instead. Either way the partial metrics and wear of everything
// replayed so far are still printed.
//
// Examples:
//
//	pcmsim -workload gcc -schemes Baseline,WLCRC-16 -writes 10000
//	pcmsim -trace writes.wlct -schemes WLCRC-16 -progress
//	pcmsim -workload all -schemes Baseline,6cosets,WLCRC-16 -memsys
//	pcmsim -workload all -schemes Baseline,WLCRC-16 -workers 1 -wear
//	pcmsim -workload gcc -schemes "Baseline,WLCRC-16" -encrypted -vcc
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"wlcrc"
	"wlcrc/internal/core"
	"wlcrc/internal/fault"
	"wlcrc/internal/memsys"
	"wlcrc/internal/profiling"
	"wlcrc/internal/sim"
	"wlcrc/internal/stats"
	"wlcrc/internal/trace"
	"wlcrc/internal/wear"
	"wlcrc/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pcmsim: ")
	var (
		schemesFlag = flag.String("schemes", "Baseline,WLCRC-16", "comma-separated scheme names")
		wlFlag      = flag.String("workload", "gcc", "workload name, 'all', or 'random' (ignored with -trace)")
		traceFile   = flag.String("trace", "", "replay a trace file instead of a synthetic workload")
		writes      = flag.Int("writes", 5000, "writes per workload (synthetic only)")
		footprint   = flag.Int("footprint", 0, "working-set size in lines (0 = profile default)")
		seed        = flag.Uint64("seed", 1, "workload seed")
		sample      = flag.Bool("sample-disturb", false, "sample disturbance instead of expected values")
		useMemsys   = flag.Bool("memsys", false, "also run the Table II memory-system timing model")
		workers     = flag.Int("workers", runtime.GOMAXPROCS(0), "replay worker goroutines, up to banks x sub-shards (1 = serial; results are identical for any value)")
		ingest      = flag.Int("ingest", 0, "ingest router goroutines pre-routing the stream ahead of the dispatcher (0 = auto, negative = one router; results are identical for any value)")
		progress    = flag.Bool("progress", false, "stream live replay throughput and queue depths to stderr")
		wearReport  = flag.Bool("wear", false, "track dense per-cell wear and report the wear distribution per scheme")
		encrypted   = flag.Bool("encrypted", false, "replay the counter-mode encrypted (whitened) form of the write stream")
		key         = flag.Uint64("key", 0, "encryption key for -encrypted and the VCC/Enc schemes (0 = default key)")
		useVCC      = flag.Bool("vcc", false, "append the virtual coset coding schemes VCC-2,VCC-4,VCC-8")
		faults      = flag.Bool("faults", false, "enable the stuck-at fault model and repair pipeline, and report fault stats per scheme")
		faultEndur  = flag.Uint64("fault-endurance", 0, "mean cell endurance in program cycles before stuck-at onset (0 = 1e7)")
		faultSpread = flag.Float64("fault-spread", 0, "relative half-width of the per-cell endurance threshold draw (0 = exact)")
		faultECC    = flag.Int("fault-ecc-bits", 0, "per-line correctable-bit ECC budget, rounded up to t=2 BCH ways (0 = 4)")
		faultSpares = flag.Int("fault-spares", 0, "spare lines per shard for retirement remapping (0 = 16)")
		faultRetire = flag.Float64("fault-retire-frac", 0, "retired-line fraction of touched lines that ends the run degraded (0 = 0.25)")
		faultStatic = flag.Int("fault-static", 0, "pre-seed N random stuck cells (manufacturing defects) over the first -footprint lines (4096 when unset)")
		failFast    = flag.Bool("failfast", false, "abort replay on the first uncorrectable write instead of degrading gracefully")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file at exit")
		execTrace   = flag.String("exectrace", "", "write a runtime execution trace to this file (-trace names the input trace file)")
	)
	flag.Parse()
	stopProf, err := profiling.Start(*cpuProfile, *memProfile, *execTrace)
	if err != nil {
		log.Fatal(err)
	}

	cfg := core.DefaultConfig()
	cfg.EncryptionKey = *key
	names := strings.Split(*schemesFlag, ",")
	if *useVCC {
		names = append(names, "VCC-2", "VCC-4", "VCC-8")
	}
	var schemes []core.Scheme
	seen := map[string]bool{}
	for _, name := range names {
		name = strings.TrimSpace(name)
		// Dedup so e.g. `-schemes VCC-4 -vcc` replays (and, with
		// -memsys, shadow-encodes) each scheme once.
		if seen[name] {
			continue
		}
		seen[name] = true
		s, err := core.NewScheme(name, cfg)
		if err != nil {
			log.Fatal(err)
		}
		schemes = append(schemes, s)
	}

	opts := sim.DefaultOptions()
	opts.SampleDisturb = *sample
	opts.Seed = *seed
	opts.Workers = *workers
	opts.IngestRouters = *ingest
	opts.TrackWear = *wearReport
	if *faults {
		opts.Faults = fault.Config{
			Enabled:            true,
			CellEndurance:      uint32(*faultEndur),
			EnduranceSpread:    *faultSpread,
			ECCBits:            *faultECC,
			SpareLines:         *faultSpares,
			MaxRetiredFraction: *faultRetire,
		}
		if *faultStatic > 0 {
			maxAddr := uint64(4096)
			if *footprint > 0 {
				maxAddr = uint64(*footprint)
			}
			opts.Faults.Static = fault.RandomStatic(*seed, *faultStatic, maxAddr)
		}
	}
	opts.FailFast = *failFast
	if *progress {
		opts.Progress = sim.ProgressPrinter(os.Stderr)
	}

	type namedSource struct {
		name string
		src  trace.Source
		n    int
	}
	var sources []namedSource
	switch {
	case *traceFile != "":
		// Prefer the memory-mapped source: zero-copy decode straight off
		// the page cache, and the natural feed for the batched ingest
		// stage. Fall back to the buffered reader if mapping fails (e.g.
		// an exotic filesystem without mmap support).
		if m, err := trace.OpenMapped(*traceFile); err == nil {
			defer m.Close()
			if terr := m.Err(); terr != nil {
				log.Printf("warning: %s: %v; replaying the %d complete records", *traceFile, terr, m.Records())
			}
			sources = append(sources, namedSource{name: *traceFile, src: m})
		} else {
			f, err := os.Open(*traceFile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			rd, err := trace.NewReader(f)
			if err != nil {
				log.Fatal(err)
			}
			sources = append(sources, namedSource{name: *traceFile, src: &trace.ReaderSource{R: rd}})
		}
	case *wlFlag == "all":
		for _, p := range workload.Profiles() {
			sources = append(sources, namedSource{
				name: p.Name,
				src:  workload.NewGenerator(p, *footprint, *seed),
				n:    *writes,
			})
		}
	case *wlFlag == "random":
		sources = append(sources, namedSource{
			name: "random",
			src:  workload.NewGenerator(workload.RandomProfile(), *footprint, *seed),
			n:    *writes,
		})
	default:
		p, ok := workload.ProfileByName(*wlFlag)
		if !ok {
			log.Fatalf("unknown workload %q", *wlFlag)
		}
		sources = append(sources, namedSource{
			name: p.Name,
			src:  workload.NewGenerator(p, *footprint, *seed),
			n:    *writes,
		})
	}

	tbl := stats.NewTable("workload", "scheme", "pJ/write", "cells/write",
		"disturb/write", "compressed")
	var wearTbl *stats.Table
	if *wearReport {
		wearTbl = stats.NewTable("workload", "scheme", "cells/write", "max wear",
			"p50", "p99", "imbalance", "writes to 1st failure")
	}
	var faultTbl *stats.Table
	if *faults {
		faultTbl = stats.NewTable("workload", "scheme", "stuck cells", "detected",
			"retried ok", "ECC-saved", "retired", "remap hits", "uncorrectable", "1st retire")
	}
	var timers []*schemeTimer
	if *useMemsys {
		for _, s := range schemes {
			timers = append(timers, &schemeTimer{
				scheme: s,
				ctrl:   memsys.New(memsys.TableII()),
			})
		}
	}
	// SIGINT/SIGTERM cancel the replay cooperatively between batches:
	// the loop below reports the partial metrics of everything replayed
	// so far and pcmsim exits non-zero instead of dying mid-replay.
	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stopSignals()

	var totalWrites uint64
	var failed, interrupted bool
	start := time.Now()
	var eng *sim.Engine
	for _, ns := range sources {
		if interrupted {
			break
		}
		eng = sim.NewEngine(opts, schemes...)
		src := ns.src
		if *encrypted {
			src = workload.Encrypted(src, *key)
		}
		if ns.n > 0 {
			src = &workload.Limited{Src: src, N: ns.n}
		}
		if timers != nil {
			// Each source replays against fresh shadow memories, like the
			// fresh engine above; the controllers keep accumulating.
			for _, st := range timers {
				st.mem = wlcrc.NewMemory(st.scheme)
			}
			src = &timingTap{src: src, timers: timers}
		}
		if err := eng.RunContext(ctx, src, 0); err != nil {
			// A failed replay — an aborted -failfast run, a degraded
			// graceful one, a trace decode error, a SIGINT — still has
			// merged partial metrics worth reporting: Snapshot drains
			// whatever the shards got through before the stop. Report,
			// keep going (or stop, on interrupt), and exit non-zero at
			// the end.
			if ctx.Err() != nil {
				log.Printf("%s: interrupted (reporting partial metrics)", ns.name)
				interrupted = true
			} else {
				log.Printf("%s: %v (reporting partial metrics)", ns.name, err)
			}
			failed = true
		}
		for _, m := range eng.Snapshot() {
			totalWrites += uint64(m.Writes)
			tbl.Row(ns.name, m.Scheme, m.AvgEnergy(), m.AvgUpdated(),
				m.AvgDisturb(), stats.Percent(m.CompressedFraction()))
			if wearTbl != nil {
				w := m.Wear
				wearTbl.Row(ns.name, m.Scheme, w.AvgUpdatedCells(),
					fmt.Sprintf("%d", w.MaxCellWear),
					fmt.Sprintf("%d", w.Quantile(0.5)), fmt.Sprintf("%d", w.Quantile(0.99)),
					w.WearImbalance(),
					fmt.Sprintf("%.3g", w.LifetimeWrites(wear.DefaultCellEndurance)))
			}
			if faultTbl != nil {
				f := m.Faults
				firstRetire := "never"
				if f.FirstRetireSeq != 0 {
					firstRetire = fmt.Sprintf("%d", f.FirstRetireSeq)
				}
				faultTbl.Row(ns.name, m.Scheme, fmt.Sprintf("%d", f.StuckCells),
					fmt.Sprintf("%d", f.Detected), fmt.Sprintf("%d", f.RetriedOK),
					fmt.Sprintf("%d", f.CorrectedWrites), fmt.Sprintf("%d", f.RetiredLines),
					fmt.Sprintf("%d", f.RemapHits), fmt.Sprintf("%d", f.Uncorrectable),
					firstRetire)
			}
		}
	}
	elapsed := time.Since(start)
	fmt.Print(tbl.String())
	if wearTbl != nil {
		fmt.Printf("\nper-cell wear (first-failure projection at %.0e program cycles):\n%s",
			wear.DefaultCellEndurance, wearTbl.String())
	}
	if faultTbl != nil {
		fmt.Printf("\nstuck-at faults and repair (retry -> ECC -> retire):\n%s", faultTbl.String())
	}
	if eng != nil {
		fmt.Printf("\nreplayed %d scheme-writes in %v with %d workers over %d routing units (%d banks x %d sub-shards, %s)\n",
			totalWrites, elapsed.Round(time.Millisecond), eng.Workers(), eng.Units(),
			eng.Banks(), eng.SubShards(), stats.Rate(totalWrites, elapsed))
	}
	if timers != nil {
		fmt.Printf("\nmemory system (%s), write busy time scaled by programmed cells:\n",
			memsys.TableII())
		mt := stats.NewTable("scheme", "writes", "avg write latency", "pauses",
			"drains", "utilization")
		for _, st := range timers {
			st.ctrl.Drain()
			s := st.ctrl.Stats()
			mt.Row(st.scheme.Name(), fmt.Sprintf("%d", s.Writes),
				fmt.Sprintf("%.0f cyc", s.AvgWriteLatency()),
				fmt.Sprintf("%d", s.WritePauses), fmt.Sprintf("%d", s.DrainEvents),
				stats.Percent(s.Utilization()))
		}
		fmt.Print(mt.String())
	}
	if err := stopProf(); err != nil {
		log.Print(err)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// schemeTimer pairs one scheme's cycle-based controller with the shadow
// memory that prices each write's programmed-cell count for it.
type schemeTimer struct {
	scheme core.Scheme
	mem    *wlcrc.Memory
	ctrl   *memsys.Controller
}

// timingTap feeds every request into each scheme's memory-system model
// as it passes through: the shadow memory encodes the write exactly as
// the replay engine will, and its updated-cell count scales the write's
// bank-busy time (memsys.Config.WriteCyclesFor).
type timingTap struct {
	src    trace.Source
	timers []*schemeTimer
}

// Next implements trace.Source.
func (t *timingTap) Next() (trace.Request, bool) {
	req, ok := t.src.Next()
	if ok {
		for _, st := range t.timers {
			info := st.mem.Write(req.Addr, req.New)
			// Access.Cells = 0 means "unknown" (full WriteCycles), so a
			// genuinely silent store — zero updated cells — is billed as
			// one cell: the floor-cost verify pass, not a full write.
			cells := info.UpdatedCells
			if cells < 1 {
				cells = 1
			}
			st.ctrl.Enqueue(memsys.Access{Kind: memsys.Write, Addr: req.Addr, Cells: cells})
			st.ctrl.Step(40) // nominal inter-arrival gap
		}
	}
	return req, ok
}
