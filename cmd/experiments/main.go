// Command experiments regenerates the tables and figures of the paper's
// evaluation. Each figure prints the same rows/series the paper reports;
// EXPERIMENTS.md records paper-vs-measured values.
//
// Usage:
//
//	experiments -run all
//	experiments -run fig8 -writes 5000
//	experiments -run fig1a,fig4,hw
//
// Valid experiment ids: fig1a fig1b fig2 fig3 fig4 fig5 fig8 fig9 fig10
// fig11 fig12 fig13 fig14 multiobj ablation hw headline wear endurance
// encrypted all.
//
// -encrypted replays every experiment's workloads in counter-mode
// encrypted (whitened) form; -vcc appends the VCC schemes to the
// Figure 8/9/10 evaluation matrix; -run encrypted prints the dedicated
// plaintext-vs-ciphertext study (raw / FlipMin / WLCRC / Enc / VCC
// energy, updated cells and p50/p99 per-write energy).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"wlcrc/internal/exp"
	"wlcrc/internal/hw"
	"wlcrc/internal/profiling"
	"wlcrc/internal/sim"
	"wlcrc/internal/stats"
)

func main() {
	var (
		run       = flag.String("run", "all", "comma-separated experiment ids (fig1a..fig14, multiobj, ablation, hw, headline, wear, endurance, encrypted, all)")
		writes    = flag.Int("writes", 2000, "write requests per benchmark")
		random    = flag.Int("random-writes", 4000, "write requests for random-workload figures")
		seed      = flag.Uint64("seed", 1, "experiment seed")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "replay worker goroutines, up to banks x sub-shards (1 = serial; results are identical for any value)")
		ingest    = flag.Int("ingest", 0, "ingest router goroutines pre-routing each replay's stream (0 = auto, negative = one router; results are identical for any value)")
		progress  = flag.Bool("progress", false, "print live replay throughput to stderr")
		encrypted = flag.Bool("encrypted", false, "replay every workload in counter-mode encrypted (whitened) form")
		key       = flag.Uint64("key", 0, "encryption key for -encrypted and the VCC/Enc schemes (0 = default key)")
		useVCC    = flag.Bool("vcc", false, "append VCC-2,VCC-4,VCC-8 to the fig8/9/10 evaluation matrix")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		execTrace  = flag.String("trace", "", "write a runtime execution trace to this file")
	)
	flag.Parse()
	stopProf, err := profiling.Start(*cpuProfile, *memProfile, *execTrace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}

	// SIGINT/SIGTERM cancel the running replay cooperatively: the
	// experiment panics with exp.Interrupted, recovered below into a
	// partial report instead of the process dying mid-replay.
	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stopSignals()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		intr, ok := r.(exp.Interrupted)
		if !ok {
			panic(r)
		}
		fmt.Fprintf(os.Stderr, "experiments: %v\n", intr)
		if len(intr.Partial) > 0 {
			t := stats.NewTable("scheme", "writes", "pJ/write", "cells/write", "disturb/write")
			for _, m := range intr.Partial {
				t.Row(m.Scheme, fmt.Sprintf("%d", m.Writes), m.AvgEnergy(), m.AvgUpdated(), m.AvgDisturb())
			}
			fmt.Printf("== Partial metrics of the interrupted replay (%s) ==\n%s\n", intr.Benchmark, t.String())
		}
		stopProf()
		os.Exit(130)
	}()

	cfg := exp.DefaultConfig()
	cfg.Context = ctx
	cfg.WritesPerBenchmark = *writes
	cfg.RandomWrites = *random
	cfg.Seed = *seed
	cfg.Workers = *workers
	cfg.IngestRouters = *ingest
	cfg.Encrypted = *encrypted
	cfg.EncryptionKey = *key
	if *useVCC {
		cfg.ExtraSchemes = append(cfg.ExtraSchemes, "VCC-2", "VCC-4", "VCC-8")
	}
	if *progress {
		cfg.Progress = sim.ProgressPrinter(os.Stderr)
	}

	ids := strings.Split(*run, ",")
	if *run == "all" {
		// fig11 prints the combined 11-13 sweep table.
		ids = []string{"fig1a", "fig1b", "fig2", "fig3", "fig4", "fig5",
			"fig8", "fig9", "fig10", "fig11", "fig14",
			"multiobj", "ablation", "hw", "wear", "endurance", "encrypted", "headline"}
	}
	// The wear report digests the shared fig8/9/10 evaluation rather
	// than replaying its own matrix, so wear tracking must be on before
	// the evaluation is (lazily) computed.
	for _, id := range ids {
		if strings.TrimSpace(id) == "wear" {
			cfg.TrackWear = true
		}
	}

	// The fig8/9/10 matrix and the fig11/12/13 sweep are each computed
	// once and shared.
	var eval *exp.Evaluation
	getEval := func() *exp.Evaluation {
		if eval == nil {
			eval = exp.RunEvaluation(cfg)
		}
		return eval
	}
	var study map[string][]exp.SweepPoint
	var studyTbl *stats.Table
	getStudy := func() (map[string][]exp.SweepPoint, *stats.Table) {
		if study == nil {
			study, studyTbl = exp.GranularityStudy(cfg)
		}
		return study, studyTbl
	}

	for _, id := range ids {
		switch strings.TrimSpace(id) {
		case "fig1a":
			_, t := exp.Figure1(cfg, true)
			section("Figure 1(a): 6cosets energy vs granularity, random workload", t)
		case "fig1b":
			_, t := exp.Figure1(cfg, false)
			section("Figure 1(b): 6cosets energy vs granularity, biased workloads", t)
		case "fig2":
			_, t := exp.Figure2(cfg)
			section("Figure 2: 6cosets vs 4cosets, random workload (pJ/write)", t)
		case "fig3":
			_, t := exp.Figure3(cfg)
			section("Figure 3: 6cosets vs 4cosets, biased workloads (pJ/write)", t)
		case "fig4":
			_, t := exp.Figure4(cfg)
			section("Figure 4: % of memory lines compressed", t)
		case "fig5":
			_, t := exp.Figure5(cfg)
			section("Figure 5: 4cosets vs 3cosets vs 3-r-cosets, biased workloads (pJ/write)", t)
		case "fig8":
			section("Figure 8: write energy per request (pJ)", getEval().Figure8())
		case "fig9":
			section("Figure 9: average updated cells per request", getEval().Figure9())
		case "fig10":
			section("Figure 10: average write disturbance errors per request", getEval().Figure10())
		case "fig11", "fig12", "fig13":
			_, t := getStudy()
			section("Figures 11-13: WLC+{4,3}cosets vs WLCRC across granularities", t)
		case "fig14":
			_, t := exp.Figure14(cfg)
			section("Figure 14: WLCRC-16 sensitivity to intermediate-state energies", t)
		case "multiobj":
			_, t := exp.MultiObjective(cfg)
			section("§VIII.D: multi-objective optimization (T=1%)", t)
		case "hw":
			rep := hw.Estimate(hw.FreePDK45(), hw.WLCRCDesign())
			section("§VI.B: WLCRC-16 hardware cost model", rep.Table())
		case "wear":
			_, t := exp.WearReportFrom(getEval())
			section("Wear: per-cell wear distribution and first-failure projection (Fig 9 extended)", t)
		case "endurance":
			_, t := exp.EnduranceStudy(cfg)
			section("Endurance: writes to first line retirement under accelerated wear (stuck-at + repair)", t)
		case "encrypted":
			_, t := exp.EncryptedStudy(cfg)
			section("Encrypted PCM: compression-gate collapse and the VCC recovery", t)
		case "ablation":
			section("Ablation: multi-objective threshold sweep",
				exp.AblationMultiObjective(cfg, []float64{0.01, 0.05, 0.2}))
			section("Ablation: disturbance-aware lambda sweep (§XI extension)",
				exp.AblationDisturbAware(cfg, []float64{500, 1000, 2000}))
			section("Ablation: restriction vs in-word embedding at 16-bit blocks",
				exp.AblationEmbedding(cfg))
		case "headline":
			fmt.Println("== Headline comparisons ==")
			fmt.Println(getEval().Headline())
		default:
			fmt.Fprintf(os.Stderr, "experiments: unknown id %q\n", id)
			stopProf()
			os.Exit(2)
		}
	}
	if err := stopProf(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

func section(title string, t *stats.Table) {
	fmt.Printf("== %s ==\n%s\n", title, t.String())
}
