// Command benchguard enforces the committed encode-benchmark baseline.
//
// It parses `go test -bench` output (stdin or a file), extracts the
// BenchmarkEncodeInto/<scheme> series, and compares each scheme against
// the PR 3 series committed in BENCH_encode.json. Because CI machines
// differ in absolute speed from the machine the baseline was measured
// on, the comparison is normalized: each scheme's ns/op is divided by
// the geometric mean of the whole run, and that relative position must
// not exceed the baseline's by more than the tolerance (default 10%).
// A uniformly slower machine shifts every scheme equally and cancels
// out; a real hot-path regression moves one scheme against the rest of
// the field and trips the gate. Run with -count 3 or more so averaging
// damps scheduler noise.
//
//	go test -run xxx -bench BenchmarkEncodeInto -benchtime 1s . | benchguard
//	benchguard -emit-baseline > old.txt   # baseline in benchstat format
//
// With -replay it guards the parallel replay dispatcher instead. It
// prefers the PR 6 scaling series — BenchmarkReplayParallelScaling/
// workers=N at fixed worker counts — reading the workers=1 time as the
// serial reference and gating the parallel-over-serial wall-clock ratio
// at the baseline's gate_workers count against the committed
// replay_parallel_pr6 ratio. Inputs without the scaling series (pre-PR6
// bench runs) fall back to BenchmarkReplaySerial/BenchmarkReplayParallel
// against the replay_parallel_pr4 baseline. Either way the gated number
// is a same-box wall-clock ratio, machine-speed independent, and exactly
// what a dispatch regression moves — a broadcast-style fan-out or a lost
// parallelism bug drags parallel toward (or past) serial. Machines with
// more cores than the baseline's only improve the ratio, so the gate
// stays sound across CI hardware.
//
//	go test -run xxx -bench 'BenchmarkReplayParallelScaling' -benchtime 2x -count 3 . | benchguard -replay
//
// With -ingest it guards the PR 7 trace-decode front-end instead: the
// BenchmarkIngest/mapped over BenchmarkIngest/reader ns/op ratio (both
// decode the same records, so this is the per-record decode-cost ratio,
// same-box and machine-speed independent) must stay at or below the
// committed ingest_pr7 gate_ratio — i.e. the zero-copy mapped batch
// path must keep its >=2x throughput edge over the per-record reader
// loop.
//
//	go test -run xxx -bench BenchmarkIngest -benchtime 1s -count 3 ./internal/trace/ | benchguard -ingest
//
// With -faultfree it guards the PR 8 stuck-at fault model's zero-cost
// claim: with faults disabled the replay engine must stay within the
// committed fault_free_pr8 gate_ratio (5%) of the plain PR 7 engine on
// the same fixture — BenchmarkEngineRunFaults/off over
// BenchmarkEngineRun/workers=4/ingest=off, identical configurations
// except that the former is compiled through the fault-aware write
// path. Same box, same process, so the ratio is machine-speed
// independent; it moves only when fault-model bookkeeping leaks into
// the fault-disabled hot path.
//
//	go test -run xxx -bench 'BenchmarkEngineRun' -benchtime 2x -count 3 ./internal/sim/ | benchguard -faultfree
//
// With -arena it guards the PR 9 plane-native line store: the serial
// replay on the cell-vector reference store over the same replay on the
// engine's plane arena — BenchmarkReplayStorage/storage=scalar over
// storage=planes, in internal/sim — must stay at or above the committed
// replay_arena_pr9 gate_ratio. The reference store lives only in the
// sim tests (scalar_oracle_test.go), as the equivalence oracle the
// arena must match bit for bit, so the ratio re-measures the arena's
// edge on every box: it collapses toward 1.0 only when the arena path
// loses it (cell-level settle work or map lookups creeping back into
// the hot loop).
//
//	go test -run xxx -bench BenchmarkReplayStorage -benchtime 2x -count 3 ./internal/sim/ | benchguard -arena
//
// With -from-store <dir> the measured numbers come from a pcmserver
// result store instead of bench output: the latest point of the named
// series (-series, defaulting to the guard mode's name — encode,
// replay, ingest, faultfree or arena) supplies the key→value map the
// mode would otherwise parse from `go test -bench` text. A CI box that
// pushes its bench runs to the server over POST /v1/series can then
// gate any recorded run, or re-gate yesterday's, without keeping the
// raw bench logs around:
//
//	benchguard -ingest -from-store /var/lib/pcmserver -series ingest
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"wlcrc/internal/store"
)

type baseline struct {
	EncodePR3 map[string]float64 `json:"encode_into_ns_per_op_pr3"`
	// EncodeVCC is the PR 5 encrypted-PCM scheme family (VCC-n, Enc).
	// It is gated separately from EncodePR3, each family normalized by
	// its own geometric mean, because the two were measured on
	// different days and absolute machine speed drifts between sessions.
	EncodeVCC map[string]float64 `json:"encode_into_ns_per_op_vcc_pr5"`
	Replay    *replayBaseline    `json:"replay_parallel_pr4"`
	// ReplayScaling is the PR 6 sub-bank-sharded pipeline series,
	// measured by BenchmarkReplayParallelScaling at fixed worker counts.
	ReplayScaling *replayScalingBaseline `json:"replay_parallel_pr6"`
	// Ingest is the PR 7 trace-decode front-end series, measured by
	// BenchmarkIngest in internal/trace.
	Ingest *ingestBaseline `json:"ingest_pr7"`
	// FaultFree is the PR 8 fault-model overhead series, measured by
	// BenchmarkEngineRun + BenchmarkEngineRunFaults in internal/sim.
	FaultFree *faultFreeBaseline `json:"fault_free_pr8"`
	// Arena is the PR 9 plane-native line-store series, measured by
	// BenchmarkReplayStorage in internal/sim.
	Arena *arenaBaseline `json:"replay_arena_pr9"`
}

type replayBaseline struct {
	SerialNS   float64 `json:"serial_ns_per_run"`
	ParallelNS float64 `json:"parallel_ns_per_run"`
	Ratio      float64 `json:"parallel_over_serial"`
	Workers    int     `json:"workers"`
}

// replayScalingBaseline records the fixed-worker scaling curve. The gate
// compares the measured parallel(gate_workers)/serial(workers=1) ratio
// against Ratio; NSPerRun keeps the whole curve for the record.
type replayScalingBaseline struct {
	NSPerRun    map[string]float64 `json:"ns_per_run_by_workers"`
	Ratio       float64            `json:"parallel_over_serial"`
	GateWorkers int                `json:"gate_workers"`
}

// ingestBaseline records the trace-decode front-end series. Every
// BenchmarkIngest sub-benchmark decodes the same number of records per
// op, so mapped/reader ns/op is the per-record decode-cost ratio — a
// same-box number, machine-speed independent. The gate requires the
// measured ratio to stay at or below GateRatio (0.5 = the mapped batch
// path must decode at least 2x as fast as the per-record reader loop);
// NSPerOp keeps the measured absolute times for the record.
type ingestBaseline struct {
	NSPerOp   map[string]float64 `json:"ns_per_pass_by_path"`
	Records   int                `json:"records_per_pass"`
	Ratio     float64            `json:"mapped_over_reader"`
	GateRatio float64            `json:"gate_ratio"`
}

// faultFreeBaseline records the fault-model overhead series: "plain" is
// BenchmarkEngineRun/workers=4/ingest=off (the PR 7 engine), "off" and
// "on" are BenchmarkEngineRunFaults with the model disabled and
// enabled on the identical fixture. The gate requires the measured
// off/plain ratio to stay at or below GateRatio — a fault-disabled
// replay must not pay for the fault machinery; "on" is recorded but not
// gated (its cost is the model's job, not a regression).
type faultFreeBaseline struct {
	NSPerRun  map[string]float64 `json:"ns_per_run_by_mode"`
	Ratio     float64            `json:"off_over_plain"`
	GateRatio float64            `json:"gate_ratio"`
}

// arenaBaseline records the plane-native line-store series: "planes"
// is BenchmarkReplayStorage on the engine's arena, "scalar" is the same
// serial replay on the tests' cell-vector reference store. Both run in
// one process on one box, so scalar/planes is machine-speed
// independent: it is the arena's edge, re-measured live. The gate
// requires the measured ratio to stay at or above GateRatio — below it,
// the arena path has lost its edge over cell-vector storage. The committed Ratio sits well
// above the gate; the margin between them is the noise headroom.
type arenaBaseline struct {
	NSPerRun  map[string]float64 `json:"ns_per_run_by_storage"`
	Ratio     float64            `json:"scalar_over_planes"`
	GateRatio float64            `json:"gate_ratio"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchguard: ")
	var (
		basePath  = flag.String("baseline", "BENCH_encode.json", "committed baseline JSON")
		tol       = flag.Float64("tolerance", 0.10, "allowed relative regression (0.10 = 10%)")
		emit      = flag.Bool("emit-baseline", false, "print the baseline as benchstat-compatible bench output and exit")
		replay    = flag.Bool("replay", false, "guard the parallel replay dispatcher (parallel/serial wall-clock ratio) instead of the encode series")
		replayTol = flag.Float64("replay-tolerance", 0.30, "allowed relative ratio regression in -replay mode (generous: wall-clock ratios are noisy)")
		ingest    = flag.Bool("ingest", false, "guard the trace-decode front-end (mapped/reader decode-cost ratio from BenchmarkIngest) instead of the encode series")
		faultFree = flag.Bool("faultfree", false, "guard the fault model's zero-cost-when-disabled claim (BenchmarkEngineRunFaults/off over BenchmarkEngineRun) instead of the encode series")
		arena     = flag.Bool("arena", false, "guard the plane-native line store's speedup (BenchmarkReplayStorage scalar/planes ratio) instead of the encode series")
		fromStore = flag.String("from-store", "", "pcmserver result-store directory: gate the latest point of a recorded series instead of parsing bench output")
		series    = flag.String("series", "", "series name to read with -from-store (default: the guard mode's name — encode, replay, ingest, faultfree or arena)")
	)
	flag.Parse()

	raw, err := os.ReadFile(*basePath)
	if err != nil {
		log.Fatal(err)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		log.Fatal(err)
	}
	if *replay {
		guardReplay(base, measured(*fromStore, *series, "replay", parseReplayBench), *replayTol)
		return
	}
	if *ingest {
		guardIngest(base, measured(*fromStore, *series, "ingest", parseIngestBench))
		return
	}
	if *faultFree {
		guardFaultFree(base, measured(*fromStore, *series, "faultfree", parseFaultFreeBench))
		return
	}
	if *arena {
		guardArena(base, measured(*fromStore, *series, "arena", parseArenaBench))
		return
	}
	if len(base.EncodePR3) == 0 {
		log.Fatalf("%s has no encode_into_ns_per_op_pr3 series", *basePath)
	}

	if *emit {
		for _, series := range []map[string]float64{base.EncodePR3, base.EncodeVCC} {
			names := make([]string, 0, len(series))
			for n := range series {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Printf("BenchmarkEncodeInto/%s 1 %g ns/op\n", n, series[n])
			}
		}
		return
	}

	got := measured(*fromStore, *series, "encode", parseBench)
	if len(got) == 0 {
		log.Fatal("no BenchmarkEncodeInto results in input")
	}

	failed := guardSeries("pr3", base.EncodePR3, got, *tol, true)
	if len(base.EncodeVCC) > 0 {
		failed = guardSeries("vcc_pr5", base.EncodeVCC, got, *tol, false) || failed
	}
	if failed {
		log.Fatalf("encode hot path regressed beyond %.0f%% (geomean-normalized)", 100**tol)
	}
	fmt.Println("benchguard: encode hot path within baseline")
}

// guardSeries compares one baseline family against the run, normalized
// by the family's own geometric mean over the schemes present in both:
// a uniformly slower machine shifts every scheme equally and cancels
// out, while a single-scheme hot-path regression stands out. It reports
// whether any scheme regressed beyond tol. A run with no overlap at all
// is fatal for a required family but only a warning for an optional one
// (filtered bench runs and pre-PR5 outputs legitimately lack the VCC
// series).
func guardSeries(label string, series, got map[string]float64, tol float64, required bool) bool {
	var names []string
	for n := range series {
		if _, ok := got[n]; ok {
			names = append(names, n)
		} else {
			log.Printf("WARN: scheme %s missing from bench run", n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		if required {
			log.Fatalf("no overlap between the %s baseline and the bench run", label)
		}
		log.Printf("WARN: no overlap between the %s baseline and the bench run; skipping the family", label)
		return false
	}
	baseNorm, gotNorm := geomean(series, names), geomean(got, names)

	failed := false
	for _, n := range names {
		baseRatio := series[n] / baseNorm
		curRatio := got[n] / gotNorm
		delta := curRatio/baseRatio - 1
		status := "ok"
		if delta > tol {
			status = "REGRESSION"
			failed = true
		}
		fmt.Printf("%-14s baseline %8.1f ns (x%.2f)   run %8.1f ns (x%.2f)   %+6.1f%%  %s\n",
			n, series[n], baseRatio, got[n], curRatio, 100*delta, status)
	}
	return failed
}

// openInput returns the bench output to parse: the first positional
// argument as a file, or stdin. The process exits before the reader is
// finished with, so the file is never explicitly closed.
func openInput() io.Reader {
	if flag.NArg() == 0 {
		return os.Stdin
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	return f
}

// measured resolves the mode's measured key→value map: parsed from
// bench output (stdin or a file) by default, or — with -from-store —
// the latest point of a series recorded in a pcmserver result store.
// Store series carry exactly the map the parser would produce (the
// server's POST /v1/series contract), so the gates downstream cannot
// tell the two sources apart. name defaults to the mode's own name.
func measured(dir, name, mode string, parse func(io.Reader) (map[string]float64, error)) map[string]float64 {
	if dir == "" {
		m, err := parse(openInput())
		if err != nil {
			log.Fatal(err)
		}
		return m
	}
	if name == "" {
		name = mode
	}
	st, err := store.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	pts := st.Series(name)
	if len(pts) == 0 {
		have := strings.Join(st.SeriesNames(), ", ")
		if have == "" {
			have = "none"
		}
		log.Fatalf("store %s has no series %q (recorded series: %s)", dir, name, have)
	}
	// Latest observation wins; points carry their submission timestamp,
	// with append order breaking ties (and ordering unstamped points).
	best := pts[0]
	for _, p := range pts[1:] {
		if p.Unix >= best.Unix {
			best = p
		}
	}
	fmt.Printf("benchguard: gating series %q from %s (%d point(s), latest of job %q)\n",
		name, dir, len(pts), best.JobID)
	return best.Values
}

// guardReplay enforces the routed-dispatch baseline: the measured
// parallel-over-serial replay ratio must not exceed the committed ratio
// by more than tol (relative). It gates the PR 6 scaling series when the
// input carries it, and falls back to the PR 4 serial/parallel pair for
// older bench outputs.
func guardReplay(base baseline, m map[string]float64, tol float64) {
	if bs := base.ReplayScaling; bs != nil && bs.Ratio != 0 {
		gateKey := fmt.Sprintf("workers=%d", bs.GateWorkers)
		serial, parallel := m["workers=1"], m[gateKey]
		if serial != 0 && parallel != 0 {
			gateRatio(serial, parallel, bs.Ratio, bs.GateWorkers, tol, "replay_parallel_pr6")
			return
		}
		log.Printf("WARN: input has no BenchmarkReplayParallelScaling workers=1/%s results; "+
			"falling back to the pr4 serial/parallel pair", gateKey)
	}
	if base.Replay == nil || base.Replay.Ratio == 0 {
		log.Fatal("baseline has no replay_parallel_pr6 or replay_parallel_pr4 series")
	}
	serial, parallel := m["BenchmarkReplaySerial"], m["BenchmarkReplayParallel"]
	if serial == 0 || parallel == 0 {
		log.Fatal("input is missing BenchmarkReplaySerial or BenchmarkReplayParallel results")
	}
	gateRatio(serial, parallel, base.Replay.Ratio, base.Replay.Workers, tol, "replay_parallel_pr4")
}

// gateRatio applies the machine-independent check shared by both replay
// series: measured parallel/serial must stay within tol of the committed
// ratio.
func gateRatio(serial, parallel, baseRatio float64, workers int, tol float64, series string) {
	ratio := parallel / serial
	limit := baseRatio * (1 + tol)
	fmt.Printf("replay: serial %.1fms, parallel %.1fms, parallel/serial %.3f "+
		"(%s baseline %.3f at %d workers, limit %.3f)\n",
		serial/1e6, parallel/1e6, ratio, series, baseRatio, workers, limit)
	if ratio > limit {
		log.Fatalf("parallel replay dispatch regressed: ratio %.3f exceeds %.3f "+
			"(baseline %.3f +%.0f%%)", ratio, limit, baseRatio, 100*tol)
	}
	fmt.Println("benchguard: parallel replay dispatch within baseline")
}

// guardIngest enforces the trace-decode front-end baseline: the
// measured mapped-over-reader decode-cost ratio from BenchmarkIngest
// must stay at or below the committed gate_ratio. Both paths decode the
// same records on the same box, so the gated number is machine-speed
// independent — it moves only when the mapped batch path loses its
// edge over the per-record reader loop (a copy sneaking back into the
// zero-copy decode, batching lost, the mapping silently falling back).
// No tolerance is applied: the baseline ratio sits well under the gate,
// so the gate itself is the headroom.
func guardIngest(base baseline, m map[string]float64) {
	if base.Ingest == nil || base.Ingest.GateRatio == 0 {
		log.Fatal("baseline has no ingest_pr7 series")
	}
	reader, mapped := m["reader"], m["mapped"]
	if reader == 0 || mapped == 0 {
		log.Fatal("input is missing BenchmarkIngest/reader or BenchmarkIngest/mapped results")
	}
	ratio := mapped / reader
	fmt.Printf("ingest: reader %.0fns, mapped %.0fns per pass, mapped/reader %.3f "+
		"(ingest_pr7 baseline %.3f, gate %.3f)\n",
		reader, mapped, ratio, base.Ingest.Ratio, base.Ingest.GateRatio)
	if batch := m["batch"]; batch != 0 {
		fmt.Printf("ingest: batch %.0fns per pass, batch/reader %.3f (not gated)\n",
			batch, batch/reader)
	}
	if ratio > base.Ingest.GateRatio {
		log.Fatalf("mapped decode lost its edge: mapped/reader %.3f exceeds gate %.3f "+
			"(the mapped batch path must stay >=%.1fx faster than the per-record reader)",
			ratio, base.Ingest.GateRatio, 1/base.Ingest.GateRatio)
	}
	fmt.Println("benchguard: trace-decode front-end within baseline")
}

// guardFaultFree enforces the fault-model overhead baseline: the
// fault-disabled engine run must stay within the committed gate_ratio
// of the plain engine on the identical fixture. Both benchmarks run on
// the same box in the same process, so the gated ratio is machine-speed
// independent; it moves only when fault bookkeeping leaks into the
// fault-disabled write path (a map lookup that stopped compiling down
// to a nil check, wear tracking created unconditionally, and so on).
// The fault-enabled time is reported for context but never gated.
func guardFaultFree(base baseline, m map[string]float64) {
	if base.FaultFree == nil || base.FaultFree.GateRatio == 0 {
		log.Fatal("baseline has no fault_free_pr8 series")
	}
	plain, off := m["plain"], m["off"]
	if plain == 0 || off == 0 {
		log.Fatal("input is missing BenchmarkEngineRun/workers=4/ingest=off or BenchmarkEngineRunFaults/off results")
	}
	ratio := off / plain
	fmt.Printf("faultfree: plain %.1fms, faults-off %.1fms, off/plain %.3f "+
		"(fault_free_pr8 baseline %.3f, gate %.3f)\n",
		plain/1e6, off/1e6, ratio, base.FaultFree.Ratio, base.FaultFree.GateRatio)
	if on := m["on"]; on != 0 {
		fmt.Printf("faultfree: faults-on %.1fms, on/plain %.3f (not gated)\n", on/1e6, on/plain)
	}
	if ratio > base.FaultFree.GateRatio {
		log.Fatalf("fault-disabled replay regressed: off/plain %.3f exceeds gate %.3f "+
			"(the fault model must cost nothing when disabled)", ratio, base.FaultFree.GateRatio)
	}
	fmt.Println("benchguard: fault-disabled replay within baseline")
}

// guardArena enforces the plane-native line-store baseline: serial
// replay on the cell-vector reference store must stay at or above
// gate_ratio times the plane-arena replay of the same fixture. The
// two runs share a process and a box, so the ratio never moves with
// machine speed — only with the arena path's actual edge over
// cell-vector storage with per-write map lookups.
func guardArena(base baseline, m map[string]float64) {
	if base.Arena == nil || base.Arena.GateRatio == 0 {
		log.Fatal("baseline has no replay_arena_pr9 series")
	}
	planes, scalar := m["storage=planes"], m["storage=scalar"]
	if planes == 0 || scalar == 0 {
		log.Fatal("input is missing BenchmarkReplayStorage/storage=planes or /storage=scalar results")
	}
	ratio := scalar / planes
	fmt.Printf("arena: planes %.1fms, scalar %.1fms, scalar/planes %.3f "+
		"(replay_arena_pr9 baseline %.3f, gate %.3f)\n",
		planes/1e6, scalar/1e6, ratio, base.Arena.Ratio, base.Arena.GateRatio)
	if ratio < base.Arena.GateRatio {
		log.Fatalf("plane-native store lost its edge: scalar/planes %.3f fell below gate %.3f "+
			"(the arena path must stay >=%.2fx faster than the scalar reference)",
			ratio, base.Arena.GateRatio, base.Arena.GateRatio)
	}
	fmt.Println("benchguard: plane-native line store within baseline")
}

// parseArenaBench extracts the mean ns/op of the BenchmarkReplayStorage
// sub-benchmarks, keyed by storage mode (storage=planes, storage=scalar).
func parseArenaBench(r io.Reader) (map[string]float64, error) {
	return parseBenchLines(r, func(name string) (string, bool) {
		return strings.CutPrefix(name, "BenchmarkReplayStorage/")
	})
}

// parseFaultFreeBench extracts the mean ns/op of the fault-overhead
// trio in one pass: the plain PR 7 engine fixture plus the faults
// benchmark's off/on modes.
func parseFaultFreeBench(r io.Reader) (map[string]float64, error) {
	return parseBenchLines(r, func(name string) (string, bool) {
		if name == "BenchmarkEngineRun/workers=4/ingest=off" {
			return "plain", true
		}
		return strings.CutPrefix(name, "BenchmarkEngineRunFaults/")
	})
}

// parseIngestBench extracts the mean ns/op of the BenchmarkIngest
// sub-benchmarks, keyed by path name (reader, batch, mapped).
func parseIngestBench(r io.Reader) (map[string]float64, error) {
	return parseBenchLines(r, func(name string) (string, bool) {
		return strings.CutPrefix(name, "BenchmarkIngest/")
	})
}

// parseReplayBench extracts the mean ns/op of every replay benchmark in
// one pass (the input reader cannot rewind): the PR 6 scaling series
// keyed "workers=N" plus the legacy serial/parallel pair keyed by full
// benchmark name.
func parseReplayBench(r io.Reader) (map[string]float64, error) {
	return parseBenchLines(r, func(name string) (string, bool) {
		if k, ok := strings.CutPrefix(name, "BenchmarkReplayParallelScaling/"); ok {
			return k, true
		}
		if name == "BenchmarkReplaySerial" || name == "BenchmarkReplayParallel" {
			return name, true
		}
		return "", false
	})
}

// geomean returns the geometric mean of m over names.
func geomean(m map[string]float64, names []string) float64 {
	var logSum float64
	for _, n := range names {
		logSum += math.Log(m[n])
	}
	return math.Exp(logSum / float64(len(names)))
}

// parseBench extracts ns/op per scheme from BenchmarkEncodeInto lines,
// averaging repeated -count runs.
func parseBench(r io.Reader) (map[string]float64, error) {
	return parseBenchLines(r, func(name string) (string, bool) {
		return strings.CutPrefix(name, "BenchmarkEncodeInto/")
	})
}

// parseBenchLines scans `go test -bench` output and returns mean ns/op
// per key (averaging -count repeats). match maps a benchmark name to its
// result key, or rejects the line. Each line is offered to match twice:
// as printed, and with the trailing "-N" stripped. Whether that suffix
// is Go's -GOMAXPROCS decoration or part of the benchmark's own name
// (BenchmarkEncodeInto/WLCRC-16 on a GOMAXPROCS=1 box has no decoration)
// cannot be told apart locally, so both candidate keys are recorded —
// the wrong variant never matches a committed baseline name, while
// picking one interpretation silently dropped real schemes from the
// gate on single-CPU machines.
func parseBenchLines(r io.Reader, match func(name string) (key string, ok bool)) (map[string]float64, error) {
	sum := map[string]float64{}
	cnt := map[string]int{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		raw := fields[0]
		names := []string{raw}
		if i := strings.LastIndex(raw, "-"); i > 0 {
			names = append(names, raw[:i])
		}
		var keys []string
		for _, name := range names {
			if key, ok := match(name); ok {
				keys = append(keys, key)
			}
		}
		if len(keys) == 2 && keys[0] == keys[1] {
			keys = keys[:1]
		}
		if len(keys) == 0 {
			continue
		}
		var ns float64
		for i := 2; i+1 < len(fields); i++ {
			if fields[i+1] == "ns/op" {
				v, err := strconv.ParseFloat(fields[i], 64)
				if err != nil {
					return nil, fmt.Errorf("bad ns/op in %q: %v", line, err)
				}
				ns = v
				break
			}
		}
		if ns == 0 {
			continue
		}
		for _, key := range keys {
			sum[key] += ns
			cnt[key]++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(sum))
	for n, s := range sum {
		out[n] = s / float64(cnt[n])
	}
	return out, nil
}
