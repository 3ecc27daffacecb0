// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed wall-clock budget, checks every result it
// produces, and prints one JSON object as its last line:
//
//	go run . --workload fig8-gcc --seed 1 --seconds 10 --trace 0
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) records spans around every call into a layer and
// reports the per-layer metrics instead. See README.md for what each
// workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's final line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	tiny     bool   // smoke-test input sizes
	update   bool   // rewrite the expected-metrics digest
	expected string // directory of expected-metrics digests
	work     string // scratch directory for trace files and the store
}

// defaultSeed is the seed whose results are pinned by the digests in
// the expected directory.
const defaultSeed = 1

// setupReps is the fewest times a run builds its inputs and system;
// setup_s is the median of these. The host's speed drifts over seconds,
// so the builds are spread over the run's window (schedule.due) rather
// than taken back to back, which would sample a single stretch of it.
const setupReps = 9

// setupShare is the share of the elapsed window up to which a run
// repeats its setup besides the paced setupReps. A setup of a few
// milliseconds varies by a quarter from one build to the next, so nine
// of them give an unsteady median; at this share such a setup is built
// after nearly every pass, while one that takes as long as several
// passes is built only setupReps times.
const setupShare = 0.05

// schedule paces a run's measuring window and its setup repetitions.
type schedule struct {
	start  time.Time
	window time.Duration
}

func newSchedule(seconds float64) schedule {
	return schedule{time.Now(), time.Duration(seconds * float64(time.Second))}
}

// open reports whether the window is still open.
func (s schedule) open() bool { return time.Since(s.start) < s.window }

// due reports whether setup repetition number done (0-based) is due,
// given the seconds spent on repetitions inside the window so far:
// repetition k < setupReps is due at k/setupReps of the window, and any
// repetition is due while spent is under setupShare of the elapsed
// window.
func (s schedule) due(done int, spent float64) bool {
	elapsed := time.Since(s.start)
	return (done < setupReps && elapsed >= s.window*time.Duration(done)/setupReps) ||
		spent < setupShare*elapsed.Seconds()
}

// timed runs f and returns its wall time in seconds.
func timed(f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0).Seconds(), err
}

// run is the state one workload run accumulates: its op counts, its
// metrics, and the failures it found.
type run struct {
	cfg     config
	tr      *tracer // nil in untraced runs
	ops     int
	failed  int
	metrics map[string]metric
}

func (r *run) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// fail records one failed op and says why on standard error.
func (r *run) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s: FAILED: "+format+"\n", append([]any{r.cfg.workload}, args...)...)
}

// note prints a diagnostic line that no gate reads.
func (r *run) note(format string, args ...any) {
	fmt.Printf("# %s: "+format+"\n", append([]any{r.cfg.workload}, args...)...)
}

var workloads = map[string]func(*run) error{
	"fig8-gcc":        runLibrary,
	"mapped-baseline": runLibrary,
	"encrypted-vcc":   runLibrary,
}

func main() {
	var cfg config
	var traced int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: fig8-gcc, mapped-baseline or encrypted-vcc")
	flag.Uint64Var(&cfg.seed, "seed", defaultSeed, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured wall-clock seconds")
	flag.IntVar(&traced, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.BoolVar(&cfg.update, "update", false, "rewrite the expected-metrics digest of the default seed")
	flag.Parse()
	// Paths are relative to the repository root, where run.py starts us.
	cfg.expected = filepath.Join("perfbench", "expected")
	cfg.work = ".bench_build"
	cfg.traced = traced != 0
	rep, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// execute runs one workload and assembles its report.
func execute(cfg config) (report, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return report{}, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, names)
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return report{}, err
	}
	dir, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return report{}, err
	}
	defer os.RemoveAll(dir)
	cfg.work = dir
	r := &run{cfg: cfg, metrics: map[string]metric{}}
	if cfg.traced {
		r.tr = newTracer()
	}
	if err := fn(r); err != nil {
		return report{}, err
	}
	if r.tr != nil {
		path := filepath.Join(filepath.Dir(dir), "spans-"+cfg.workload+".json")
		if err := r.tr.write(path); err != nil {
			return report{}, err
		}
		r.note("%d spans written to %s", len(r.tr.spans), path)
	} else {
		r.set("host_mem_mb", peakRSSMB(), "MB")
	}
	r.note("ops %d failed_ops %d", r.ops, r.failed)
	return report{Correct: r.failed == 0, Attempted: r.ops, Failed: r.failed, Metrics: r.metrics}, nil
}

// deadline returns the end of a measuring window that starts now and
// lasts the given share of the configured window.
func (r *run) deadline(share float64) time.Time {
	return time.Now().Add(time.Duration(share * r.cfg.seconds * float64(time.Second)))
}

// peakRSSMB is the process's peak resident set, mapped trace pages
// included.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
