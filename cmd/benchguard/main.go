// Command benchguard gates CI on the benchmark table committed in
// BENCH_encode.json.
//
// The table's "gates" key holds one row per `go test -bench` invocation:
// a name, the package, -bench pattern, -benchtime and -count to run —
// the only place that command is written down — and one or more checks
// on the run's ns/op, each benchmark averaged across its -count repeats.
// There are two kinds of check:
//
//   - geomean: a family of committed per-benchmark ns/op baselines.
//     Each member's ns/op is divided by the family's geometric mean, in
//     the run and in the baseline, and the run's relative position must
//     not exceed the baseline's by more than tolerance. CI machines
//     differ in absolute speed from the box the baseline was measured
//     on; a uniformly slower machine shifts every member equally and
//     cancels out, while a hot-path regression moves one member against
//     the rest of the family and trips the gate.
//   - ratio: the num/den ns/op ratio of two benchmarks must stay at or
//     below max (or at or above min). Both sides run in one process on
//     one box, so the ratio is machine-speed independent: it moves only
//     when the numerator's path loses its edge over the denominator's.
//
// Keys are full benchmark names with Go's -GOMAXPROCS suffix stripped
// (BenchmarkIngest/mapped). A key a check names but the run lacks fails
// the gate, so a renamed or dropped benchmark cannot silently leave it.
// The table's "history" key keeps the measured records that gate
// nothing; benchguard never reads it.
//
//	benchguard -list                    # one "name pkg bench benchtime count" line per row
//	go test -run xxx -bench BenchmarkIngest -benchtime 0.5s -count 3 ./internal/trace/ | benchguard -gate ingest
//	benchguard -gate ingest bench-ingest.txt
//	benchguard -emit-baseline > old.txt # geomean baselines in benchstat format
//
// With -from-store <dir> the measured numbers come from a pcmserver
// result store instead of bench output: the latest point of the series
// named after the gate supplies the benchmark-name→ns/op map the parser
// would otherwise produce. A CI box that pushes its bench runs to the
// server over POST /v1/series can then gate any recorded run, or
// re-gate yesterday's, without keeping the raw bench logs around:
//
//	benchguard -gate ingest -from-store /var/lib/pcmserver
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"wlcrc/internal/store"
)

// table is the "gates" half of BENCH_encode.json. Its rows and checks
// may also carry a "comment" explaining them.
type table struct {
	Gates []row `json:"gates"`
}

// row is one `go test -bench` invocation and the checks gated on its
// output.
type row struct {
	Name      string  `json:"name"`
	Pkg       string  `json:"pkg"`
	Bench     string  `json:"bench"`
	Benchtime string  `json:"benchtime"`
	Count     int     `json:"count"`
	Checks    []check `json:"checks"`
}

// check is one gate on a row's output. A geomean check uses Family,
// Tolerance and NSPerOp; a ratio check uses Num, Den and one of Max and
// Min.
type check struct {
	Kind      string             `json:"kind"`
	Family    string             `json:"family,omitempty"`
	Tolerance float64            `json:"tolerance,omitempty"`
	NSPerOp   map[string]float64 `json:"ns_per_op,omitempty"`
	Num       string             `json:"num,omitempty"`
	Den       string             `json:"den,omitempty"`
	Max       float64            `json:"max,omitempty"`
	Min       float64            `json:"min,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchguard: ")
	var (
		basePath  = flag.String("baseline", "BENCH_encode.json", "committed gate table")
		gateName  = flag.String("gate", "", "gate bench output (the file argument, or stdin) with the named row")
		list      = flag.Bool("list", false, `print one "name pkg bench benchtime count" line per row and exit`)
		emit      = flag.Bool("emit-baseline", false, "print the geomean baselines as benchstat-compatible bench output and exit")
		fromStore = flag.String("from-store", "", "pcmserver result-store directory: gate the latest point of the series named after the gate instead of parsing bench output")
	)
	flag.Parse()

	t, err := loadTable(*basePath)
	if err != nil {
		log.Fatal(err)
	}
	switch {
	case *list:
		for _, r := range t.Gates {
			fmt.Println(r.Name, r.Pkg, r.Bench, r.Benchtime, r.Count)
		}
	case *emit:
		for _, r := range t.Gates {
			for _, c := range r.Checks {
				for _, k := range sortedKeys(c.NSPerOp) {
					fmt.Printf("%s 1 %g ns/op\n", k, c.NSPerOp[k])
				}
			}
		}
	case *gateName != "":
		i := slices.IndexFunc(t.Gates, func(r row) bool { return r.Name == *gateName })
		if i < 0 {
			log.Fatalf("%s has no gate %q", *basePath, *gateName)
		}
		r := t.Gates[i]
		m, err := measured(*fromStore, r.Name)
		if err != nil {
			log.Fatal(err)
		}
		if err := r.gate(m); err != nil {
			log.Fatalf("gate %s failed:\n%v", r.Name, err)
		}
		fmt.Printf("benchguard: gate %s within baseline\n", r.Name)
	default:
		log.Fatal("need -gate <name>, -list or -emit-baseline")
	}
}

// loadTable reads the gate table at path. It leaves checking the rows
// to the gates: a check with a misspelt or missing field fails rather
// than passes.
func loadTable(path string) (*table, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t table
	if err := json.Unmarshal(raw, &t); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(t.Gates) == 0 {
		return nil, fmt.Errorf("%s has no gates", path)
	}
	return &t, nil
}

// gate applies every check of r to the measured map m, printing what
// each compares, and returns the joined failures, or nil if all pass.
func (r row) gate(m map[string]float64) error {
	if len(r.Checks) == 0 {
		return fmt.Errorf("gate %s has no checks", r.Name)
	}
	var errs []error
	for _, c := range r.Checks {
		switch c.Kind {
		case "geomean":
			errs = append(errs, c.geomean(m))
		case "ratio":
			errs = append(errs, c.ratio(m))
		default:
			errs = append(errs, fmt.Errorf("gate %s: unknown check kind %q", r.Name, c.Kind))
		}
	}
	return errors.Join(errs...)
}

// geomean compares the run against the family's baselines, each side
// normalized by its own geometric mean over the family.
func (c check) geomean(m map[string]float64) error {
	keys := sortedKeys(c.NSPerOp)
	if len(keys) == 0 || c.Tolerance <= 0 {
		return fmt.Errorf("geomean family %q needs ns_per_op baselines and a tolerance", c.Family)
	}
	if err := need(m, keys...); err != nil {
		return fmt.Errorf("%s: %v", c.Family, err)
	}
	baseNorm, gotNorm := geomean(c.NSPerOp, keys), geomean(m, keys)
	var regressed []string
	for _, k := range keys {
		baseRatio, curRatio := c.NSPerOp[k]/baseNorm, m[k]/gotNorm
		delta := curRatio/baseRatio - 1
		status := "ok"
		if delta > c.Tolerance {
			status = "REGRESSION"
			regressed = append(regressed, k)
		}
		fmt.Printf("%-34s baseline %8.1f ns (x%.2f)   run %8.1f ns (x%.2f)   %+6.1f%%  %s\n",
			k, c.NSPerOp[k], baseRatio, m[k], curRatio, 100*delta, status)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%s: %s regressed beyond %.0f%% (geomean-normalized)",
			c.Family, strings.Join(regressed, ", "), 100*c.Tolerance)
	}
	return nil
}

// ratio bounds num/den by Max (at or below) or Min (at or above).
func (c check) ratio(m map[string]float64) error {
	if (c.Max > 0) == (c.Min > 0) {
		return fmt.Errorf("ratio %s/%s needs exactly one of max and min", c.Num, c.Den)
	}
	if err := need(m, c.Num, c.Den); err != nil {
		return err
	}
	num, den := m[c.Num], m[c.Den]
	ratio := num / den
	bound, op, ok := c.Max, "<=", ratio <= c.Max
	if c.Min > 0 {
		bound, op, ok = c.Min, ">=", ratio >= c.Min
	}
	fmt.Printf("%s / %s = %.0f / %.0f ns = %.3f (gate %s %.3f)\n", c.Num, c.Den, num, den, ratio, op, bound)
	if !ok {
		return fmt.Errorf("%s / %s = %.3f, want %s %.3f", c.Num, c.Den, ratio, op, bound)
	}
	return nil
}

// need reports the first of keys that has no positive ns/op in m.
func need(m map[string]float64, keys ...string) error {
	for _, k := range keys {
		if m[k] <= 0 {
			return fmt.Errorf("no %s result in the run", k)
		}
	}
	return nil
}

// geomean returns the geometric mean of m over keys.
func geomean(m map[string]float64, keys []string) float64 {
	var logSum float64
	for _, k := range keys {
		logSum += math.Log(m[k])
	}
	return math.Exp(logSum / float64(len(keys)))
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// measured returns the benchmark-name→ns/op map to gate: parsed from
// bench output (the first positional argument, or stdin) by default, or
// — with -from-store — the latest point of the series called name in a
// pcmserver result store. Store series carry exactly the map the parser
// produces (the server's POST /v1/series contract), so a gate cannot
// tell the two sources apart.
func measured(dir, name string) (map[string]float64, error) {
	if dir == "" {
		if flag.NArg() == 0 {
			return parseBench(os.Stdin)
		}
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return parseBench(f)
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	pts := st.Series(name)
	if len(pts) == 0 {
		return nil, fmt.Errorf("store %s has no series %q (recorded series: %q)", dir, name, st.SeriesNames())
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
	return best.Values, nil
}

// parseBench scans `go test -bench` output and returns the mean ns/op
// per benchmark name (averaging -count repeats). Each result is recorded
// twice: under its name as printed, and with the trailing "-N" stripped.
// Whether that suffix is Go's -GOMAXPROCS decoration or part of the
// benchmark's own name (BenchmarkEncodeInto/WLCRC-16 on a GOMAXPROCS=1
// box has no decoration) cannot be told apart locally, so both candidate
// keys are recorded — the wrong variant never matches a committed key,
// while picking one interpretation silently dropped real schemes from
// the gate on single-CPU machines.
func parseBench(r io.Reader) (map[string]float64, error) {
	sum := map[string]float64{}
	cnt := map[string]int{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		i := slices.Index(fields, "ns/op")
		if i < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		ns, err := strconv.ParseFloat(fields[i-1], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", sc.Text(), err)
		}
		keys := []string{fields[0]}
		if dash := strings.LastIndex(fields[0], "-"); dash > 0 {
			keys = append(keys, fields[0][:dash])
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
