// Command benchguard gates CI on the benchmark table committed in
// BENCH_encode.json.
//
// The table's "gates" key holds one row per `go test -bench` invocation:
// a name, the package, -bench pattern, -benchtime and -count to run —
// the only place that command is written down — and one or more checks
// on its output. Every check has one form: the value benchmark num
// reported with b.ReportMetric under the unit metric, averaged across
// the -count repeats, must stay at or below max (or at or above min).
// The benchmarks the rows run are in-process paired rungs
// (internal/benchpair): each times two code paths round-robin on one
// box and reports their time ratio itself, so a check needs no baseline
// measured on another machine or day.
//
// Keys are full benchmark names with Go's -GOMAXPROCS suffix stripped
// (BenchmarkIngestPaired). A key a check names but the run lacks fails
// the gate, so a renamed or dropped benchmark cannot silently leave it,
// and a field the table does not define fails loading, so a misspelt or
// leftover one cannot silently drop a bound. The table's "history" key
// keeps the measured records that gate nothing; benchguard never reads
// it.
//
//	benchguard -list                    # one "name pkg bench benchtime count" line per row
//	go test -run xxx -bench BenchmarkIngestPaired -benchtime 40x -count 1 ./internal/trace/ | benchguard -gate ingest
//	benchguard -gate ingest bench-ingest.txt
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strconv"
	"strings"
)

// table is BENCH_encode.json. Its rows and checks may also carry a
// "comment" explaining them.
type table struct {
	Comment string          `json:"comment"`
	Gates   []row           `json:"gates"`
	History json.RawMessage `json:"history"`
}

// row is one `go test -bench` invocation and the checks gated on its
// output.
type row struct {
	Name      string  `json:"name"`
	Comment   string  `json:"comment"`
	Pkg       string  `json:"pkg"`
	Bench     string  `json:"bench"`
	Benchtime string  `json:"benchtime"`
	Count     int     `json:"count"`
	Checks    []check `json:"checks"`
}

// check bounds the value benchmark Num reported under the unit Metric
// by Max (at or below) or Min (at or above).
type check struct {
	Comment string  `json:"comment"`
	Num     string  `json:"num"`
	Metric  string  `json:"metric"`
	Max     float64 `json:"max"`
	Min     float64 `json:"min"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchguard: ")
	var (
		basePath = flag.String("baseline", "BENCH_encode.json", "committed gate table")
		gateName = flag.String("gate", "", "gate bench output (the file argument, or stdin) with the named row")
		list     = flag.Bool("list", false, `print one "name pkg bench benchtime count" line per row and exit`)
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
	case *gateName != "":
		i := slices.IndexFunc(t.Gates, func(r row) bool { return r.Name == *gateName })
		if i < 0 {
			log.Fatalf("%s has no gate %q", *basePath, *gateName)
		}
		r := t.Gates[i]
		m, err := measured()
		if err != nil {
			log.Fatal(err)
		}
		if err := r.gate(m); err != nil {
			log.Fatalf("gate %s failed:\n%v", r.Name, err)
		}
		fmt.Printf("benchguard: gate %s within bounds\n", r.Name)
	default:
		log.Fatal("need -gate <name> or -list")
	}
}

// loadTable reads the gate table at path. A field the table does not
// define fails loading; checking the rows' values is left to the gates,
// so a check with a missing field fails rather than passes.
func loadTable(path string) (*table, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var t table
	if err := dec.Decode(&t); err != nil {
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
		errs = append(errs, c.gate(m))
	}
	return errors.Join(errs...)
}

// gate bounds c's metric in m.
func (c check) gate(m map[string]float64) error {
	if c.Num == "" || c.Metric == "" || (c.Max > 0) == (c.Min > 0) {
		return fmt.Errorf("check %q %q needs num, metric and exactly one of max and min", c.Num, c.Metric)
	}
	key := metricKey(c.Num, c.Metric)
	v := m[key]
	if v <= 0 {
		return fmt.Errorf("no %s result in the run", key)
	}
	bound, op, ok := c.Max, "<=", v <= c.Max
	if c.Min > 0 {
		bound, op, ok = c.Min, ">=", v >= c.Min
	}
	fmt.Printf("%s = %.4f (gate %s %.4f)\n", key, v, op, bound)
	if !ok {
		return fmt.Errorf("%s = %.4f, want %s %.4f", key, v, op, bound)
	}
	return nil
}

// metricKey is the key parseBench records benchmark name's value of a
// unit under: the name and the unit, space-separated.
func metricKey(name, unit string) string { return name + " " + unit }

// measured returns the map to gate, parsed from bench output: the first
// positional argument, or stdin.
func measured() (map[string]float64, error) {
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

// parseBench scans `go test -bench` output and returns the mean of
// every value on a benchmark's result line — ns/op, b.ReportMetric
// values, MB/s, B/op — under metricKey(name, unit), averaging -count
// repeats. Each result is recorded twice: under its name as printed,
// and with the trailing "-N" stripped.
// Whether that suffix is Go's -GOMAXPROCS decoration or part of the
// benchmark's own name (BenchmarkEncodePlanesInto/WLCRC-16 on a GOMAXPROCS=1
// box has no decoration) cannot be told apart locally, so both candidate
// keys are recorded — the wrong variant never matches a committed key,
// while picking one interpretation silently dropped real keys from
// the gate on single-CPU machines.
func parseBench(r io.Reader) (map[string]float64, error) {
	sum := map[string]float64{}
	cnt := map[string]int{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if slices.Index(fields, "ns/op") < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		names := []string{fields[0]}
		if dash := strings.LastIndex(fields[0], "-"); dash > 0 {
			names = append(names, fields[0][:dash])
		}
		// Fields from the third on are value-unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad %s in %q: %w", fields[i+1], sc.Text(), err)
			}
			for _, name := range names {
				key := metricKey(name, fields[i+1])
				sum[key] += v
				cnt[key]++
			}
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
