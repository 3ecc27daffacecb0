package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"wlcrc/internal/store"
)

// TestMeasuredFromStore exercises the -from-store source: the latest
// point of the series named after the gate — by timestamp, with append
// order breaking ties — must come back verbatim as the measured map.
func TestMeasuredFromStore(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const reader, mapped = "BenchmarkIngest/reader", "BenchmarkIngest/mapped"
	pts := []store.SeriesPoint{
		{Name: "ingest", JobID: "a", Unix: 100, Values: map[string]float64{reader: 300000, mapped: 200000}},
		{Name: "ingest", JobID: "b", Unix: 300, Values: map[string]float64{reader: 309412, mapped: 40380, "BenchmarkIngest/batch": 64717}},
		{Name: "ingest", JobID: "c", Unix: 200, Values: map[string]float64{reader: 1, mapped: 1}},
		{Name: "other", JobID: "d", Unix: 900, Values: map[string]float64{"x": 1}},
	}
	for _, p := range pts {
		if err := st.PutSeries(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := measured(dir, "ingest")
	if err != nil {
		t.Fatal(err)
	}
	if want := pts[1].Values; !reflect.DeepEqual(got, want) {
		t.Fatalf("measured = %v, want the Unix=300 point %v", got, want)
	}
	for _, r := range committedTable(t).Gates {
		if err := r.gate(got); r.Name == "ingest" && err != nil {
			t.Fatalf("the committed ingest gate rejects the stored point: %v", err)
		}
	}
	if _, err := measured(dir, "replay"); err == nil {
		t.Fatal("a gate without a recorded series must be an error")
	}
}

// TestMeasuredParsesInput covers the default (no -from-store) source:
// bench text through the generic parser, averaged across -count
// repeats. Each line is recorded under both its verbatim and its
// suffix-stripped name (the "-N" GOMAXPROCS decoration is locally
// ambiguous); only the stripped names match committed gate keys.
func TestMeasuredParsesInput(t *testing.T) {
	in := strings.NewReader(strings.Join([]string{
		"goos: linux",
		"BenchmarkIngest/reader-2 100 300000 ns/op",
		"BenchmarkIngest/reader-2 100 310000 ns/op",
		"BenchmarkIngest/mapped-2 100 40000 ns/op 0 B/op",
		"BenchmarkEncodeInto/WLCRC-16 100 1500 ns/op",
		"PASS",
	}, "\n"))
	got, err := parseBench(in)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkIngest/reader": 305000, "BenchmarkIngest/reader-2": 305000,
		"BenchmarkIngest/mapped": 40000, "BenchmarkIngest/mapped-2": 40000,
		"BenchmarkEncodeInto/WLCRC-16": 1500, "BenchmarkEncodeInto/WLCRC": 1500,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseBench = %v, want %v", got, want)
	}
}

// TestGuardSeriesDetectsRegression checks the geomean check on plain
// maps — the shape both bench text and store series reduce to. A
// uniform 2x slowdown cancels out; a single-member 2x trips it.
func TestGuardSeriesDetectsRegression(t *testing.T) {
	c := check{Kind: "geomean", Family: "test", Tolerance: 0.10,
		NSPerOp: map[string]float64{"A": 100, "B": 200, "C": 400}}
	if err := c.geomean(map[string]float64{"A": 200, "B": 400, "C": 800}); err != nil {
		t.Fatalf("uniformly slower run must not trip the gate: %v", err)
	}
	if c.geomean(map[string]float64{"A": 100, "B": 200, "C": 800}) == nil {
		t.Fatal("single-member regression must trip the gate")
	}
}

const committedPath = "../../BENCH_encode.json"

func committedTable(t *testing.T) *table {
	t.Helper()
	tab, err := loadTable(committedPath)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// committedRuns returns, per gate row, a measured map built from the
// committed numbers: the geomean baselines themselves, or the history
// record a ratio row's bound was set against, under the benchmark names
// the record's keys stand for.
func committedRuns(t *testing.T, tab *table) map[string]map[string]float64 {
	t.Helper()
	raw, err := os.ReadFile(committedPath)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		History map[string]json.RawMessage `json:"history"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	hist := file.History
	record := func(key, field string, names map[string]string) map[string]float64 {
		var rec map[string]json.RawMessage
		var ns map[string]float64
		if err := json.Unmarshal(hist[key], &rec); err != nil {
			t.Fatalf("history.%s: %v", key, err)
		}
		if err := json.Unmarshal(rec[field], &ns); err != nil || len(ns) == 0 {
			t.Fatalf("history.%s.%s: %v", key, field, err)
		}
		m := map[string]float64{}
		for k, name := range names {
			m[name] = ns[k]
		}
		return m
	}
	runs := map[string]map[string]float64{
		"replay": record("replay_parallel_pr6", "ns_per_run_by_workers", map[string]string{
			"1": "BenchmarkReplayParallelScaling/workers=1", "4": "BenchmarkReplayParallelScaling/workers=4"}),
		"ingest": record("ingest_pr7", "ns_per_pass_by_path", map[string]string{
			"reader": "BenchmarkIngest/reader", "mapped": "BenchmarkIngest/mapped"}),
		"faultfree": record("fault_free_pr8", "ns_per_run_by_mode", map[string]string{
			"plain": "BenchmarkEngineRun/workers=4/ingest=off", "off": "BenchmarkEngineRunFaults/off"}),
		"arena": record("replay_arena_pr9", "ns_per_run_by_storage", map[string]string{
			"planes": "BenchmarkReplayStorage/storage=planes", "scalar": "BenchmarkReplayStorage/storage=scalar"}),
	}
	for _, r := range tab.Gates {
		for _, c := range r.Checks {
			for k, v := range c.NSPerOp {
				if runs[r.Name] == nil {
					runs[r.Name] = map[string]float64{}
				}
				runs[r.Name][k] = v
			}
		}
	}
	return runs
}

func clone(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// TestCommittedGatesTrip pins every row of the committed table: it
// passes on the committed record, fails just past each check's bound
// and passes exactly at it, and each bound is the one CI has always
// gated with.
func TestCommittedGatesTrip(t *testing.T) {
	tab := committedTable(t)
	runs := committedRuns(t, tab)
	bounds := map[string]float64{
		"encode/pr3": 0.10, "encode/vcc_pr5": 0.10,
		"replay": 1.313, "ingest": 0.5, "faultfree": 1.05, "arena": 1.15,
	}
	seen := map[string]bool{}
	for _, r := range tab.Gates {
		run, ok := runs[r.Name]
		if !ok {
			t.Errorf("gate %s: no committed record to build a run from", r.Name)
			continue
		}
		if err := r.gate(run); err != nil {
			t.Errorf("gate %s fails on its committed record: %v", r.Name, err)
		}
		for _, c := range r.Checks {
			id, bound := r.Name, c.Max+c.Min
			if c.Kind == "geomean" {
				id, bound = r.Name+"/"+c.Family, c.Tolerance
			}
			seen[id] = true
			if want, ok := bounds[id]; !ok || bound != want {
				t.Errorf("check %s: bound %v, want %v", id, bound, want)
			}
			switch c.Kind {
			case "ratio":
				// A power-of-two denominator makes num/den exact.
				at, past := clone(run), clone(run)
				at[c.Den], past[c.Den] = 1<<20, 1<<20
				at[c.Num] = at[c.Den] * bound
				if c.Max > 0 {
					past[c.Num] = past[c.Den] * bound * 1.01
				} else {
					past[c.Num] = past[c.Den] * bound / 1.01
				}
				if err := r.gate(at); err != nil {
					t.Errorf("check %s fails exactly at its bound: %v", id, err)
				}
				if r.gate(past) == nil {
					t.Errorf("check %s passes 1%% past its bound", id)
				}
			case "geomean":
				// Slowing one of n members by f moves its geomean-normalized
				// position by f^((n-1)/n): the member drags the family mean
				// along. f below puts the position at (1+tolerance)·s; "at"
				// sits 1e-9 inside the bound, because the geomean's
				// log/exp round-trip cannot land exactly on it.
				n := float64(len(c.NSPerOp))
				f := func(s float64) float64 { return math.Pow((1+bound)*s, n/(n-1)) }
				for k := range c.NSPerOp {
					at, past := clone(run), clone(run)
					at[k] *= f(1 - 1e-9)
					past[k] *= f(1.01)
					if err := r.gate(at); err != nil {
						t.Errorf("check %s fails at its bound on %s: %v", id, k, err)
					}
					if r.gate(past) == nil {
						t.Errorf("check %s passes 1%% past its bound on %s", id, k)
					}
				}
			}
		}
	}
	for id := range bounds {
		if !seen[id] {
			t.Errorf("check %s is missing from the committed table", id)
		}
	}
}

// TestMissingKeyFailsGate drops, for every row, each benchmark its
// checks name from the committed run: the gate must fail rather than
// gate the remaining keys, so a renamed benchmark cannot leave a gate
// silently.
func TestMissingKeyFailsGate(t *testing.T) {
	tab := committedTable(t)
	runs := committedRuns(t, tab)
	for _, r := range tab.Gates {
		var keys []string
		for _, c := range r.Checks {
			keys = append(keys, c.Num, c.Den)
			keys = append(keys, sortedKeys(c.NSPerOp)...)
		}
		for _, k := range keys {
			if k == "" {
				continue
			}
			run := clone(runs[r.Name])
			delete(run, k)
			if r.gate(run) == nil {
				t.Errorf("gate %s passes without %s", r.Name, k)
			}
		}
	}
}
