package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"wlcrc"
)

// TestMeasuredParsesInput covers the measured source: bench text
// through the generic parser, averaged across -count repeats. Every
// value is recorded under the name and the unit, and each line under
// both its verbatim and its suffix-stripped name (the "-N" GOMAXPROCS
// decoration is locally ambiguous); only the stripped names match
// committed gate keys.
func TestMeasuredParsesInput(t *testing.T) {
	in := strings.NewReader(strings.Join([]string{
		"goos: linux",
		"BenchmarkIngest/mapped-2 100 40000 ns/op 0 B/op",
		"BenchmarkEncodePlanesInto/WLCRC-16 100 1500 ns/op",
		"BenchmarkLaneKernelPaired-2 20 2501653 ns/op 0.5 COC+4cosets-lane/float 0.375 WLCRC-16-lane/float",
		"BenchmarkLaneKernelPaired-2 20 2501653 ns/op 0.75 COC+4cosets-lane/float 0.5 WLCRC-16-lane/float",
		"PASS",
	}, "\n"))
	got, err := parseBench(in)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkIngest/mapped ns/op": 40000, "BenchmarkIngest/mapped-2 ns/op": 40000,
		"BenchmarkIngest/mapped B/op": 0, "BenchmarkIngest/mapped-2 B/op": 0,
		"BenchmarkEncodePlanesInto/WLCRC-16 ns/op": 1500, "BenchmarkEncodePlanesInto/WLCRC ns/op": 1500,
		"BenchmarkLaneKernelPaired ns/op": 2501653, "BenchmarkLaneKernelPaired-2 ns/op": 2501653,
		"BenchmarkLaneKernelPaired COC+4cosets-lane/float": 0.625, "BenchmarkLaneKernelPaired-2 COC+4cosets-lane/float": 0.625,
		"BenchmarkLaneKernelPaired WLCRC-16-lane/float": 0.4375, "BenchmarkLaneKernelPaired-2 WLCRC-16-lane/float": 0.4375,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseBench = %v, want %v", got, want)
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
// history record the row's bounds were set against: the record's
// median metric per key, under the metric key of the row's benchmark.
// A record key k stands for the metric k+suffix.
func committedRuns(t *testing.T, tab *table) map[string]map[string]float64 {
	t.Helper()
	var hist map[string]json.RawMessage
	if err := json.Unmarshal(tab.History, &hist); err != nil {
		t.Fatal(err)
	}
	records := []struct{ row, key, field, suffix string }{
		{"encode", "encode_paired", "new_over_ref_by_scheme", "-new/ref"},
		{"replay", "replay_paired", "median_by_metric", ""},
		{"ingest", "ingest_paired", "median_by_metric", ""},
		{"arena", "arena_paired", "median_by_metric", ""},
		{"lanes", "lane_kernel_paired", "lane_over_float_by_scheme", "-lane/float"},
		{"settle", "disturb_paired", "chunk_over_word_by_pool", "-chunk/word"},
		{"vcc", "vcc_paired", "new_over_ref_by_scheme", "-new/ref"},
		{"decode", "decode_paired", "new_over_ref_by_scheme", "-new/ref"},
	}
	runs := map[string]map[string]float64{}
	for _, rec := range records {
		i := slices.IndexFunc(tab.Gates, func(r row) bool { return r.Name == rec.row })
		if i < 0 {
			t.Fatalf("no gate %s", rec.row)
		}
		var fields map[string]json.RawMessage
		var vals map[string]float64
		if err := json.Unmarshal(hist[rec.key], &fields); err != nil {
			t.Fatalf("history.%s: %v", rec.key, err)
		}
		if err := json.Unmarshal(fields[rec.field], &vals); err != nil || len(vals) == 0 {
			t.Fatalf("history.%s.%s: %v", rec.key, rec.field, err)
		}
		m := map[string]float64{}
		for k, v := range vals {
			m[metricKey(tab.Gates[i].Bench, k+rec.suffix)] = v
		}
		runs[rec.row] = m
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

// encodeBounds are the encode row's per-scheme bounds on the
// <scheme>-new/ref metric of BenchmarkEncodePaired.
var encodeBounds = map[string]float64{
	"Baseline": 0.108, "FlipMin": 0.096, "FNW": 0.233, "DIN": 0.47,
	"6cosets": 0.102, "COC+4cosets": 0.292, "WLC+4cosets": 0.212, "WLC+3cosets": 0.219,
	"WLCRC-8": 0.114, "WLCRC-16": 0.13, "WLCRC-32": 0.15, "WLCRC-64": 0.123,
	"Enc(WLCRC-16)": 0.202,
}

// TestCommittedGatesTrip pins every row of the committed table: it
// passes on the committed record, fails just past each check's bound
// and passes exactly at it, and each bound is the one CI has always
// gated with.
func TestCommittedGatesTrip(t *testing.T) {
	tab := committedTable(t)
	runs := committedRuns(t, tab)
	bounds := map[string]float64{
		"replay/workers=4/workers=1": 0.9, "ingest/mapped/reader": 0.25, "arena/scalar/planes": 2.5,
		"lanes/WLCRC-16-lane/float": 0.6, "lanes/COC+4cosets-lane/float": 0.75,
		"settle/gcc-chunk/word": 0.95, "settle/ciphertext-chunk/word": 0.95,
		"vcc/VCC-2-new/ref": 0.9, "vcc/VCC-4-new/ref": 0.9, "vcc/VCC-8-new/ref": 0.9,
		"decode/WLCRC-16-new/ref": 0.6, "decode/COC+4cosets-new/ref": 0.7, "decode/DIN-new/ref": 0.9,
	}
	for name, b := range encodeBounds {
		bounds["encode/"+name+"-new/ref"] = b
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
			id, bound := r.Name+"/"+c.Metric, c.Max+c.Min
			if c.Num != r.Bench {
				t.Errorf("check %s gates %s, but its row runs %s", id, c.Num, r.Bench)
			}
			seen[id] = true
			if want, ok := bounds[id]; !ok || bound != want {
				t.Errorf("check %s: bound %v, want %v", id, bound, want)
			}
			key := metricKey(c.Num, c.Metric)
			at, past := clone(run), clone(run)
			at[key] = bound
			if c.Max > 0 {
				past[key] = bound * 1.01
			} else {
				past[key] = bound / 1.01
			}
			if err := r.gate(at); err != nil {
				t.Errorf("check %s fails exactly at its bound: %v", id, err)
			}
			if r.gate(past) == nil {
				t.Errorf("check %s passes 1%% past its bound", id)
			}
		}
	}
	for id := range bounds {
		if !seen[id] {
			t.Errorf("check %s is missing from the committed table", id)
		}
	}
}

// TestEveryEncoderGated holds every scheme the public API registers
// (wlcrc.SchemeNames, the set BenchmarkEncodePlanesInto measures) to a
// bounded new/ref check of its encoder: the VCC-n candidate sweeps in
// the vcc row, every other scheme in the encode row.
func TestEveryEncoderGated(t *testing.T) {
	tab := committedTable(t)
	gated := map[string]bool{}
	for _, r := range tab.Gates {
		for _, c := range r.Checks {
			gated[r.Name+"/"+c.Metric] = true
		}
	}
	names := wlcrc.SchemeNames()
	if len(names) != 16 {
		t.Fatalf("%d registered schemes, want 16: %v", len(names), names)
	}
	for _, name := range names {
		id := "encode/" + name + "-new/ref"
		if strings.HasPrefix(name, "VCC-") {
			id = "vcc/" + name + "-new/ref"
		}
		if !gated[id] {
			t.Errorf("%s: no check %s", name, id)
		}
	}
}

// TestMissingKeyFailsGate drops, for every row, each key its checks
// name from the committed run: the gate must fail rather than gate the
// remaining keys, so a renamed benchmark cannot leave a gate silently.
func TestMissingKeyFailsGate(t *testing.T) {
	tab := committedTable(t)
	runs := committedRuns(t, tab)
	for _, r := range tab.Gates {
		for _, c := range r.Checks {
			run := clone(runs[r.Name])
			delete(run, metricKey(c.Num, c.Metric))
			if r.gate(run) == nil {
				t.Errorf("gate %s passes without %s", r.Name, metricKey(c.Num, c.Metric))
			}
		}
	}
}

// TestCheckNeedsOneForm rejects every check that is not num, metric and
// exactly one of max and min.
func TestCheckNeedsOneForm(t *testing.T) {
	run := map[string]float64{"BenchmarkX r": 0.5}
	if err := (check{Num: "BenchmarkX", Metric: "r", Max: 1}).gate(run); err != nil {
		t.Fatalf("well-formed check fails: %v", err)
	}
	for _, c := range []check{
		{Metric: "r", Max: 1},
		{Num: "BenchmarkX", Max: 1},
		{Num: "BenchmarkX", Metric: "r"},
		{Num: "BenchmarkX", Metric: "r", Max: 1, Min: 0.1},
	} {
		if c.gate(run) == nil {
			t.Errorf("malformed check %+v passes", c)
		}
	}
}

// TestUnknownFieldFailsLoading plants a field the table does not
// define at each level of a copy of the committed table, and a stale
// field of the retired check kinds: loading must fail, so a misspelt
// or leftover field cannot silently drop a bound. Comments load.
func TestUnknownFieldFailsLoading(t *testing.T) {
	raw, err := os.ReadFile(committedPath)
	if err != nil {
		t.Fatal(err)
	}
	load := func(edit func(file, row, chk map[string]any)) error {
		var file map[string]any
		if err := json.Unmarshal(raw, &file); err != nil {
			t.Fatal(err)
		}
		row := file["gates"].([]any)[0].(map[string]any)
		edit(file, row, row["checks"].([]any)[0].(map[string]any))
		out, err := json.Marshal(file)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "gates.json")
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = loadTable(path)
		return err
	}
	if err := load(func(file, row, chk map[string]any) { chk["comment"] = "kept" }); err != nil {
		t.Fatalf("a check comment fails loading: %v", err)
	}
	for _, tc := range []struct {
		name string
		edit func(file, row, chk map[string]any)
	}{
		{"check kind", func(_, _, chk map[string]any) { chk["kind"] = "ratio" }},
		{"check den", func(_, _, chk map[string]any) { chk["den"] = "BenchmarkX" }},
		{"check ns_per_op", func(_, _, chk map[string]any) { chk["ns_per_op"] = map[string]float64{"BenchmarkX": 1} }},
		{"misspelt bound", func(_, _, chk map[string]any) { chk["maximum"] = chk["max"]; delete(chk, "max") }},
		{"row field", func(_, row, _ map[string]any) { row["tolerance"] = 0.1 }},
		{"top-level field", func(file, _, _ map[string]any) { file["baselines"] = []any{} }},
	} {
		if load(tc.edit) == nil {
			t.Errorf("%s: the table loads", tc.name)
		}
	}
}
