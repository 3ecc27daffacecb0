package wlcrc_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// duplicateKeys reports every mapping key that appears twice in one
// block mapping of a YAML document, as "line N: key". It understands the
// subset of YAML the CI workflows use: block mappings nested by
// indentation, block sequences of mappings ("- key: value"), block
// scalars ("run: |"), comments, and flow values on one line. GitHub
// Actions rejects a workflow with a duplicate key, so a job whose header
// line was lost — merging its body into the job above — would otherwise
// silently stop every gate in the file from running.
func duplicateKeys(doc string) []string {
	type scope struct {
		indent int
		keys   map[string]bool
	}
	var stack []scope
	var dups []string
	block := -1 // indent of the key owning an open block scalar
	for n, line := range strings.Split(doc, "\n") {
		text := strings.TrimLeft(line, " ")
		indent := len(line) - len(text)
		if block >= 0 && (indent > block || strings.TrimSpace(text) == "") {
			continue // block scalar content
		}
		block = -1
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		// A sequence item opens a fresh mapping two columns in.
		if strings.HasPrefix(text, "- ") || text == "-" {
			indent += 2
			for len(stack) > 0 && stack[len(stack)-1].indent >= indent {
				stack = stack[:len(stack)-1]
			}
			stack = append(stack, scope{indent, map[string]bool{}})
			text = strings.TrimSpace(strings.TrimPrefix(text, "-"))
		}
		colon := strings.Index(text, ":")
		if colon <= 0 || (colon+1 < len(text) && text[colon+1] != ' ') {
			continue // not a "key:" line
		}
		key := text[:colon]
		for len(stack) > 0 && stack[len(stack)-1].indent > indent {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 || stack[len(stack)-1].indent < indent {
			stack = append(stack, scope{indent, map[string]bool{}})
		}
		if top := stack[len(stack)-1]; top.keys[key] {
			dups = append(dups, fmt.Sprintf("line %d: %s", n+1, key))
		} else {
			top.keys[key] = true
		}
		if v := strings.TrimSpace(text[colon+1:]); strings.HasPrefix(v, "|") || strings.HasPrefix(v, ">") {
			block = indent
		}
	}
	return dups
}

func TestDuplicateKeysDetectsMergedJob(t *testing.T) {
	// A job whose successor lost its header: the second runs-on/steps
	// pair lands in the first job.
	doc := `jobs:
  test:
    runs-on: ubuntu-latest
    steps:
      - uses: actions/checkout@v4
      - name: Test
        run: |
          go test ./...
          name: not a key
  server-e2e:
    runs-on: ubuntu-latest
    steps:
      - name: Smoke
        run: ./smoke.sh
    runs-on: ubuntu-latest
    steps:
      - name: Bench
        run: go test -bench .
`
	got := duplicateKeys(doc)
	want := []string{"line 15: runs-on", "line 16: steps"}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("duplicateKeys = %q, want %q", got, want)
	}
	fixed := strings.Replace(doc, "        run: ./smoke.sh\n", "        run: ./smoke.sh\n  bench-guard:\n", 1)
	if got := duplicateKeys(fixed); len(got) != 0 {
		t.Errorf("duplicateKeys of the repaired workflow = %q, want none", got)
	}
}

// TestWorkflowsHaveNoDuplicateKeys scans every CI workflow.
func TestWorkflowsHaveNoDuplicateKeys(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(".github", "workflows", "*.y*ml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no workflow files found")
	}
	for _, f := range files {
		doc, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range duplicateKeys(string(doc)) {
			t.Errorf("%s: duplicate key at %s", f, d)
		}
	}
}

// benchCommand is one `go test -bench P ... PKG` invocation found in a
// workflow: the -bench pattern and the package directory it runs in.
type benchCommand struct {
	line    int
	pattern string
	pkg     string
}

// benchCmd matches one single-line `go test ... -bench P ... PKG`
// invocation, capturing the -bench pattern and the first package
// argument after it ("." or "./...").
var benchCmd = regexp.MustCompile(`go test .*?-bench[ =]'?([^' ]+)'?.*? (\.|\./\S*)(?:\s|$)`)

// benchCommands extracts every `go test` command with a -bench flag
// from a workflow document, one command per line.
func benchCommands(doc string) []benchCommand {
	var out []benchCommand
	for n, line := range strings.Split(doc, "\n") {
		if m := benchCmd.FindStringSubmatch(line); m != nil {
			out = append(out, benchCommand{line: n + 1, pattern: m[1], pkg: m[2]})
		}
	}
	return out
}

// benchFuncs returns the names of the top-level benchmark functions
// declared in the _test.go files of dir.
func benchFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	decl := regexp.MustCompile(`(?m)^func (Benchmark\w*)\(b \*testing\.B\)`)
	var names []string
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			names = append(names, m[1])
		}
	}
	return names
}

// checkBenchPattern reports an error unless the -bench pattern matches
// at least one Benchmark function of the package in dir (the pattern's
// first '/'-separated element is what Go matches against top-level
// benchmark names).
func checkBenchPattern(t *testing.T, where, pattern, dir string) {
	t.Helper()
	top, _, _ := strings.Cut(pattern, "/")
	re, err := regexp.Compile(top)
	if err != nil {
		t.Errorf("%s: bad -bench pattern %q: %v", where, pattern, err)
		return
	}
	if !slices.ContainsFunc(benchFuncs(t, dir), re.MatchString) {
		t.Errorf("%s: -bench %q matches no benchmark in %s", where, pattern, dir)
	}
}

// TestWorkflowBenchPatternsMatch guards the benchmark steps of every
// workflow: `go test -bench P` exits 0 when P matches nothing, so a
// step left pointing at a package a benchmark has moved out of would
// silently measure nothing — and a gate reading its output would fail
// only for lack of input, or not at all. Every -bench pattern must
// match at least one Benchmark function of the package its command
// runs in.
func TestWorkflowBenchPatternsMatch(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(".github", "workflows", "*.y*ml"))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, f := range files {
		doc, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, bc := range benchCommands(string(doc)) {
			checkBenchPattern(t, fmt.Sprintf("%s:%d", f, bc.line), bc.pattern, bc.pkg)
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no -bench commands found in the workflows")
	}
}

// repoBenchFuncs returns the names of every top-level benchmark
// function declared in a _test.go file anywhere in the repository.
func repoBenchFuncs(t *testing.T) []string {
	t.Helper()
	var names []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() && path != "." {
			names = append(names, benchFuncs(t, path)...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return append(names, benchFuncs(t, ".")...)
}

// TestWorkflowBenchmarkNamesExist extends the -bench pattern check to
// every Benchmark identifier written anywhere in a workflow — sed
// expressions, comments and step names included — so renaming or
// deleting a benchmark cannot leave a step silently rewriting or
// filtering rows that no longer exist. Each identifier must name a
// benchmark function of the repository: be its name, or a prefix of it
// as an unanchored -bench pattern matches.
func TestWorkflowBenchmarkNamesExist(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(".github", "workflows", "*.y*ml"))
	if err != nil {
		t.Fatal(err)
	}
	funcs := repoBenchFuncs(t)
	ident := regexp.MustCompile(`Benchmark\w+`)
	checked := 0
	for _, f := range files {
		doc, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(doc), "\n") {
			for _, id := range ident.FindAllString(line, -1) {
				checked++
				if !slices.ContainsFunc(funcs, func(fn string) bool { return strings.HasPrefix(fn, id) }) {
					t.Errorf("%s:%d: %s names no benchmark function", f, n+1, id)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no Benchmark identifiers found in the workflows")
	}
}

// gateRow is the command half of one row of the BENCH_encode.json gate
// table, which the bench-guard CI job runs for every row.
type gateRow struct {
	Name      string `json:"name"`
	Pkg       string `json:"pkg"`
	Bench     string `json:"bench"`
	Benchtime string `json:"benchtime"`
	Count     int    `json:"count"`
}

// TestGateRowsBenchPatternsMatch applies the workflow check to the
// commands the bench-guard job takes from the gate table: every row's
// -bench pattern must match a Benchmark function in its package, and
// every field the job splits `benchguard -list` lines into must be one
// non-empty word.
func TestGateRowsBenchPatternsMatch(t *testing.T) {
	raw, err := os.ReadFile("BENCH_encode.json")
	if err != nil {
		t.Fatal(err)
	}
	var table struct {
		Gates []gateRow `json:"gates"`
	}
	if err := json.Unmarshal(raw, &table); err != nil {
		t.Fatal(err)
	}
	if len(table.Gates) == 0 {
		t.Fatal("BENCH_encode.json has no gate rows")
	}
	for _, r := range table.Gates {
		fields := []string{r.Name, r.Pkg, r.Bench, r.Benchtime}
		if slices.ContainsFunc(fields, func(f string) bool { return f == "" || strings.ContainsAny(f, " \t\n") }) || r.Count <= 0 {
			t.Errorf("BENCH_encode.json gate %+v: name, pkg, bench and benchtime must be single words, count positive", r)
			continue
		}
		checkBenchPattern(t, "BENCH_encode.json gate "+r.Name, r.Bench, r.Pkg)
	}
}

// jobText returns the body of the named job of a workflow document: the
// lines after its "  name:" header up to the next job.
func jobText(doc, job string) (string, bool) {
	_, rest, ok := strings.Cut(doc, "\n  "+job+":\n")
	if !ok {
		return "", false
	}
	var body []string
	for _, line := range strings.Split(rest, "\n") {
		if len(line) > 2 && line[:2] == "  " && line[2] != ' ' {
			break
		}
		body = append(body, line)
	}
	return strings.Join(body, "\n"), true
}

// TestBenchGuardJobUsesGateTable checks that the bench-guard job takes
// its commands and gates from the BENCH_encode.json table — benchguard
// -list and -gate — rather than from benchguard's retired per-mode flags.
func TestBenchGuardJobUsesGateTable(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	job, ok := jobText(string(doc), "bench-guard")
	if !ok {
		t.Fatal("ci.yml has no bench-guard job")
	}
	for _, use := range []string{"benchguard -list", "benchguard -gate"} {
		if !strings.Contains(job, use) {
			t.Errorf("bench-guard job does not call %s", use)
		}
	}
	retired := regexp.MustCompile(`benchguard\b.*\s-(replay|replay-tolerance|ingest|faultfree|arena|tolerance|series)\b`)
	for _, line := range strings.Split(job, "\n") {
		if m := retired.FindStringSubmatch(line); m != nil {
			t.Errorf("bench-guard job uses the removed benchguard flag -%s: %s", m[1], strings.TrimSpace(line))
		}
	}
}

func TestBenchCommandsParse(t *testing.T) {
	doc := `      - name: Bench smoke
        run: |
          go test -run xxx -bench 'BenchmarkReplay' -benchtime 1x .
          go test -run xxx -bench 'BenchmarkSWAR|BenchmarkScalar' -benchtime 1x ./internal/coset/
          go test -run xxx -bench 'BenchmarkEngineRun' -benchtime 2x -count 3 ./internal/sim/ | tee out.txt
      - run: cd perfbench && go test .
      - run: go test -run 'Fuzz' ./internal/sim/
`
	got := benchCommands(doc)
	want := []benchCommand{
		{line: 3, pattern: "BenchmarkReplay", pkg: "."},
		{line: 4, pattern: "BenchmarkSWAR|BenchmarkScalar", pkg: "./internal/coset/"},
		{line: 5, pattern: "BenchmarkEngineRun", pkg: "./internal/sim/"},
	}
	if !slices.Equal(got, want) {
		t.Errorf("benchCommands = %+v, want %+v", got, want)
	}
}

// fuzzPackages returns, as "./dir" paths, every package directory under
// the repository root whose _test.go files declare a Fuzz target.
func fuzzPackages(t *testing.T) []string {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func Fuzz\w*\(f \*testing\.F\)`)
	var pkgs []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if pkg := "./" + filepath.ToSlash(filepath.Dir(path)); decl.Match(src) && !slices.Contains(pkgs, pkg) {
			pkgs = append(pkgs, pkg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// stepRun returns the run text of the workflow step whose name starts
// with prefix: the "run:" line or block scalar that follows its
// "- name:" line, up to the next step.
func stepRun(doc, prefix string) (string, bool) {
	lines := strings.Split(doc, "\n")
	for i, line := range lines {
		text := strings.TrimSpace(line)
		if !strings.HasPrefix(text, "- name: "+prefix) {
			continue
		}
		var run []string
		for _, l := range lines[i+1:] {
			if strings.HasPrefix(strings.TrimSpace(l), "- ") {
				break
			}
			run = append(run, l)
		}
		return strings.Join(run, "\n"), true
	}
	return "", false
}

// packageArgs returns the "./dir" package arguments of a run text,
// trailing slashes stripped.
func packageArgs(run string) []string {
	var out []string
	for _, f := range strings.Fields(run) {
		f = strings.Trim(f, `"';`)
		if strings.HasPrefix(f, "./") {
			out = append(out, strings.TrimSuffix(f, "/"))
		}
	}
	return out
}

// TestWorkflowFuzzesEveryTarget guards the two fuzz steps of ci.yml:
// both list their packages by hand, so a package that gains its first
// Fuzz target would otherwise be skipped by the corpus replay and the
// live fuzz smoke alike. Every package declaring a Fuzz target must be
// listed in both steps.
func TestWorkflowFuzzesEveryTarget(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs := fuzzPackages(t)
	if len(pkgs) == 0 {
		t.Fatal("no Fuzz targets found")
	}
	for _, step := range []string{"Fuzz corpus replay", "Fuzz smoke"} {
		run, ok := stepRun(string(doc), step)
		if !ok {
			t.Errorf("ci.yml has no %q step", step)
			continue
		}
		listed := packageArgs(run)
		for _, pkg := range pkgs {
			if !slices.Contains(listed, pkg) {
				t.Errorf("ci.yml step %q does not fuzz %s", step, pkg)
			}
		}
	}
}

func TestStepRunParse(t *testing.T) {
	doc := `    steps:
      - name: Fuzz corpus replay (short)
        run: |
          go test -run 'Fuzz' ./internal/coset/ ./internal/vcc/
      - name: Fuzz smoke (live)
        run: |
          for pkg in ./internal/coset ./internal/pcm; do
            go test -fuzz . "$pkg"
          done
      - name: Next
        run: go test ./internal/other/
`
	run, ok := stepRun(doc, "Fuzz corpus replay")
	if got := packageArgs(run); !ok || !slices.Equal(got, []string{"./internal/coset", "./internal/vcc"}) {
		t.Errorf("corpus replay packages = %q (found %v)", got, ok)
	}
	run, ok = stepRun(doc, "Fuzz smoke")
	if got := packageArgs(run); !ok || !slices.Equal(got, []string{"./internal/coset", "./internal/pcm"}) {
		t.Errorf("fuzz smoke packages = %q (found %v)", got, ok)
	}
	if _, ok := stepRun(doc, "Missing"); ok {
		t.Error("stepRun found a step that does not exist")
	}
}
