package wlcrc_test

import (
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

// TestWorkflowBenchPatternsMatch guards the benchmark steps of every
// workflow: `go test -bench P` exits 0 when P matches nothing, so a
// step left pointing at a package a benchmark has moved out of would
// silently measure nothing — and a gate reading its output would fail
// only for lack of input, or not at all. Every -bench pattern must
// match at least one Benchmark function of the package its command
// runs in (the pattern's first '/'-separated element is what Go
// matches against top-level benchmark names).
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
			top, _, _ := strings.Cut(bc.pattern, "/")
			re, err := regexp.Compile(top)
			if err != nil {
				t.Errorf("%s:%d: bad -bench pattern %q: %v", f, bc.line, bc.pattern, err)
				continue
			}
			names := benchFuncs(t, bc.pkg)
			if !slices.ContainsFunc(names, re.MatchString) {
				t.Errorf("%s:%d: -bench %q matches no benchmark in %s", f, bc.line, bc.pattern, bc.pkg)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no -bench commands found in the workflows")
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
