package wlcrc_test

import (
	"fmt"
	"os"
	"path/filepath"
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
