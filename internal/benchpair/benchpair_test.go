package benchpair

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestRoundsRotateArms records the order Run's rounds call the arms
// in: every arm runs passes times in a row, and the first arm of round
// i is arm i mod 4 (Num and Den of each pair, pairs in order). Each
// pair gets one ratio per round.
func TestRoundsRotateArms(t *testing.T) {
	var calls []string
	arm := func(name string) func() {
		return func() {
			calls = append(calls, name)
			time.Sleep(time.Microsecond) // a nonzero time for every arm
		}
	}
	started := false
	const n = 6
	ratios := rounds(n, 2, func() { started = true }, []Pair{
		{Metric: "a-x/y", Num: arm("ax"), Den: arm("ay")},
		{Metric: "b-x/y", Num: arm("bx"), Den: arm("by")}})
	if !started {
		t.Fatal("rounds did not call start")
	}
	order := []string{"ax", "ay", "bx", "by"}
	var want []string
	for i := 0; i < n; i++ {
		for j := range order {
			a := order[(i+j)%len(order)]
			want = append(want, a, a)
		}
	}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("called %v, want %v", calls, want)
	}
	for k, rs := range ratios {
		if len(rs) != n {
			t.Fatalf("pair %d: %d ratios, want %d", k, len(rs), n)
		}
		for _, r := range rs {
			if !(r > 0) {
				t.Errorf("pair %d: ratio %v, want positive", k, r)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{{[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// TestOnlyTestFilesImport walks every Go file of the source tree and
// fails if a non-test file imports this package: benchmark scaffolding
// must not reach a production build.
func TestOnlyTestFilesImport(t *testing.T) {
	const self = "wlcrc/internal/benchpair"
	fset := token.NewFileSet()
	checked := 0
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && d.Name() != "." && d.Name() != "..") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		checked++
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == self {
				t.Errorf("%s imports %s; only _test.go files may", path, self)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no Go files found above the package")
	}
}
