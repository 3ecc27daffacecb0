package sim

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// golden is the pinned outcome of one determinism-matrix mode: the
// merged per-scheme metrics, the retired-line sets and the run error
// text (a *DegradedError in the stuck+repair mode, empty otherwise).
// encoding/json round-trips Metrics losslessly (TestMetricsJSONRoundTrip),
// so decoded goldens compare with reflect.DeepEqual, floats bit for bit.
type golden struct {
	Metrics []Metrics  `json:"metrics"`
	Retired [][]uint64 `json:"retired"`
	Err     string     `json:"err"`
}

// goldenPath maps a mode name to its file ("stuck+repair" becomes
// stuck-repair.json).
func goldenPath(mode string) string {
	return filepath.Join("testdata", "golden", strings.ReplaceAll(mode, "+", "-")+".json")
}

// TestGoldenMetrics pins every determinism-matrix mode's serial
// (Workers: 1) results to committed files. The matrix and the scalar
// oracle compare two paths against each other, so a change that shifts
// both — an energy-model constant, a disturbance rate, a fault-model
// draw — passes them silently; it fails here. Regenerate with
//
//	go test ./internal/sim/ -run TestGoldenMetrics -update
//
// only for an intended model change, and say why in the change log.
func TestGoldenMetrics(t *testing.T) {
	for _, mode := range matrixModes {
		t.Run(mode.name, func(t *testing.T) {
			e, err := matrixRun(t, mode, mode.src(t), 1, 1)
			got := golden{Metrics: e.Metrics(), Retired: e.RetiredLines()}
			if err != nil {
				got.Err = err.Error()
			}
			path := goldenPath(mode.name)
			if *update {
				data, err := json.MarshalIndent(got, "", " ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			var want golden
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}
			for i := range want.Metrics {
				if i < len(got.Metrics) && !reflect.DeepEqual(want.Metrics[i], got.Metrics[i]) {
					t.Errorf("%s metrics differ from %s:\n got %+v\nwant %+v",
						want.Metrics[i].Scheme, path, got.Metrics[i], want.Metrics[i])
				}
			}
			if len(want.Metrics) != len(got.Metrics) {
				t.Errorf("%d schemes, %s has %d", len(got.Metrics), path, len(want.Metrics))
			}
			if !reflect.DeepEqual(want.Retired, got.Retired) {
				t.Errorf("retired-line sets differ from %s:\n got %v\nwant %v", path, got.Retired, want.Retired)
			}
			if want.Err != got.Err {
				t.Errorf("run error differs from %s:\n got %q\nwant %q", path, got.Err, want.Err)
			}
		})
	}
}
