package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5},
	} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing is not NaN")
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("percentile of one sample = %v", got)
	}
}

func TestPassRateDropsWarmUpAndTakesFastest(t *testing.T) {
	// The warm-up pass is dropped whatever its rate; slow stretches do
	// not matter while one pass reaches the fast speed.
	rates := []float64{500, 60, 61, 100, 101, 62, 108, 63, 107, 64, 50}
	if got := passRate(rates, 1); got != 108 {
		t.Errorf("passRate = %v, want 108", got)
	}
	// Too few passes to drop any: the estimator keeps the last.
	if got := passRate([]float64{3}, 1); got != 3 {
		t.Errorf("passRate of one pass = %v", got)
	}
}

func TestScheduleDue(t *testing.T) {
	// Halfway through a 10 s window.
	s := schedule{start: time.Now().Add(-5 * time.Second), window: 10 * time.Second}
	for _, c := range []struct {
		done  int
		spent float64
		want  bool
	}{
		{4, 10, true},    // repetition 4 belongs at 4.4 s
		{5, 10, false},   // repetition 5 belongs at 5.6 s, and setup is dear
		{5, 0.1, true},   // setup is cheap: under 5% of the 5 s elapsed
		{40, 0.1, true},  // cheap setups repeat past setupReps
		{40, 0.3, false}, // until they take 5% of the window
	} {
		if got := s.due(c.done, c.spent); got != c.want {
			t.Errorf("due(%d, %v) = %v, want %v", c.done, c.spent, got, c.want)
		}
	}
}

func TestAmdahl(t *testing.T) {
	for _, c := range []struct {
		s    float64
		n    int
		want float64
	}{
		{2, 2, 0},       // perfect scaling
		{1, 2, 1},       // no scaling
		{1.6, 2, 0.25},  // 2/1.6 - 1
		{2.5, 2, 0},     // superlinear clamps
		{0.8, 2, 1},     // slowdown clamps
		{3, 4, 1.0 / 9}, // (4/3 - 1)/3
	} {
		if got := amdahl(c.s, c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("amdahl(%v, %d) = %v, want %v", c.s, c.n, got, c.want)
		}
	}
}

func TestMetricName(t *testing.T) {
	for in, want := range map[string]string{
		"COC+4cosets":   "COC4cosets",
		"WLC+4cosets":   "WLC4cosets",
		"Enc(WLCRC-16)": "Enc-WLCRC-16",
		"WLCRC-16":      "WLCRC-16",
		"6cosets":       "6cosets",
	} {
		if got := metricName(in); got != want {
			t.Errorf("metricName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestSmoke runs every workload of BENCHMARK.json at tiny size,
// untraced and traced, and checks that each reports exactly the metrics
// the file lists, with their units, and no failed op.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		name := w.Name
		for _, traced := range []bool{false, true} {
			rep, err := execute(config{workload: name, seed: defaultSeed, seconds: 0.3, traced: traced,
				tiny: true, work: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < minPasses {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := rep.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}
