package exp

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"wlcrc/internal/fault"
	"wlcrc/internal/hw"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// checkGolden pins v, encoded as indented JSON, to testdata/golden/<name>.json.
// encoding/json writes every float64 as its shortest round-trip decimal,
// so equal bytes mean bit-identical numbers. Regenerate with
//
//	go test ./internal/exp/ -run Golden -update
//
// only for an intended model change, and say why in the change log.
func checkGolden(t *testing.T, name string, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden", name+".json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from %s (regenerate with -update only for an intended model change):\n%s",
			name, path, firstDiff(want, got))
	}
}

// firstDiff returns the first differing line of two golden encodings.
func firstDiff(want, got []byte) string {
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g []byte
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if !bytes.Equal(w, g) {
			return "line " + strconv.Itoa(i+1) + ":\n want " + string(w) + "\n  got " + string(g)
		}
	}
	return "(equal lines, different length)"
}

// TestGoldenSweeps pins the granularity sweeps of Figures 1–3 and 5,
// the Figure 11–13 study — every line-coset, 3-r-cosets and WLC+Ncosets
// granularity the experiments replay — the Figure 4 compression
// coverage and the Figure 14 energy-scaling sweep.
func TestGoldenSweeps(t *testing.T) {
	cfg := smallConfig()
	fig1a, _ := Figure1(cfg, true)
	fig1b, _ := Figure1(cfg, false)
	fig2, _ := Figure2(cfg)
	fig3, _ := Figure3(cfg)
	fig4, _ := Figure4(cfg)
	fig5, _ := Figure5(cfg)
	fig14, _ := Figure14(cfg)
	gran, _ := GranularityStudy(cfg)
	checkGolden(t, "sweeps", map[string]any{
		"fig1a": fig1a, "fig1b": fig1b, "fig2": fig2, "fig3": fig3, "fig4": fig4,
		"fig5": fig5, "fig14": fig14, "granularity": gran,
	})
}

// goldenEval is one (benchmark, scheme) cell of the Figure 8/9/10
// matrix.
type goldenEval struct {
	Benchmark, Scheme        string
	Energy, Updated, Disturb float64
}

// TestGoldenEvaluation pins RunEvaluation's per-benchmark, per-scheme
// Figure 8 energy, Figure 9 updated cells and Figure 10 disturbance,
// and the headline numbers of both halves of the paper's results: the
// §VII comparisons `experiments -run headline` prints from the same
// evaluation, one line each, and the §VI.B hardware cost model of
// `experiments -run hw`.
func TestGoldenEvaluation(t *testing.T) {
	ev := RunEvaluation(smallConfig())
	var rows []goldenEval
	for _, r := range ev.Results {
		rows = append(rows, goldenEval{r.Benchmark, r.Scheme,
			r.M.AvgEnergy(), r.M.AvgUpdated(), r.M.AvgDisturb()})
	}
	checkGolden(t, "evaluation", rows)
	checkGolden(t, "headline", map[string]any{
		"headline": strings.Split(strings.TrimSuffix(ev.Headline(), "\n"), "\n"),
		"hw":       hw.Estimate(hw.FreePDK45(), hw.WLCRCDesign()),
	})
}

// goldenEndurance is an EnduranceRow with the lifetime ratio as text,
// since JSON has no infinity.
type goldenEndurance struct {
	Scheme    string
	F         fault.Stats
	LifetimeX string
}

// TestGoldenEnduranceAndEmbedding pins the endurance study (which runs
// 6cosets' stuck-aware re-encode) at its own test's scale, and the
// embedding ablation.
func TestGoldenEnduranceAndEmbedding(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WritesPerBenchmark = 1500
	rows, _ := EnduranceStudy(cfg)
	var end []goldenEndurance
	for _, r := range rows {
		end = append(end, goldenEndurance{r.Scheme, r.F, strconv.FormatFloat(r.LifetimeX, 'g', -1, 64)})
	}
	checkGolden(t, "endurance", end)
	checkGolden(t, "ablation-embedding", embeddingRows(smallConfig()))
}

// TestGoldenWLCRCVariants pins the runs of WLCRC's §VIII.D tie rule and
// §XI disturbance pricing: the threshold and lambda ablations, the
// §VIII.D study, and the encrypted study, whose WLCRC-16 and
// Enc(WLCRC-16) rows run WLCRC's codec on plaintext and ciphertext.
func TestGoldenWLCRCVariants(t *testing.T) {
	cfg := smallConfig()
	multi, _ := MultiObjective(cfg)
	checkGolden(t, "wlcrc-variants", map[string]any{
		"ablation-multiobj": multiObjectiveRows(cfg, []float64{0.01, 0.05, 0.2}),
		"ablation-disturb":  disturbAwareRows(cfg, []float64{500, 1000, 2000}),
		"multiobj":          multi,
	})
	rows, _ := EncryptedStudy(cfg)
	checkGolden(t, "encrypted", rows)
}
