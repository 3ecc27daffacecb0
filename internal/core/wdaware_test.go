package core

import (
	"fmt"
	"slices"
	"testing"

	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
	"wlcrc/internal/prng"
)

// The §XI extension: write-disturbance-aware WLCRC trades a little
// energy for fewer expected disturbance errors.

func wdScheme(t *testing.T, lambda float64) *WLCRC {
	t.Helper()
	cfg := DefaultConfig()
	cfg.DisturbAwareLambda = lambda
	s, err := NewWLCRC(cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWDAwareName(t *testing.T) {
	if got := wdScheme(t, 500).Name(); got != "WLCRC-16(WD=500)" {
		t.Errorf("Name = %q", got)
	}
}

func TestWDAwareRoundTrip(t *testing.T) {
	s := wdScheme(t, 500)
	r := prng.New(9)
	cells := InitialCells(s.TotalCells())
	for step := 0; step < 40; step++ {
		data := randomBiasedLine(r)
		cells = encodeCells(s, cells, &data)
		if got := decodeCells(s, cells); !got.Equal(&data) {
			t.Fatalf("round trip failed at step %d", step)
		}
	}
}

func TestWDAwareReducesDisturbance(t *testing.T) {
	plain, _ := NewWLCRC(DefaultConfig(), 16)
	wd := wdScheme(t, 2000)
	em := pcm.DefaultEnergy()
	dm := pcm.DefaultDisturb()
	r := prng.New(123)

	run := func(s Scheme) (energy, disturb float64) {
		cells := InitialCells(s.TotalCells())
		for step := 0; step < 600; step++ {
			var data memline.Line
			for w := 0; w < memline.LineWords; w++ {
				data.SetWord(w, memline.SignExtend(r.Uint64()&0x3fffffff, 30))
			}
			next := encodeCells(s, cells, &data)
			energy += em.DiffWrite(cells, next, s.DataCells()).Energy()
			changed := pcm.ChangedMask(cells, next)
			disturb += dm.CountDisturb(next, changed, s.DataCells(), nil).Errors()
			cells = next
		}
		return energy, disturb
	}
	// Identical streams for both schemes.
	eP, dP := run(plain)
	r = prng.New(123)
	eW, dW := run(wd)

	if dW >= dP {
		t.Errorf("WD-aware disturbance %.1f >= plain %.1f", dW, dP)
	}
	if eW > eP*1.15 {
		t.Errorf("WD-aware energy %.0f exceeds plain %.0f by >15%%", eW, eP)
	}
	t.Logf("disturbance %.1f -> %.1f (-%.1f%%), energy %.0f -> %.0f (+%.1f%%)",
		dP, dW, 100*(1-dW/dP), eP, eW, 100*(eW/eP-1))
}

// TestWLCRCNamesDistinguishEncodings is a table over the WLCRC
// configurations: every (granularity, T, λ) names its scheme as the
// table says, no two configurations that encode differently share a
// name, and configurations that do share one (WLCRC-64 ignores T and λ)
// encode a seeded write sequence identically.
func TestWLCRCNamesDistinguishEncodings(t *testing.T) {
	cases := []struct {
		gran      int
		T, lambda float64
		want      string
	}{
		{16, 0, 0, "WLCRC-16"},
		{16, 0.01, 0, "WLCRC-16(T=1%)"},
		{16, 0.02, 0, "WLCRC-16(T=2%)"},
		{16, 0, 100, "WLCRC-16(WD=100)"},
		{16, 0, 500, "WLCRC-16(WD=500)"},
		{16, 0.01, 500, "WLCRC-16(T=1%,WD=500)"},
		{8, 0.01, 100, "WLCRC-8(T=1%,WD=100)"},
		{32, 0, 100, "WLCRC-32(WD=100)"},
		{64, 0, 0, "WLCRC-64"},
		{64, 0.01, 0, "WLCRC-64"},
		{64, 0, 500, "WLCRC-64"},
		{64, 0.01, 500, "WLCRC-64"},
	}
	// encodings[name] is the plane sequence the first configuration of
	// that name wrote; every later one of the same name must match it.
	encodings := map[string][][]uint64{}
	for _, c := range cases {
		cfg := DefaultConfig()
		cfg.MultiObjectiveT, cfg.DisturbAwareLambda = c.T, c.lambda
		s, err := NewWLCRC(cfg, c.gran)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != c.want {
			t.Errorf("gran %d T %g λ %g: Name = %q, want %q", c.gran, c.T, c.lambda, s.Name(), c.want)
		}
		r := prng.New(17)
		old := packedPlanes(InitialCells(s.TotalCells()))
		var seq [][]uint64
		for step := 0; step < 40; step++ {
			data := randomBiasedLine(r)
			dst := make([]uint64, len(old))
			s.EncodePlanesInto(dst, old, &data)
			seq = append(seq, dst)
			old = dst
		}
		prev, seen := encodings[s.Name()]
		if !seen {
			encodings[s.Name()] = seq
			continue
		}
		for step := range seq {
			if !slices.Equal(seq[step], prev[step]) {
				t.Fatalf("gran %d T %g λ %g: shares the name %q with a configuration that encodes step %d differently",
					c.gran, c.T, c.lambda, s.Name(), step)
			}
		}
	}
}

// TestWLCRCLanePath pins which WLCRC configurations the lane planner
// (encodeLanes) encodes: λ = T = 0 under an integer model whose lanes
// fit, at granularities 8, 16 and 32. The rest take the float planner.
func TestWLCRCLanePath(t *testing.T) {
	thresh, wd := DefaultConfig(), DefaultConfig()
	thresh.MultiObjectiveT = 0.01
	wd.DisturbAwareLambda = 1
	cfgs := map[string]Config{"Table II": DefaultConfig(), "T": thresh, "WD": wd}
	for i, em := range overLaneBound {
		c := DefaultConfig()
		c.Energy = em
		cfgs[fmt.Sprintf("overLaneBound[%d]", i)] = c
	}
	for name, cfg := range cfgs {
		for _, g := range []int{8, 16, 32, 64} {
			s := testWLCRC(t, cfg, g)
			want := name == "Table II" && g != 64
			if got := s.lanes != nil; got != want {
				t.Errorf("WLCRC-%d under %s: lane planner %v, want %v", g, name, got, want)
			}
		}
	}
}
