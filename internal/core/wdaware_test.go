package core

import (
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
	if got := wdScheme(t, 500).Name(); got != "WLCRC-16(WD)" {
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
