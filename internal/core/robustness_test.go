package core

import (
	"testing"

	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
	"wlcrc/internal/prng"
)

// A decoder must tolerate arbitrary stored cell states without panicking
// and produce *some* line: corrupted or hostile array content (bit rot,
// uncorrected disturbance, a different scheme's leftovers) must never
// crash the memory controller model.
func TestDecodeNeverPanicsOnArbitraryStates(t *testing.T) {
	r := prng.New(20_24)
	for _, s := range allSchemes(t) {
		for trial := 0; trial < 500; trial++ {
			cells := make([]pcm.State, s.TotalCells())
			for i := range cells {
				cells[i] = pcm.State(r.Intn(pcm.NumStates))
			}
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("%s: Decode panicked on arbitrary states: %v", s.Name(), p)
					}
				}()
				_ = decodeCells(s, cells)
			}()
		}
	}
}

// Decoding another scheme's encoding must not panic either (it will of
// course produce garbage data).
func TestCrossSchemeDecodeNeverPanics(t *testing.T) {
	r := prng.New(555)
	schemes := allSchemes(t)
	for _, enc := range schemes {
		data := randomBiasedLine(r)
		cells := encodeCells(enc, InitialCells(enc.TotalCells()), &data)
		for _, dec := range schemes {
			n := dec.TotalCells()
			view := make([]pcm.State, n)
			copy(view, cells) // truncate or zero-pad to the decoder's geometry
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("%s decoding %s cells panicked: %v", dec.Name(), enc.Name(), p)
					}
				}()
				_ = decodeCells(dec, view)
			}()
		}
	}
}

// Encoding must be a pure function of (old, data): repeated calls with
// identical inputs yield identical outputs for every scheme.
func TestEncodeIsDeterministic(t *testing.T) {
	r := prng.New(404)
	for _, s := range allSchemes(t) {
		data := randomBiasedLine(r)
		old := InitialCells(s.TotalCells())
		for i := range old {
			old[i] = pcm.State(r.Intn(pcm.NumStates))
		}
		a := encodeCells(s, old, &data)
		b := encodeCells(s, old, &data)
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: nondeterministic encode at cell %d", s.Name(), i)
				break
			}
		}
	}
}

// A flipped flag cell on an encoded line must not panic the decoder
// (the raw path decodes whatever the cells hold).
func TestFlagCellCorruptionTolerated(t *testing.T) {
	r := prng.New(31337)
	for _, name := range []string{"DIN", "COC+4cosets", "WLC+4cosets", "WLCRC-16"} {
		s, err := NewScheme(name, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		data := randomBiasedLine(r)
		cells := encodeCells(s, InitialCells(s.TotalCells()), &data)
		for flag := pcm.State(0); flag < pcm.NumStates; flag++ {
			mut := append([]pcm.State(nil), cells...)
			mut[memline.LineCells] = flag
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("%s: flag %v panicked: %v", name, flag, p)
					}
				}()
				_ = decodeCells(s, mut)
			}()
		}
	}
}
