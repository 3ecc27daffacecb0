package core

import (
	"testing"

	"wlcrc/internal/compress"
	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
	"wlcrc/internal/prng"
)

// --- LineCosets (6cosets / 4cosets / 3cosets granularity sweep) ---

func TestLineCosetsAuxGeometry(t *testing.T) {
	cfg := DefaultConfig()
	six := NewLineCosets(cfg, "6cosets", coset.SixCosets(), 512)
	if six.TotalCells() != 258 {
		t.Errorf("6cosets-512 total cells = %d, want 258 (two aux symbols)", six.TotalCells())
	}
	four := NewLineCosets(cfg, "4cosets-16", coset.Table1[:], 16)
	// 32 blocks, one aux cell each.
	if four.TotalCells() != 256+32 {
		t.Errorf("4cosets-16 total cells = %d, want 288", four.TotalCells())
	}
	six8 := NewLineCosets(cfg, "6cosets-8", coset.SixCosets(), 8)
	// 64 blocks, two aux cells each: the 25% overhead of §II.C.
	if six8.TotalCells() != 256+128 {
		t.Errorf("6cosets-8 total cells = %d, want 384", six8.TotalCells())
	}
}

func TestLineCosetsRoundTripAllGranularities(t *testing.T) {
	r := prng.New(8)
	cfg := DefaultConfig()
	for _, g := range []int{8, 16, 32, 64, 128, 256, 512} {
		for _, tc := range []struct {
			name  string
			cands []coset.Mapping
		}{
			{"6cosets", coset.SixCosets()},
			{"4cosets", coset.Table1[:]},
			{"3cosets", coset.Table1[:3]},
		} {
			s := NewLineCosets(cfg, tc.name, tc.cands, g)
			cells := InitialCells(s.TotalCells())
			for step := 0; step < 5; step++ {
				data := randomBiasedLine(r)
				cells = encodeCells(s, cells, &data)
				got := decodeCells(s, cells)
				if !got.Equal(&data) {
					t.Fatalf("%s-%d: round trip failed", tc.name, g)
				}
			}
		}
	}
}

func TestLineCosetsPicksCheaperThanC1(t *testing.T) {
	// For a fresh line of all-ones data, an encoder with C2 available
	// must beat the baseline data cost.
	cfg := DefaultConfig()
	em := cfg.Energy
	s := NewLineCosets(cfg, "4cosets", coset.Table1[:], 64)
	var data memline.Line
	for i := range data {
		data[i] = 0xff
	}
	old := InitialCells(s.TotalCells())
	cells := encodeCells(s, old, &data)
	st := em.DiffWrite(old, cells, s.DataCells())
	// All-ones symbols (11) map to S1 under C2: zero writes on fresh
	// (all-S1) cells for the data region.
	if st.EnergyData != 0 {
		t.Errorf("data energy = %v, want 0 (C2 maps 11 to S1 = initial state)", st.EnergyData)
	}
}

func TestRestrictedLineCosetsRoundTrip(t *testing.T) {
	r := prng.New(21)
	cfg := DefaultConfig()
	for _, g := range []int{8, 16, 32, 64, 128} {
		s := NewRestrictedLineCosets(cfg, g)
		wantAux := (1 + 512/g + 1) / 2
		if s.TotalCells() != 256+wantAux {
			t.Errorf("3-r-cosets-%d total = %d, want %d", g, s.TotalCells(), 256+wantAux)
		}
		cells := InitialCells(s.TotalCells())
		for step := 0; step < 8; step++ {
			data := randomBiasedLine(r)
			cells = encodeCells(s, cells, &data)
			got := decodeCells(s, cells)
			if !got.Equal(&data) {
				t.Fatalf("3-r-cosets-%d: round trip failed", g)
			}
		}
	}
}

func TestRestrictedUsesFewerAuxCellsThanUnrestricted(t *testing.T) {
	cfg := DefaultConfig()
	// §V example: at 16-bit granularity, restricted needs 33 bits (17
	// cells) vs 64 bits (32 cells) for unrestricted.
	restricted := NewRestrictedLineCosets(cfg, 16)
	unrestricted := NewLineCosets(cfg, "3cosets", coset.Table1[:3], 16)
	ra := restricted.TotalCells() - 256
	ua := unrestricted.TotalCells() - 256
	if ra != 17 {
		t.Errorf("restricted aux cells = %d, want 17", ra)
	}
	if ua != 32 {
		t.Errorf("unrestricted aux cells = %d, want 32", ua)
	}
}

// --- FNW ---

func TestFNWFlipsBeneficialBlock(t *testing.T) {
	cfg := DefaultConfig()
	em := cfg.Energy
	s := NewFNW(cfg)
	// All-ones data over fresh (all-S1) cells: unflipped symbols 11->S3
	// (expensive); flipped symbols 00->S1 (free).
	var data memline.Line
	for i := range data {
		data[i] = 0xff
	}
	old := InitialCells(s.TotalCells())
	cells := encodeCells(s, old, &data)
	st := em.DiffWrite(old, cells, s.DataCells())
	if st.EnergyData != 0 {
		t.Errorf("FNW data energy = %v, want 0 after flipping", st.EnergyData)
	}
	got := decodeCells(s, cells)
	if !got.Equal(&data) {
		t.Error("FNW decode mismatch")
	}
}

func TestFNWCostNeverWorseThanBaselinePerWrite(t *testing.T) {
	// FNW includes "keep" as an option, so on any single fresh write its
	// data cost is at most the baseline's.
	r := prng.New(14)
	em := pcm.DefaultEnergy()
	fnw := NewFNW(DefaultConfig())
	base := NewBaseline()
	for trial := 0; trial < 100; trial++ {
		data := randomBiasedLine(r)
		oldF := InitialCells(fnw.TotalCells())
		oldB := InitialCells(base.TotalCells())
		fc := encodeCells(fnw, oldF, &data)
		bc := encodeCells(base, oldB, &data)
		fe := em.DiffWrite(oldF, fc, fnw.DataCells()).EnergyData
		be := em.DiffWrite(oldB, bc, base.DataCells()).EnergyData
		if fe > be {
			t.Fatalf("trial %d: FNW data energy %.0f > baseline %.0f", trial, fe, be)
		}
	}
}

// --- FlipMin ---

func TestFlipMinDeterministicMasks(t *testing.T) {
	a := NewFlipMin(DefaultConfig())
	b := NewFlipMin(DefaultConfig())
	if a.maskWords != b.maskWords {
		t.Fatal("FlipMin masks are not deterministic")
	}
	if a.maskWords[0] != [memline.LineWords]uint64{} {
		t.Error("mask 0 must be the all-zero vector")
	}
}

func TestFlipMinNeverWorseThanBaselineFreshWrite(t *testing.T) {
	r := prng.New(7)
	em := pcm.DefaultEnergy()
	fm := NewFlipMin(DefaultConfig())
	base := NewBaseline()
	for trial := 0; trial < 50; trial++ {
		data := randomBiasedLine(r)
		oldF := InitialCells(fm.TotalCells())
		fc := encodeCells(fm, oldF, &data)
		fe := em.DiffWrite(oldF, fc, fm.DataCells()).EnergyData
		oldB := InitialCells(base.TotalCells())
		bc := encodeCells(base, oldB, &data)
		be := em.DiffWrite(oldB, bc, base.DataCells()).EnergyData
		if fe > be {
			t.Fatalf("FlipMin data energy %.0f > baseline %.0f (mask 0 is identity)", fe, be)
		}
	}
}

// --- DIN ---

func TestDINCompressiblePath(t *testing.T) {
	s := NewDIN(DefaultConfig())
	var data memline.Line // zero line: trivially compressible
	if !s.Compressible(&data) {
		t.Fatal("zero line must pass the FPC+BDI gate")
	}
	cells := encodeCells(s, InitialCells(s.TotalCells()), &data)
	if cells[memline.LineCells] != flagCompressed {
		t.Error("flag must mark compressed")
	}
	got := decodeCells(s, cells)
	if !got.Equal(&data) {
		t.Error("DIN decode mismatch on zero line")
	}
}

func TestDINAvoidsHighestEnergyState(t *testing.T) {
	// The whole point of the 3-to-4 remap: no encoded payload cell may
	// sit in S4. (Raw-fallback lines may.)
	r := prng.New(55)
	s := NewDIN(DefaultConfig())
	checked := 0
	for trial := 0; trial < 200; trial++ {
		var data memline.Line
		// Small-valued words compress well under FPC.
		for w := 0; w < memline.LineWords; w++ {
			data.SetWord(w, uint64(r.Uint32()&0xffff))
		}
		if !s.Compressible(&data) {
			continue
		}
		cells := encodeCells(s, InitialCells(s.TotalCells()), &data)
		if cells[memline.LineCells] != flagCompressed {
			continue
		}
		checked++
		// The 3-to-4 remap covers the expanded payload (bits 0..491 =
		// cells 0..245); the 20 BCH parity bits are stored raw and may
		// use any state.
		for c := 0; c < dinPayloadBits/2; c++ {
			if cells[c] == pcm.S4 {
				t.Fatalf("trial %d: payload cell %d in S4", trial, c)
			}
		}
		got := decodeCells(s, cells)
		if !got.Equal(&data) {
			t.Fatalf("trial %d: decode mismatch", trial)
		}
	}
	if checked < 50 {
		t.Fatalf("only %d compressible trials; generator broken", checked)
	}
}

func TestDINUncompressibleFallsBack(t *testing.T) {
	r := prng.New(66)
	s := NewDIN(DefaultConfig())
	var data memline.Line
	r.Fill(data[:])
	if s.Compressible(&data) {
		t.Skip("random line unexpectedly compressible")
	}
	cells := encodeCells(s, InitialCells(s.TotalCells()), &data)
	if cells[memline.LineCells] != flagUncompressed {
		t.Error("flag must mark uncompressed")
	}
	if got := decodeCells(s, cells); !got.Equal(&data) {
		t.Error("raw fallback decode mismatch")
	}
}

func TestDINCorrectsInjectedDisturbance(t *testing.T) {
	// Flip up to two stored payload bits (simulated write disturbance)
	// and verify the BCH layer repairs them: decode must still return
	// the original data, and CorrectLine must report the repairs.
	s := NewDIN(DefaultConfig())
	var data memline.Line
	for w := 0; w < memline.LineWords; w++ {
		data.SetWord(w, uint64(w)*0x1111)
	}
	clean := encodeCells(s, InitialCells(s.TotalCells()), &data)
	if clean[memline.LineCells] != flagCompressed {
		t.Fatal("test line must be compressible")
	}
	for _, positions := range [][]int{{3}, {100, 350}, {0, 511}} {
		cells := append([]pcm.State(nil), clean...)
		for _, bit := range positions {
			// Disturb the cell holding this payload bit: write
			// disturbance drives a cell toward SET (S2). Flipping the
			// decoded bit via a symbol change models the corruption.
			cellIdx := bit / 2
			inv := coset.C1.Inverse()
			sym := inv[cells[cellIdx]]
			sym ^= 1 << uint(bit%2)
			cells[cellIdx] = coset.C1[sym]
		}
		planes := packedPlanes(cells)
		fixed := s.CorrectLine(planes)
		if fixed != len(positions) {
			t.Errorf("positions %v: corrected %d", positions, fixed)
		}
		var got memline.Line
		s.DecodePlanesInto(planes, &got)
		if !got.Equal(&data) {
			t.Errorf("positions %v: decode mismatch after correction", positions)
		}
	}
}

// --- COC+4cosets ---

func TestCOC4ModeSelection(t *testing.T) {
	s := NewCOC4(DefaultConfig())
	var zero memline.Line
	cells := encodeCells(s, InitialCells(s.TotalCells()), &zero)
	if cells[memline.LineCells] != cocFlag16 {
		t.Errorf("zero line flag = %v, want 16-bit mode", cells[memline.LineCells])
	}
	// Random line: raw.
	r := prng.New(12)
	var rnd memline.Line
	r.Fill(rnd[:])
	if compress.COCSize(&rnd) <= coc32PayloadBits {
		t.Skip("random line unexpectedly compressible")
	}
	cells = encodeCells(s, InitialCells(s.TotalCells()), &rnd)
	if cells[memline.LineCells] != cocFlagRaw {
		t.Errorf("random line flag = %v, want raw", cells[memline.LineCells])
	}
}

func TestCOC4MidModeRoundTrip(t *testing.T) {
	// Construct a line whose COC size lands between 448 and 480 to hit
	// the 32-bit mode.
	r := prng.New(44)
	s := NewCOC4(DefaultConfig())
	found := false
	for trial := 0; trial < 2000 && !found; trial++ {
		var l memline.Line
		for w := 0; w < memline.LineWords; w++ {
			if w < 6 {
				l.SetWord(w, r.Uint64())
			} else {
				l.SetWord(w, uint64(r.Uint32()&0xff))
			}
		}
		size := compress.COCSize(&l)
		if size > coc16PayloadBits && size <= coc32PayloadBits {
			found = true
			cells := encodeCells(s, InitialCells(s.TotalCells()), &l)
			if cells[memline.LineCells] != cocFlag32 {
				t.Fatalf("flag = %v, want 32-bit mode", cells[memline.LineCells])
			}
			if got := decodeCells(s, cells); !got.Equal(&l) {
				t.Fatal("32-bit mode round trip failed")
			}
		}
	}
	if !found {
		t.Skip("no line hit the 32-bit window")
	}
}

// --- 6cosets candidate identification through aux pairs ---

func TestSixCosetsAuxPairsAreCheapest(t *testing.T) {
	cfg := DefaultConfig()
	s := NewLineCosets(cfg, "6cosets", coset.SixCosets(), 512)
	pairs := coset.AuxPairs(&cfg.Energy)
	for i := 0; i < 6; i++ {
		code := s.groups[0].code[i]
		if got := [2]pcm.State{pcm.State(code & 3), pcm.State(code >> 2)}; got != pairs[i] {
			t.Fatalf("aux pair %d = %v, want %v", i, got, pairs[i])
		}
	}
	// None of the six identifiers should use S4 (547pJ).
	for i, p := range pairs[:6] {
		if p[0] == pcm.S4 || p[1] == pcm.S4 {
			t.Errorf("aux pair %d uses S4: %v", i, p)
		}
	}
}

// TestSixCosetsInvalidAuxPairDecodesAsCandidate0 pins the decode
// fallback of the two-cell aux encoding: each of the six identifier
// pairs reads back as its candidate, and each of the ten pairs no
// candidate owns reads as candidate 0, so a block whose aux cells were
// corrupted decodes through candidate 0's mapping instead of failing.
func TestSixCosetsInvalidAuxPairDecodesAsCandidate0(t *testing.T) {
	r := prng.New(0x6A1)
	em := pcm.DefaultEnergy()
	pairs := coset.AuxPairs(&em)[:6]
	for _, bb := range []int{64, 512} {
		s := NewLineCosets(DefaultConfig(), "6cosets", coset.SixCosets(), bb)
		data := randomBiasedLine(r)
		planes := make([]uint64, coset.PlaneWords(s.TotalCells()))
		s.EncodePlanesInto(planes, make([]uint64, len(planes)), &data)
		var want memline.Line
		s.DecodePlanesInto(withAuxPair(planes, pairs[0]), &want)
		owned := map[[2]pcm.State]int{}
		for i, p := range pairs {
			owned[p] = i
		}
		invalid := 0
		for a := pcm.State(0); a < pcm.NumStates; a++ {
			for b := pcm.State(0); b < pcm.NumStates; b++ {
				stored := withAuxPair(planes, [2]pcm.State{a, b})
				var code [1]uint8
				readAux(stored, s.auxBit[:1], &s.groups[0], code[:])
				got := code[0]
				idx, ok := owned[[2]pcm.State{a, b}]
				if !ok {
					invalid++
				}
				if int(got) != idx {
					t.Fatalf("6cosets-%d: aux pair (%v,%v) reads as candidate %d, want %d", bb, a, b, got, idx)
				}
				if !ok {
					var l memline.Line
					s.DecodePlanesInto(stored, &l)
					if !l.Equal(&want) {
						t.Fatalf("6cosets-%d: invalid aux pair (%v,%v) does not decode as candidate 0", bb, a, b)
					}
				}
			}
		}
		if invalid != 10 {
			t.Fatalf("6cosets-%d: %d invalid pairs, want 10", bb, invalid)
		}
	}
}

// withAuxPair returns a copy of planes with block 0's two aux cells set
// to pair.
func withAuxPair(planes []uint64, pair [2]pcm.State) []uint64 {
	out := append([]uint64(nil), planes...)
	coset.PlaneSet(out, memline.LineCells, pair[0])
	coset.PlaneSet(out, memline.LineCells+1, pair[1])
	return out
}
