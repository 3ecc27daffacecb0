package core

import (
	"slices"
	"testing"
	"testing/quick"

	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
	"wlcrc/internal/prng"
)

// allSchemes returns one instance of every registered plane scheme.
func allSchemes(t testing.TB) []Scheme {
	t.Helper()
	cfg := DefaultConfig()
	names := []string{
		"Baseline", "FlipMin", "FNW", "DIN", "6cosets", "COC+4cosets",
		"WLC+4cosets", "WLC+3cosets",
		"WLCRC-8", "WLCRC-16", "WLCRC-32", "WLCRC-64",
	}
	var out []Scheme
	for _, n := range names {
		out = append(out, newTestScheme(t, n, cfg))
	}
	return out
}

// encodeCells runs s's plane codec, keyed (addr 0, ctr 0), on a cell
// vector: old is packed, encoded, and the result unpacked into a fresh
// vector.
func encodeCells(s Scheme, old []pcm.State, data *memline.Line) []pcm.State {
	oldP := packedPlanes(old)
	dst := make([]uint64, len(oldP))
	CtrPlaneCodec(s).EncodeCtrPlanesInto(dst, oldP, 0, 0, data)
	cells := make([]pcm.State, s.TotalCells())
	coset.UnpackLine(dst, cells)
	return cells
}

// decodeCells is the decode side of encodeCells.
func decodeCells(s Scheme, cells []pcm.State) memline.Line {
	var l memline.Line
	CtrPlaneCodec(s).DecodeCtrPlanesInto(packedPlanes(cells), 0, 0, &l)
	return l
}

// randomBiasedLine mixes compressible and incompressible content so the
// round-trip tests exercise both paths of compression-gated schemes.
func randomBiasedLine(r *prng.Xoshiro256) memline.Line {
	var l memline.Line
	switch r.Intn(4) {
	case 0: // random
		r.Fill(l[:])
	case 1: // small signed ints: WLC-compressible
		for w := 0; w < memline.LineWords; w++ {
			l.SetWord(w, memline.SignExtend(r.Uint64()&0xffff, 16))
		}
	case 2: // zero-dominated
		for w := 0; w < memline.LineWords; w++ {
			if r.Bool(0.3) {
				l.SetWord(w, uint64(r.Uint32()&0xff))
			}
		}
	default: // pointer-ish
		base := uint64(0x00007f32_00000000)
		for w := 0; w < memline.LineWords; w++ {
			l.SetWord(w, base|uint64(r.Uint32()))
		}
	}
	return l
}

func TestNewSchemeUnknown(t *testing.T) {
	if _, err := NewScheme("nope", DefaultConfig()); err == nil {
		t.Fatal("expected error for unknown scheme")
	}
}

func TestEvaluationSchemesConstructible(t *testing.T) {
	for _, n := range EvaluationSchemes() {
		s, err := NewScheme(n, DefaultConfig())
		if err != nil {
			t.Errorf("%s: %v", n, err)
			continue
		}
		if s.Name() != n {
			t.Errorf("Name() = %q, want %q", s.Name(), n)
		}
	}
}

func TestSchemeGeometry(t *testing.T) {
	for _, s := range allSchemes(t) {
		if s.DataCells() != memline.LineCells {
			t.Errorf("%s: DataCells = %d", s.Name(), s.DataCells())
		}
		if s.TotalCells() < s.DataCells() {
			t.Errorf("%s: TotalCells < DataCells", s.Name())
		}
		if s.TotalCells() > memline.LineCells+128 {
			t.Errorf("%s: TotalCells = %d unreasonably large", s.Name(), s.TotalCells())
		}
	}
}

// TestRoundTripAllSchemes is the central correctness property: whatever a
// scheme stores must decode back to the written data, starting from a
// fresh line and across consecutive rewrites.
func TestRoundTripAllSchemes(t *testing.T) {
	r := prng.New(1234)
	for _, s := range allSchemes(t) {
		cells := InitialCells(s.TotalCells())
		for step := 0; step < 40; step++ {
			data := randomBiasedLine(r)
			cells = encodeCells(s, cells, &data)
			if len(cells) != s.TotalCells() {
				t.Fatalf("%s: Encode returned %d cells", s.Name(), len(cells))
			}
			got := decodeCells(s, cells)
			if !got.Equal(&data) {
				t.Fatalf("%s: decode mismatch at step %d\nwant %s\ngot  %s",
					s.Name(), step, data.String(), got.String())
			}
		}
	}
}

// TestRewriteSameDataIsFree: differential write of identical data must
// program zero cells for every scheme (the encoder must be deterministic
// and must not flip auxiliary choices gratuitously).
func TestRewriteSameDataIsFree(t *testing.T) {
	r := prng.New(77)
	em := pcm.DefaultEnergy()
	for _, s := range allSchemes(t) {
		for trial := 0; trial < 10; trial++ {
			data := randomBiasedLine(r)
			cells := encodeCells(s, InitialCells(s.TotalCells()), &data)
			again := encodeCells(s, cells, &data)
			st := em.DiffWrite(cells, again, s.DataCells())
			if st.Updated() != 0 {
				t.Errorf("%s: rewriting identical data programs %d cells",
					s.Name(), st.Updated())
				break
			}
		}
	}
}

// TestEncodeDoesNotMutateOld guards the Scheme contract.
func TestEncodeDoesNotMutateOld(t *testing.T) {
	r := prng.New(5)
	for _, s := range allSchemes(t) {
		data := randomBiasedLine(r)
		old := InitialCells(s.TotalCells())
		for i := range old {
			old[i] = pcm.State(r.Intn(pcm.NumStates))
		}
		snapshot := append([]pcm.State(nil), old...)
		encodeCells(s, old, &data)
		for i := range old {
			if old[i] != snapshot[i] {
				t.Errorf("%s: Encode mutated old[%d]", s.Name(), i)
				break
			}
		}
	}
}

// TestSchemesBeatOrMatchBaselineOnBiasedData: on compressible biased
// data, every energy-aware scheme should cost at most the baseline on a
// fresh write (fresh cells are all S1; candidate C1 is always available,
// so the minimum over candidates cannot exceed the baseline's data cost
// by more than the auxiliary cost, and on biased data it should win).
func TestWLCRCBeatsBaselineOnBiasedFreshWrites(t *testing.T) {
	r := prng.New(31)
	em := pcm.DefaultEnergy()
	base := NewBaseline()
	wl, err := NewWLCRC(DefaultConfig(), 16)
	if err != nil {
		t.Fatal(err)
	}
	var baseTotal, wlTotal float64
	for trial := 0; trial < 200; trial++ {
		var data memline.Line
		// Biased, WLC-compressible content.
		for w := 0; w < memline.LineWords; w++ {
			data.SetWord(w, memline.SignExtend(r.Uint64()&0x3ffffff, 26))
		}
		bCells := encodeCells(base, InitialCells(base.TotalCells()), &data)
		bst := em.DiffWrite(InitialCells(base.TotalCells()), bCells, base.DataCells())
		wCells := encodeCells(wl, InitialCells(wl.TotalCells()), &data)
		wst := em.DiffWrite(InitialCells(wl.TotalCells()), wCells, wl.DataCells())
		baseTotal += bst.Energy()
		wlTotal += wst.Energy()
	}
	if wlTotal >= baseTotal {
		t.Errorf("WLCRC-16 energy %.0f >= baseline %.0f on biased data", wlTotal, baseTotal)
	}
}

func TestQuickRoundTripWLCRC16(t *testing.T) {
	s, err := NewWLCRC(DefaultConfig(), 16)
	if err != nil {
		t.Fatal(err)
	}
	f := func(ws [memline.LineWords]uint64, oldSeed uint64) bool {
		data := memline.FromWords(ws)
		r := prng.New(oldSeed)
		old := InitialCells(s.TotalCells())
		for i := range old {
			old[i] = pcm.State(r.Intn(pcm.NumStates))
		}
		cells := encodeCells(s, old, &data)
		got := decodeCells(s, cells)
		return got.Equal(&data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickRoundTripCompressibleWLCRC(t *testing.T) {
	// Force compressible lines so the encoded path (not the raw
	// fallback) is exercised for every granularity.
	for _, gran := range []int{8, 16, 32, 64} {
		s, err := NewWLCRC(DefaultConfig(), gran)
		if err != nil {
			t.Fatal(err)
		}
		keep := 64 - wlcrcGeoms[gran].reclaim
		f := func(ws [memline.LineWords]uint64) bool {
			var data memline.Line
			for w, v := range ws {
				data.SetWord(w, memline.SignExtend(v&(1<<uint(keep)-1), keep))
			}
			if !s.Compressible(&data) {
				return false // construction bug, fail loudly
			}
			cells := encodeCells(s, InitialCells(s.TotalCells()), &data)
			if cells[memline.LineCells] != flagCompressed {
				return false
			}
			got := decodeCells(s, cells)
			return got.Equal(&data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("granularity %d: %v", gran, err)
		}
	}
}

func TestWLCRCUncompressibleFallsBackToRaw(t *testing.T) {
	s, err := NewWLCRC(DefaultConfig(), 16)
	if err != nil {
		t.Fatal(err)
	}
	var data memline.Line
	data.SetWord(0, 0x4123456789abcdef) // MSB run of 1 < k=6
	if s.Compressible(&data) {
		t.Fatal("line should be incompressible")
	}
	cells := encodeCells(s, InitialCells(s.TotalCells()), &data)
	if cells[memline.LineCells] != flagUncompressed {
		t.Error("flag cell must mark uncompressed")
	}
	got := decodeCells(s, cells)
	if !got.Equal(&data) {
		t.Error("raw fallback decode mismatch")
	}
}

func TestWLCRCAuxOverhead(t *testing.T) {
	// §VI.A: total encoding space overhead < 0.4% (one flag cell per 256).
	s, _ := NewWLCRC(DefaultConfig(), 16)
	over := float64(s.TotalCells()-memline.LineCells) / float64(memline.LineCells)
	if over >= 0.004 {
		t.Errorf("space overhead %.4f, want < 0.004", over)
	}
	if n := memline.WordCells - s.geom.auxCell; n != 2 {
		t.Errorf("WLCRC-16 pure-aux cells per word = %d, want 2", n)
	}
}

func TestWLCCosetsGranularities(t *testing.T) {
	r := prng.New(99)
	for _, gran := range []int{8, 16, 32, 64} {
		for _, n := range []int{3, 4} {
			s, err := NewWLCCosets(DefaultConfig(), n, gran)
			if err != nil {
				t.Fatalf("WLC+%dcosets-%d: %v", n, gran, err)
			}
			keep := 64 - wlcReclaim[gran]
			cells := InitialCells(s.TotalCells())
			for step := 0; step < 10; step++ {
				var data memline.Line
				for w := 0; w < memline.LineWords; w++ {
					data.SetWord(w, memline.SignExtend(r.Uint64()&(1<<uint(keep)-1), keep))
				}
				if !s.Compressible(&data) {
					t.Fatalf("%s: constructed line not compressible", s.Name())
				}
				cells = encodeCells(s, cells, &data)
				got := decodeCells(s, cells)
				if !got.Equal(&data) {
					t.Fatalf("%s: round trip failed", s.Name())
				}
			}
		}
	}
}

func TestWLCCosetsInvalidConfig(t *testing.T) {
	if _, err := NewWLCCosets(DefaultConfig(), 4, 24); err == nil {
		t.Error("granularity 24 must be rejected")
	}
	if _, err := NewWLCCosets(DefaultConfig(), 6, 32); err == nil {
		t.Error("6 candidates must be rejected")
	}
	if _, err := NewWLCRC(DefaultConfig(), 12); err == nil {
		t.Error("WLCRC granularity 12 must be rejected")
	}
}

func TestMultiObjectiveNameAndBehavior(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MultiObjectiveT = 0.01
	s, err := NewWLCRC(cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "WLCRC-16(T=1%)" {
		t.Errorf("Name = %q", s.Name())
	}
	// Multi-objective must never harm correctness.
	r := prng.New(3)
	cells := InitialCells(s.TotalCells())
	for step := 0; step < 30; step++ {
		data := randomBiasedLine(r)
		cells = encodeCells(s, cells, &data)
		got := decodeCells(s, cells)
		if !got.Equal(&data) {
			t.Fatalf("multi-objective round trip failed at step %d", step)
		}
	}
}

func TestMultiObjectiveReducesUpdates(t *testing.T) {
	// Aggregate over many rewrites: T=1% must not increase updated cells
	// and must not increase energy by more than ~2%.
	em := pcm.DefaultEnergy()
	plain, _ := NewWLCRC(DefaultConfig(), 16)
	cfgT := DefaultConfig()
	cfgT.MultiObjectiveT = 0.01
	multi, _ := NewWLCRC(cfgT, 16)

	r := prng.New(42)
	cellsP := InitialCells(plain.TotalCells())
	cellsM := InitialCells(multi.TotalCells())
	var eP, eM float64
	var uP, uM int
	for step := 0; step < 400; step++ {
		var data memline.Line
		for w := 0; w < memline.LineWords; w++ {
			data.SetWord(w, memline.SignExtend(r.Uint64()&0xffffffff, 32))
		}
		nP := encodeCells(plain, cellsP, &data)
		st := em.DiffWrite(cellsP, nP, plain.DataCells())
		eP += st.Energy()
		uP += st.Updated()
		cellsP = nP
		nM := encodeCells(multi, cellsM, &data)
		st = em.DiffWrite(cellsM, nM, multi.DataCells())
		eM += st.Energy()
		uM += st.Updated()
		cellsM = nM
	}
	if uM > uP {
		t.Errorf("multi-objective updates %d > plain %d", uM, uP)
	}
	if eM > eP*1.05 {
		t.Errorf("multi-objective energy %.0f exceeds plain %.0f by >5%%", eM, eP)
	}
}

// TestEncryptedSchemeRegistry covers the counter-keyed scheme names:
// VCC-n and the Enc(inner) wrapper form, including nesting rules.
func TestEncryptedSchemeRegistry(t *testing.T) {
	cfg := DefaultConfig()
	for _, name := range EncryptedSchemes() {
		s, err := NewScheme(name, cfg)
		if err != nil {
			t.Fatalf("NewScheme(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("Name() = %q, want %q", s.Name(), name)
		}
		if s.DataCells() != memline.LineCells {
			t.Errorf("%s: DataCells = %d", name, s.DataCells())
		}
	}
	// VCC and Enc are counter schemes; the classics are not.
	for name, want := range map[string]bool{
		"VCC-4": true, "Enc(WLCRC-16)": true, "WLCRC-16": false, "Baseline": false,
	} {
		s, err := NewScheme(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if UsesCounters(s) != want {
			t.Errorf("UsesCounters(%s) = %v, want %v", name, !want, want)
		}
	}
	if _, err := NewScheme("Enc(nope)", cfg); err == nil {
		t.Error("Enc of an unknown inner scheme must fail")
	}
	if _, err := NewScheme("Enc(VCC-2)", cfg); err == nil {
		t.Error("Enc of a counter-keyed inner scheme must fail")
	}
	if _, err := NewScheme("Enc(Enc(Baseline))", cfg); err == nil {
		t.Error("nested Enc must fail")
	}
}

// TestCtrFuncFallbacks pins the resolved keyed entry points:
// CtrPlaneCodec of a non-counter scheme ignores (addr, ctr), and the
// cell-vector CounterScheme form of a counter scheme equals its keyed
// plane form at every key.
func TestCtrFuncFallbacks(t *testing.T) {
	r := prng.New(91)
	for _, name := range []string{"WLCRC-16", "6cosets", "VCC-8", "Enc(WLCRC-16)"} {
		s, err := NewScheme(name, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cs := CtrPlaneCodec(s)
		data := randomBiasedLine(r)
		old := randomOld(r, s.TotalCells())
		oldP := packedPlanes(old)
		a := make([]uint64, len(oldP))
		b := make([]uint64, len(oldP))
		cs.EncodeCtrPlanesInto(a, oldP, 123, 456, &data)
		if !UsesCounters(s) {
			cs.EncodeCtrPlanesInto(b, oldP, 0, 0, &data)
			if !slices.Equal(a, b) {
				t.Fatalf("%s: non-counter scheme depends on (addr, ctr)", name)
			}
			continue
		}
		cells := make([]pcm.State, s.TotalCells())
		s.(CounterScheme).EncodeCtrInto(cells, old, 123, 456, &data)
		if !slices.Equal(a, packedPlanes(cells)) {
			t.Fatalf("%s: EncodeCtrInto differs from the packed EncodeCtrPlanesInto", name)
		}
		var got memline.Line
		s.(CounterScheme).DecodeCtrInto(cells, 123, 456, &got)
		if !got.Equal(&data) {
			t.Fatalf("%s: DecodeCtrInto round trip failed", name)
		}
	}
}

// TestEverySchemeHasPlaneCodec guards what the three-method Scheme no
// longer enforces at compile time: CtrPlaneCodec must resolve, without
// panicking, to a codec that round-trips a line for every registered
// name, every encrypted-study name, Enc(X) for every non-counter X, and
// the LineCosets, RestrictedLineCosets, WLCCosets and disturbance-aware
// WLCRC instances the experiments build.
func TestEverySchemeHasPlaneCodec(t *testing.T) {
	cfg := DefaultConfig()
	var names []string
	names = append(names, EncryptedSchemes()...)
	for _, s := range allSchemes(t) {
		names = append(names, s.Name(), "Enc("+s.Name()+")")
	}
	names = append(names, "VCC-2", "VCC-4", "VCC-8")
	var schemes []Scheme
	for _, n := range names {
		s, err := NewScheme(n, cfg)
		if err != nil {
			t.Fatalf("NewScheme(%q): %v", n, err)
		}
		schemes = append(schemes, s)
	}
	for _, bb := range []int{8, 16, 32, 64, 128, 256, 512} {
		schemes = append(schemes,
			NewLineCosets(cfg, "3cosets", coset.Table1[:3], bb),
			NewLineCosets(cfg, "4cosets", coset.Table1[:], bb),
			NewLineCosets(cfg, "6cosets", coset.SixCosets(), bb),
			NewRestrictedLineCosets(cfg, bb))
	}
	wd := DefaultConfig()
	wd.DisturbAwareLambda = 1
	for _, g := range []int{8, 16, 32, 64} {
		for _, n := range []int{3, 4} {
			s, err := NewWLCCosets(cfg, n, g)
			if err != nil {
				t.Fatal(err)
			}
			schemes = append(schemes, s)
		}
		s, err := NewWLCRC(wd, g)
		if err != nil {
			t.Fatal(err)
		}
		schemes = append(schemes, s)
	}
	r := prng.New(0xC0DEC)
	for _, s := range schemes {
		t.Run(s.Name(), func(t *testing.T) {
			var cs CounterPlaneScheme
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("CtrPlaneCodec panicked: %v", p)
					}
				}()
				cs = CtrPlaneCodec(s)
			}()
			data := randomBiasedLine(r)
			old := packedPlanes(randomOld(r, s.TotalCells()))
			dst := make([]uint64, len(old))
			cs.EncodeCtrPlanesInto(dst, old, 5, 1, &data)
			var got memline.Line
			cs.DecodeCtrPlanesInto(dst, 5, 1, &got)
			if !got.Equal(&data) {
				t.Fatal("plane codec round trip failed")
			}
		})
	}
}
