package core

import (
	"sync"
	"testing"

	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
	"wlcrc/internal/prng"
)

// The descriptor-driven schemes (blockCode rows) are tested through a
// record the tests keep of how each row was built: its family and
// parameters. Their per-cell references (swar_equiv_test.go) and the
// optimality oracle (oracle_test.go) derive candidates, blocks and aux
// layouts from that record by hand, never from the codec's tables or
// its aux reader and writer, so a wrong descriptor cannot agree with
// itself.

// rowFamily names the family a row was built by.
type rowFamily int

const (
	lineRow       rowFamily = iota + 1 // NewLineCosets
	restrictedRow                      // NewRestrictedLineCosets
	fnwRow                             // NewFNW
	wlcRow                             // NewWLCCosets
)

// refRow is the tests' record of one row.
type refRow struct {
	family    rowFamily
	em        pcm.EnergyModel
	cands     []coset.Mapping
	blockBits int
}

// testRows maps every row a test built to its record.
var testRows sync.Map

// rowOf returns the record of s, if s is a row a test built.
func rowOf(s Scheme) (refRow, bool) {
	r, ok := testRows.Load(s)
	if !ok {
		return refRow{}, false
	}
	return r.(refRow), true
}

// recordRow records how s was built and returns it.
func recordRow[S Scheme](s S, r refRow) S {
	testRows.Store(Scheme(s), r)
	return s
}

// isRow reports whether s runs on the descriptor codec.
func isRow(s Scheme) bool {
	_, ok := s.(interface {
		choose(*coset.Regs, []uint8) int
	})
	return ok
}

func testLineCosets(cfg Config, name string, cands []coset.Mapping, blockBits int) *LineCosets {
	return recordRow(NewLineCosets(cfg, name, cands, blockBits),
		refRow{family: lineRow, em: cfg.Energy, cands: cands, blockBits: blockBits})
}

func testRestricted(cfg Config, blockBits int) *RestrictedLineCosets {
	return recordRow(NewRestrictedLineCosets(cfg, blockBits),
		refRow{family: restrictedRow, em: cfg.Energy, cands: coset.Table1[:3], blockBits: blockBits})
}

func testWLCCosets(t testing.TB, cfg Config, ncands, gran int) *WLCCosets {
	t.Helper()
	s, err := NewWLCCosets(cfg, ncands, gran)
	if err != nil {
		t.Fatal(err)
	}
	return recordRow(s, refRow{family: wlcRow, em: cfg.Energy, cands: coset.Table1[:ncands], blockBits: gran})
}

// registeredRows are the rows NewScheme builds, by name, as the paper
// defines them.
var registeredRows = map[string]refRow{
	"FNW":         {family: fnwRow, blockBits: 128},
	"6cosets":     {family: lineRow, cands: coset.SixCosets(), blockBits: memline.LineBits},
	"WLC+4cosets": {family: wlcRow, cands: coset.Table1[:4], blockBits: 32},
	"WLC+3cosets": {family: wlcRow, cands: coset.Table1[:3], blockBits: 32},
}

// testConfigs maps every scheme newTestScheme or testWLCRC built to
// the Config it was built with. The per-cell references of the schemes
// that are not rows price through it, never through a scheme's own
// tables.
var testConfigs sync.Map

// configOf returns the Config s was built with, if a test recorded it.
func configOf(s Scheme) (Config, bool) {
	c, ok := testConfigs.Load(s)
	if !ok {
		return Config{}, false
	}
	return c.(Config), true
}

// newTestScheme is NewScheme with the built row and Config recorded.
func newTestScheme(t testing.TB, name string, cfg Config) Scheme {
	t.Helper()
	s, err := NewScheme(name, cfg)
	if err != nil {
		t.Fatalf("NewScheme(%q): %v", name, err)
	}
	testConfigs.Store(s, cfg)
	if r, ok := registeredRows[name]; ok {
		r.em = cfg.Energy
		recordRow(s, r)
	}
	return s
}

// testWLCRC is NewWLCRC with its Config recorded.
func testWLCRC(t testing.TB, cfg Config, gran int) *WLCRC {
	t.Helper()
	s, err := NewWLCRC(cfg, gran)
	if err != nil {
		t.Fatal(err)
	}
	testConfigs.Store(Scheme(s), cfg)
	return s
}

// TestEveryRowHasReferenceAndOracle fails when a coset row of the test
// corpora has no per-cell reference or no optimality oracle: a new row
// must bring both.
func TestEveryRowHasReferenceAndOracle(t *testing.T) {
	r := prng.New(0x20E5)
	rows := 0
	for _, s := range append(equivSchemes(t), oracleSchemes(t, pcm.DefaultEnergy())...) {
		if !isRow(s) {
			continue
		}
		rows++
		rec, ok := rowOf(s)
		if !ok {
			t.Errorf("%s: row built without a test record, so it has no reference or oracle", s.Name())
			continue
		}
		data := randomBiasedLine(r)
		old := randomOld(r, s.TotalCells())
		dst := make([]pcm.State, s.TotalCells())
		if !rec.encodeRef(dst, old, &data) {
			t.Errorf("%s: no per-cell reference for its family", s.Name())
		}
		planes := packedPlanes(dst)
		if _, ok := oracleBlocks(s, planes, &data); !ok {
			t.Errorf("%s: no optimality oracle", s.Name())
		}
	}
	if rows == 0 {
		t.Fatal("no rows in the test corpora")
	}
}

// TestStuckAwareSchemes pins which schemes re-encode around stuck cells:
// the line-coset rows only. Giving another family a stuck-aware encode
// changes the endurance study.
func TestStuckAwareSchemes(t *testing.T) {
	cfg := DefaultConfig()
	want := []Scheme{newTestScheme(t, "6cosets", cfg)}
	var none []Scheme
	for _, bb := range []int{8, 64, 512} {
		want = append(want, NewLineCosets(cfg, "4cosets", coset.Table1[:], bb))
		want = append(want, NewLineCosets(cfg, "3cosets", coset.Table1[:3], bb))
		want = append(want, NewLineCosets(cfg, "6cosets", coset.SixCosets(), bb))
	}
	for _, n := range []string{
		"FNW", "FlipMin", "COC+4cosets", "WLC+4cosets", "WLC+3cosets",
		"WLCRC-8", "WLCRC-16", "WLCRC-32", "WLCRC-64", "DIN", "Baseline",
		"VCC-2", "VCC-4", "VCC-8",
	} {
		none = append(none, newTestScheme(t, n, cfg))
	}
	for _, bb := range []int{8, 16, 512} {
		none = append(none, NewRestrictedLineCosets(cfg, bb))
	}
	for _, g := range []int{8, 64} {
		none = append(none, testWLCCosets(t, cfg, 4, g))
	}
	for _, s := range want {
		if EncodeStuckFunc(s) == nil {
			t.Errorf("%s: no stuck-aware re-encode", s.Name())
		}
	}
	for _, s := range none {
		if EncodeStuckFunc(s) != nil {
			t.Errorf("%s: has a stuck-aware re-encode", s.Name())
		}
	}
}
