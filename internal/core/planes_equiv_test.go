package core

import (
	"reflect"
	"testing"

	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
	"wlcrc/internal/prng"
)

// planeSchemes returns every registered scheme that takes the
// plane-native path (all eight evaluation schemes plus the extra WLCRC
// granularities; the counter-keyed families are excluded by design).
func planeSchemes(t testing.TB) []struct {
	Scheme
	planes PlaneScheme
} {
	cfg := DefaultConfig()
	names := []string{
		"Baseline", "FlipMin", "FNW", "DIN", "6cosets", "COC+4cosets",
		"WLC+4cosets", "WLC+3cosets",
		"WLCRC-8", "WLCRC-16", "WLCRC-32", "WLCRC-64",
	}
	var out []struct {
		Scheme
		planes PlaneScheme
	}
	for _, n := range names {
		s, err := NewScheme(n, cfg)
		if err != nil {
			t.Fatalf("NewScheme(%q): %v", n, err)
		}
		ps, ok := PlaneCodec(s)
		if !ok {
			t.Fatalf("%s: expected a plane codec", n)
		}
		out = append(out, struct {
			Scheme
			planes PlaneScheme
		}{s, ps})
	}
	return out
}

// packedPlanes packs a cell vector into a fresh plane buffer.
func packedPlanes(cells []pcm.State) []uint64 {
	p := make([]uint64, coset.PlaneWords(len(cells)))
	coset.PackLine(cells, p)
	return p
}

// checkPlaneEquivalence runs one (old, data) pair through both codec
// paths of one scheme and cross-checks everything the replay engine
// relies on: the encoded planes must be bit-identical to the packed
// scalar encode, the old planes must survive unmutated, the tail-zero
// invariant must hold, the plane decode must round-trip to the written
// data, and the plane compression gate must agree with the scalar gate.
func checkPlaneEquivalence(t testing.TB, s Scheme, ps PlaneScheme, r *prng.Xoshiro256,
	old []pcm.State, data *memline.Line) {
	n := s.TotalCells()
	want := make([]pcm.State, n)
	s.EncodeInto(want, old, data)
	wantP := packedPlanes(want)

	oldP := packedPlanes(old)
	oldSnap := append([]uint64(nil), oldP...)
	// Garbage-prefill dst: EncodePlanesInto must overwrite every word,
	// including the zero tail bits above cell n.
	dst := make([]uint64, len(oldP))
	for i := range dst {
		dst[i] = r.Uint64()
	}
	ps.EncodePlanesInto(dst, oldP, data)
	if !reflect.DeepEqual(wantP, dst) {
		t.Fatalf("%s: EncodePlanesInto differs from packed EncodeInto\nold  %v\nwant %x\ngot  %x",
			s.Name(), old[:8], wantP, dst)
	}
	if !reflect.DeepEqual(oldSnap, oldP) {
		t.Fatalf("%s: EncodePlanesInto mutated old planes", s.Name())
	}
	for c := n; c < 32*len(dst)/2; c++ {
		if coset.PlaneGet(dst, c) != 0 {
			t.Fatalf("%s: tail cell %d nonzero after encode", s.Name(), c)
		}
	}

	var got memline.Line
	r.Fill(got[:]) // DecodePlanesInto must fully overwrite garbage
	ps.DecodePlanesInto(dst, &got)
	if !got.Equal(data) {
		t.Fatalf("%s: DecodePlanesInto round trip failed", s.Name())
	}

	if gate, ok := s.(CompressionGate); ok {
		pg, ok := s.(PlaneCompressionGate)
		if !ok {
			t.Fatalf("%s: CompressionGate without PlaneCompressionGate", s.Name())
		}
		if sc, pl := gate.CompressedWrite(want), pg.CompressedWritePlanes(dst); sc != pl {
			t.Fatalf("%s: CompressedWritePlanes = %v, scalar CompressedWrite = %v", s.Name(), pl, sc)
		}
	}
}

// TestEncodePlanesMatchesScalar is the plane-native storage PR's core
// equivalence property, over the randomized corpus the scalar
// EncodeInto tests use: compressible and incompressible data against
// fresh and steady-state old vectors.
func TestEncodePlanesMatchesScalar(t *testing.T) {
	r := prng.New(20260807)
	for _, s := range planeSchemes(t) {
		for trial := 0; trial < 60; trial++ {
			data := randomBiasedLine(r)
			old := randomOld(r, s.TotalCells())
			checkPlaneEquivalence(t, s.Scheme, s.planes, r, old, &data)
		}
	}
}

// TestEncodePlanesStableUnderRewrites chains both codec paths over
// their own output in lockstep — the replay steady state — and demands
// the stored representations stay bit-identical at every step.
func TestEncodePlanesStableUnderRewrites(t *testing.T) {
	r := prng.New(777)
	for _, s := range planeSchemes(t) {
		n := s.TotalCells()
		stored := InitialCells(n)
		scratch := make([]pcm.State, n)
		storedP := packedPlanes(stored)
		scratchP := make([]uint64, len(storedP))
		for step := 0; step < 25; step++ {
			data := randomBiasedLine(r)
			s.EncodeInto(scratch, stored, &data)
			s.planes.EncodePlanesInto(scratchP, storedP, &data)
			stored, scratch = scratch, stored
			storedP, scratchP = scratchP, storedP
			if want := packedPlanes(stored); !reflect.DeepEqual(want, storedP) {
				t.Fatalf("%s: step %d: plane store diverged from scalar store", s.Name(), step)
			}
			var got memline.Line
			s.planes.DecodePlanesInto(storedP, &got)
			if !got.Equal(&data) {
				t.Fatalf("%s: step %d: plane decode mismatch", s.Name(), step)
			}
		}
	}
}

// FuzzEncodePlanesEquiv fuzzes the plane/scalar equivalence: the input
// selects a scheme, an old-state regime and the line content, and both
// codec paths must agree on the encoded planes, the decode round trip
// and the compression classification.
func FuzzEncodePlanesEquiv(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{})
	f.Add(uint8(3), uint8(1), []byte{0x42, 0xff, 0x00, 0x7f})
	f.Add(uint8(5), uint8(2), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(uint8(7), uint8(0), []byte{0xde, 0xad, 0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef})
	f.Add(uint8(11), uint8(3), []byte{0x80, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, schemeSel, oldSel uint8, body []byte) {
		schemes := planeSchemes(t)
		s := schemes[int(schemeSel)%len(schemes)]
		n := s.TotalCells()

		// Line content: repeat the body across the line (empty body means
		// an all-zero, maximally compressible line).
		var data memline.Line
		for i := range data {
			if len(body) > 0 {
				data[i] = body[i%len(body)]
			}
		}

		// Old regime: fresh, random, or re-encode of the fuzzed data
		// itself (the rewrite-same-data steady state).
		r := prng.New(uint64(oldSel)<<32 | uint64(len(body)+1))
		old := make([]pcm.State, n)
		switch oldSel % 3 {
		case 0: // fresh line
		case 1:
			for i := range old {
				old[i] = pcm.State(r.Intn(pcm.NumStates))
			}
		case 2:
			s.EncodeInto(old, InitialCells(n), &data)
		}
		checkPlaneEquivalence(t, s.Scheme, s.planes, r, old, &data)
	})
}

// FuzzDecodePlanesNeverPanics is the plane form of the scalar
// robustness guarantee: decoding arbitrary (possibly never-encoded)
// stored states must not panic for any scheme — corrupt aux cells,
// reserved flag values and impossible candidate indices included.
func FuzzDecodePlanesNeverPanics(f *testing.F) {
	f.Add(uint8(0), []byte{0})
	f.Add(uint8(4), []byte{3, 3, 3, 3, 3, 3, 3, 3})
	f.Add(uint8(9), []byte{0, 1, 2, 3, 0, 1, 2, 3, 2, 1})
	f.Fuzz(func(t *testing.T, schemeSel uint8, states []byte) {
		if len(states) == 0 {
			t.Skip("no states")
		}
		schemes := planeSchemes(t)
		s := schemes[int(schemeSel)%len(schemes)]
		n := s.TotalCells()
		cells := make([]pcm.State, n)
		for i := range cells {
			cells[i] = pcm.State(states[i%len(states)] % 4)
		}
		planes := packedPlanes(cells)
		var l memline.Line
		s.planes.DecodePlanesInto(planes, &l) // must not panic
	})
}

// counterPlaneSchemes are the counter-keyed schemes, all of which store
// lines through the keyed plane codec.
var counterPlaneSchemes = []string{"VCC-2", "VCC-4", "VCC-8", "Enc(WLCRC-16)", "Enc(COC+4cosets)", "Enc(FlipMin)"}

// TestCounterPlanesMatchScalar is the keyed twin of
// TestEncodePlanesMatchesScalar: for several (addr, ctr) keys, the
// counter schemes' plane encode must equal the packed cell encode, leave
// old untouched and the tail zero, decode back to the data under the
// same key, and agree with the cell compression gate. CtrPlaneCodec must
// resolve to the scheme's own keyed codec.
func TestCounterPlanesMatchScalar(t *testing.T) {
	r := prng.New(20261017)
	keys := [][2]uint64{{0, 0}, {0, 1}, {7, 1}, {7, 2}, {0xDEAD, 42}, {1 << 40, 1<<32 + 3}}
	for _, name := range counterPlaneSchemes {
		s, err := NewScheme(name, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cs := s.(CounterScheme)
		ps, ok := s.(CounterPlaneScheme)
		if !ok {
			t.Fatalf("%s: no keyed plane codec", name)
		}
		if CtrPlaneCodec(s) != ps {
			t.Fatalf("%s: CtrPlaneCodec did not resolve the scheme's own codec", name)
		}
		if _, ok := PlaneCodec(s); ok {
			t.Fatalf("%s: counter scheme reports a counter-blind plane codec", name)
		}
		gate := CompressedWriteFunc(s)
		pgate := CompressedWritePlanesFunc(s)
		n := s.TotalCells()
		for trial := 0; trial < 20; trial++ {
			for _, k := range keys {
				addr, ctr := k[0], k[1]
				data := randomBiasedLine(r)
				old := randomOld(r, n)
				want := make([]pcm.State, n)
				cs.EncodeCtrInto(want, old, addr, ctr, &data)
				wantP := packedPlanes(want)

				oldP := packedPlanes(old)
				oldSnap := append([]uint64(nil), oldP...)
				dst := make([]uint64, len(oldP))
				for i := range dst {
					dst[i] = r.Uint64()
				}
				ps.EncodeCtrPlanesInto(dst, oldP, addr, ctr, &data)
				if !reflect.DeepEqual(wantP, dst) {
					t.Fatalf("%s (addr %#x ctr %d): plane encode differs from packed EncodeCtrInto\nwant %x\ngot  %x",
						name, addr, ctr, wantP, dst)
				}
				if !reflect.DeepEqual(oldSnap, oldP) {
					t.Fatalf("%s: EncodeCtrPlanesInto mutated old planes", name)
				}
				var got memline.Line
				r.Fill(got[:])
				ps.DecodeCtrPlanesInto(dst, addr, ctr, &got)
				if !got.Equal(&data) {
					t.Fatalf("%s (addr %#x ctr %d): plane decode round trip failed", name, addr, ctr)
				}
				if sc, pl := gate(want), pgate(dst); sc != pl {
					t.Fatalf("%s: plane gate = %v, cell gate = %v", name, pl, sc)
				}
			}
		}
	}
}
