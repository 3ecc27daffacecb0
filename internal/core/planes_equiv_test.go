package core

import (
	"reflect"
	"strings"
	"testing"

	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
	"wlcrc/internal/prng"
)

// packedPlanes packs a cell vector into a fresh plane buffer.
func packedPlanes(cells []pcm.State) []uint64 {
	p := make([]uint64, coset.PlaneWords(len(cells)))
	coset.PackLine(cells, p)
	return p
}

// compressible is the compressibility predicate of the gated schemes,
// which their plane compression gate must agree with.
type compressible interface{ Compressible(*memline.Line) bool }

// checkPlaneEquivalence runs one (old, data) pair through a scheme's
// plane codec and cross-checks everything the replay engine relies on:
// the encoded planes must be bit-identical to the packed scalar
// reference encode, the old planes must survive unmutated, the
// tail-zero invariant must hold, the plane decode must round-trip to the
// written data, and the plane compression gate must agree with the
// scheme's compressibility predicate.
func checkPlaneEquivalence(t testing.TB, s Scheme, r *prng.Xoshiro256, old []pcm.State, data *memline.Line) {
	t.Helper()
	ps, ok := PlaneCodec(s)
	if !ok {
		t.Fatalf("%s: expected a plane codec", s.Name())
	}
	want := make([]pcm.State, s.TotalCells())
	encodeRef(t, s, want, old, data)
	wantP := packedPlanes(want)

	oldP := packedPlanes(old)
	oldSnap := append([]uint64(nil), oldP...)
	// Garbage-prefill dst: EncodePlanesInto must overwrite every word,
	// including the zero tail bits above the last cell.
	dst := make([]uint64, len(oldP))
	for i := range dst {
		dst[i] = r.Uint64()
	}
	ps.EncodePlanesInto(dst, oldP, data)
	if !reflect.DeepEqual(wantP, dst) {
		got := make([]pcm.State, len(want))
		coset.UnpackLine(dst, got)
		for c := range want {
			if want[c] != got[c] {
				t.Fatalf("%s: EncodePlanesInto differs from the scalar reference: first mismatch at cell %d: reference %v, planes %v",
					s.Name(), c, want[c], got[c])
			}
		}
		t.Fatalf("%s: EncodePlanesInto tail bits differ\nwant %x\ngot  %x", s.Name(), wantP, dst)
	}
	if !reflect.DeepEqual(oldSnap, oldP) {
		t.Fatalf("%s: EncodePlanesInto mutated old planes", s.Name())
	}

	var got memline.Line
	r.Fill(got[:]) // DecodePlanesInto must fully overwrite garbage
	ps.DecodePlanesInto(dst, &got)
	if !got.Equal(data) {
		t.Fatalf("%s: DecodePlanesInto round trip failed", s.Name())
	}

	pg, gated := s.(PlaneCompressionGate)
	comp, hasComp := s.(compressible)
	if gated != hasComp {
		t.Fatalf("%s: PlaneCompressionGate %v but Compressible %v", s.Name(), gated, hasComp)
	}
	if gated {
		if got, want := pg.CompressedWritePlanes(dst), comp.Compressible(data); got != want {
			t.Fatalf("%s: CompressedWritePlanes = %v, Compressible = %v", s.Name(), got, want)
		}
	}
}

// TestEncodePlanesMatchesScalar holds the plane encoder of every
// registered scheme to its per-cell scalar reference over a randomized
// corpus: compressible and incompressible data against fresh and
// steady-state old vectors. TestSWAREncodeMatchesScalarReference does
// the same for the extra granularity instances.
func TestEncodePlanesMatchesScalar(t *testing.T) {
	r := prng.New(20260807)
	for _, s := range allSchemes(t) {
		for trial := 0; trial < 80; trial++ {
			data := randomBiasedLine(r)
			old := randomOld(r, s.TotalCells())
			checkPlaneEquivalence(t, s, r, old, &data)
		}
	}
}

// TestSWAREncodeMatchesScalarReference holds the word-parallel plane
// encoders of the unregistered granularity instances (extraSchemes) to
// their per-cell scalar references, over the same kind of corpus as
// TestEncodePlanesMatchesScalar.
func TestSWAREncodeMatchesScalarReference(t *testing.T) {
	r := prng.New(0x5AA5)
	for _, s := range extraSchemes(t) {
		for trial := 0; trial < 80; trial++ {
			data := randomBiasedLine(r)
			old := randomOld(r, s.TotalCells())
			checkPlaneEquivalence(t, s, r, old, &data)
		}
	}
}

// TestEncodePlanesStableUnderRewrites chains the plane codec and the
// scalar reference over their own output in lockstep — the replay
// steady state — and demands the stored representations stay
// bit-identical at every step.
func TestEncodePlanesStableUnderRewrites(t *testing.T) {
	r := prng.New(777)
	for _, s := range equivSchemes(t) {
		ps, _ := PlaneCodec(s)
		n := s.TotalCells()
		stored := InitialCells(n)
		scratch := make([]pcm.State, n)
		storedP := packedPlanes(stored)
		scratchP := make([]uint64, len(storedP))
		for step := 0; step < 25; step++ {
			data := randomBiasedLine(r)
			encodeRef(t, s, scratch, stored, &data)
			ps.EncodePlanesInto(scratchP, storedP, &data)
			stored, scratch = scratch, stored
			storedP, scratchP = scratchP, storedP
			if want := packedPlanes(stored); !reflect.DeepEqual(want, storedP) {
				t.Fatalf("%s: step %d: plane store diverged from the scalar reference", s.Name(), step)
			}
			var got memline.Line
			ps.DecodePlanesInto(storedP, &got)
			if !got.Equal(&data) {
				t.Fatalf("%s: step %d: plane decode mismatch", s.Name(), step)
			}
		}
	}
}

// FuzzEncodePlanesEquiv fuzzes the plane/reference equivalence: the
// input selects a scheme of equivSchemes, an old-state regime and the
// line content, and the plane codec must agree with the scalar
// reference on the encoded planes, and round-trip and classify the line.
func FuzzEncodePlanesEquiv(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{})
	f.Add(uint8(3), uint8(1), []byte{0x42, 0xff, 0x00, 0x7f})
	f.Add(uint8(5), uint8(2), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(uint8(7), uint8(0), []byte{0xde, 0xad, 0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef})
	f.Add(uint8(11), uint8(3), []byte{0x80, 0, 0, 0, 0, 0, 0, 0, 1})
	schemes := equivSchemes(f)
	f.Fuzz(func(t *testing.T, schemeSel, oldSel uint8, body []byte) {
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

		// Old regime: fresh, random, or the reference encode of the
		// fuzzed data itself (the rewrite-same-data steady state).
		r := prng.New(uint64(oldSel)<<32 | uint64(len(body)+1))
		old := make([]pcm.State, n)
		switch oldSel % 3 {
		case 0: // fresh line
		case 1:
			for i := range old {
				old[i] = pcm.State(r.Intn(pcm.NumStates))
			}
		case 2:
			encodeRef(t, s, old, InitialCells(n), &data)
		}
		checkPlaneEquivalence(t, s, r, old, &data)
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
	schemes := allSchemes(f)
	f.Fuzz(func(t *testing.T, schemeSel uint8, states []byte) {
		if len(states) == 0 {
			t.Skip("no states")
		}
		s := schemes[int(schemeSel)%len(schemes)]
		n := s.TotalCells()
		cells := make([]pcm.State, n)
		for i := range cells {
			cells[i] = pcm.State(states[i%len(states)] % 4)
		}
		planes := packedPlanes(cells)
		var l memline.Line
		ps, _ := PlaneCodec(s)
		ps.DecodePlanesInto(planes, &l) // must not panic
	})
}

// counterPlaneSchemes are the counter-keyed schemes, all of which store
// lines through the keyed plane codec.
var counterPlaneSchemes = []string{"VCC-2", "VCC-4", "VCC-8", "Enc(WLCRC-16)", "Enc(COC+4cosets)", "Enc(FlipMin)"}

// TestCounterPlanesMatchScalar is the keyed twin of
// TestEncodePlanesMatchesScalar: for several (addr, ctr) keys, the
// counter schemes' plane encode must equal the packed cell reference,
// leave old untouched and the tail zero, decode back to the data under
// the same key, and agree with the cell compression gate. CtrPlaneCodec
// must resolve to the scheme's own keyed codec. The reference of an
// Enc(<inner>) row is encodeCtrRef, which whitens the data with
// vcc.Cipher and stores it through the inner scheme's scalar reference,
// independent of the Encrypted wrapper. A VCC-n row is held to its cell
// encode here, and its plane encode to the independent sweep refSweep
// in internal/vcc.
func TestCounterPlanesMatchScalar(t *testing.T) {
	r := prng.New(20261017)
	keys := [][2]uint64{{0, 0}, {0, 1}, {7, 1}, {7, 2}, {0xDEAD, 42}, {1 << 40, 1<<32 + 3}}
	for _, name := range counterPlaneSchemes {
		s := newTestScheme(t, name, DefaultConfig())
		ref := refCtrEncodeFunc(s.(CounterScheme).EncodeCtrInto)
		if strings.HasPrefix(name, "Enc(") {
			ref = encodeCtrRef(t, s)
		}
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
				ref(want, old, addr, ctr, &data)
				wantP := packedPlanes(want)

				oldP := packedPlanes(old)
				oldSnap := append([]uint64(nil), oldP...)
				dst := make([]uint64, len(oldP))
				for i := range dst {
					dst[i] = r.Uint64()
				}
				ps.EncodeCtrPlanesInto(dst, oldP, addr, ctr, &data)
				if !reflect.DeepEqual(wantP, dst) {
					t.Fatalf("%s (addr %#x ctr %d): plane encode differs from the packed reference\nwant %x\ngot  %x",
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
