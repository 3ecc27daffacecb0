package vcc

import (
	"testing"

	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
)

// Fuzz targets for the virtual-coset subsystem: candidate generation
// and the encode/decode round trip through decrypt, cross-checked
// against the scalar reference encoder. The seeded corpus lives in
// testdata/fuzz; `go test` replays it on every run and `go test -fuzz
// FuzzVCC` explores further (wired into the CI fuzz smoke loop).

// fuzzN maps a selector byte onto a valid candidate count.
func fuzzN(sel byte) int {
	return []int{2, 4, 8}[int(sel)%3]
}

// fuzzModel maps a selector onto an energy model of either cost type:
// Table II, the fractional models, and the models at and past the
// integer rule's bound (see TestSweepCostType).
func fuzzModel(sel byte) pcm.EnergyModel {
	models := []pcm.EnergyModel{pcm.DefaultEnergy(), fracReset, fracScaled, atIntBound, pastBound}
	return models[int(sel)%len(models)]
}

// fuzzOld derives a full old-state vector from packed 2-bit state
// words, repeating the 64-byte pattern across data and aux cells.
func fuzzOld(oldBits []byte, n int) []pcm.State {
	old := make([]pcm.State, n)
	for i := range old {
		var b byte
		if len(oldBits) > 0 {
			b = oldBits[i%len(oldBits)]
		}
		old[i] = pcm.State(b >> uint(2*(i%4)) & 3)
	}
	return old
}

// FuzzVCCRoundTrip asserts, for arbitrary plaintext, old states, keys,
// addresses and counters: the full-line encode decodes bit-exactly back
// to the plaintext, and every word's candidate choice and output states
// in the cell and the plane encoder match the scalar CostTable
// reference and the float reference sweep. nSel picks the candidate
// count (nSel mod 3) and the energy model (nSel>>2, fuzzModel).
func FuzzVCCRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint64(0), uint64(0), uint64(0), byte(2))
	f.Add([]byte{0xFF, 0x00, 0xAA}, uint64(1), uint64(1), uint64(7), byte(0))
	f.Add([]byte("counter mode whitening makes every line incompressible.."),
		uint64(0xDEAD), uint64(42), uint64(0x5EC2E7C0DE5EED01), byte(1))
	f.Add([]byte("Table II plus half a picojoule on every reset"), uint64(5), uint64(6), uint64(7), byte(1<<2|1))
	f.Add([]byte{0x0F, 0xF0, 0x33, 0xCC}, uint64(1)<<40, uint64(9), uint64(0), byte(2<<2|2))
	f.Add([]byte("integer energies just under 2^20"), uint64(77), ^uint64(0), uint64(3), byte(3<<2))
	f.Add([]byte("one energy at 2^20 prices in floats"), uint64(12), uint64(34), uint64(56), byte(4<<2|2))
	f.Fuzz(func(t *testing.T, raw []byte, addr, ctr, key uint64, nSel byte) {
		n := fuzzN(nSel)
		s, err := New(fuzzModel(nSel>>2), n, key)
		if err != nil {
			t.Fatal(err)
		}
		var data memline.Line
		copy(data[:], raw)
		old := fuzzOld(raw, s.TotalCells())
		dst := make([]pcm.State, s.TotalCells())
		s.EncodeCtrInto(dst, old, addr, ctr, &data)
		var got memline.Line
		s.DecodeCtrInto(dst, addr, ctr, &got)
		if !got.Equal(&data) {
			t.Fatalf("VCC-%d: round trip failed (addr %#x ctr %d key %#x)", n, addr, ctr, key)
		}

		checkAgainstScalar(t, s, old, addr, ctr, &data)
	})
}

// FuzzVCCCandidates asserts candidate-generation invariants for
// arbitrary (key, addr, ctr): determinism, the zero candidate, pad
// consistency with Pad, and the whitening involution.
func FuzzVCCCandidates(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), byte(2))
	f.Add(uint64(1)<<63, ^uint64(0), uint64(3), byte(1))
	f.Add(uint64(0xABCDEF), uint64(9), uint64(0xC0FFEE), byte(0))
	f.Fuzz(func(t *testing.T, addr, ctr, key uint64, nSel byte) {
		n := fuzzN(nSel)
		c := Cipher{Key: key}
		var pad1, pad2 [memline.LineWords]uint64
		var v1, v2 [MaxCandidates][memline.LineWords]uint64
		c.Candidates(addr, ctr, n, &pad1, &v1)
		c.Candidates(addr, ctr, n, &pad2, &v2)
		if pad1 != pad2 || v1 != v2 {
			t.Fatal("candidate generation not deterministic")
		}
		var pad3 [memline.LineWords]uint64
		c.Pad(addr, ctr, &pad3)
		if pad1 != pad3 {
			t.Fatal("Candidates pad differs from Pad")
		}
		if v1[0] != ([memline.LineWords]uint64{}) {
			t.Fatal("candidate 0 is not the zero vector")
		}
		var l memline.Line
		copy(l[:], []byte{byte(addr), byte(ctr), byte(key)})
		orig := l
		c.WhitenLine(&l, addr, ctr)
		c.WhitenLine(&l, addr, ctr)
		if !l.Equal(&orig) {
			t.Fatal("whitening is not an involution")
		}
	})
}

// FuzzCounterPlanes asserts, for arbitrary plaintext, old states, keys,
// addresses and counters, that the keyed plane codecs of VCC-2/4/8 and
// of the Encrypted wrapper agree with their cell-vector forms: the
// plane encode is the packed cell encode, old planes stay untouched, and
// the plane decode round-trips to the plaintext under the same key. sel
// picks the Encrypted wrapper (sel mod 4 = 3) or a VCC candidate count,
// and for VCC the energy model (sel>>2, fuzzModel).
func FuzzCounterPlanes(f *testing.F) {
	f.Add([]byte{}, uint64(0), uint64(0), uint64(0), byte(0))
	f.Add([]byte{0x5A, 0xA5, 0xFF}, uint64(3), uint64(1), uint64(9), byte(1))
	f.Add([]byte("slot counters key every plane write"), uint64(0xBEEF), uint64(1)<<33, uint64(0), byte(2))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, ^uint64(0), uint64(77), uint64(0xC0DE), byte(3))
	f.Add([]byte("fractional reset"), uint64(8), uint64(2), uint64(1), byte(1<<2|1))
	f.Add([]byte("fractional Fig. 14 level"), uint64(9), uint64(3), uint64(0), byte(2<<2|2))
	f.Add([]byte("at the integer bound"), uint64(10), uint64(4), uint64(2), byte(3<<2))
	f.Add([]byte("past the integer bound"), uint64(11), uint64(5), uint64(3), byte(4<<2|1))
	f.Fuzz(func(t *testing.T, raw []byte, addr, ctr, key uint64, sel byte) {
		type codec interface {
			TotalCells() int
			EncodeCtrInto(dst, old []pcm.State, addr, ctr uint64, data *memline.Line)
			EncodeCtrPlanesInto(dst, old []uint64, addr, ctr uint64, data *memline.Line)
			DecodeCtrPlanesInto(planes []uint64, addr, ctr uint64, dst *memline.Line)
		}
		var s codec
		if sel%4 == 3 {
			s = NewEncrypted(vccInnerStub{}, key)
		} else {
			v, err := New(fuzzModel(sel>>2), fuzzN(sel), key)
			if err != nil {
				t.Fatal(err)
			}
			s = v
		}
		var data memline.Line
		copy(data[:], raw)
		n := s.TotalCells()
		old := fuzzOld(raw, n)
		cells := make([]pcm.State, n)
		s.EncodeCtrInto(cells, old, addr, ctr, &data)
		want := make([]uint64, coset.PlaneWords(n))
		coset.PackLine(cells, want)

		oldP := make([]uint64, len(want))
		coset.PackLine(old, oldP)
		oldSnap := append([]uint64(nil), oldP...)
		got := make([]uint64, len(want))
		for i := range got {
			got[i] = ^uint64(0) // every word must be overwritten
		}
		s.EncodeCtrPlanesInto(got, oldP, addr, ctr, &data)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("plane word %d: %#x, packed cell encode %#x", i, got[i], want[i])
			}
			if oldP[i] != oldSnap[i] {
				t.Fatalf("plane encode modified old word %d", i)
			}
		}
		var back memline.Line
		s.DecodeCtrPlanesInto(got, addr, ctr, &back)
		if !back.Equal(&data) {
			t.Fatalf("plane round trip failed (addr %#x ctr %d key %#x)", addr, ctr, key)
		}
	})
}
