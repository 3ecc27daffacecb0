package core

import (
	"reflect"
	"testing"

	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
	"wlcrc/internal/prng"
)

// randomOld fills a plausible pre-write cell vector: a mix of fresh
// (all-S1) regions and fully random states, so both first-write and
// steady-state differential behavior are exercised.
func randomOld(r *prng.Xoshiro256, n int) []pcm.State {
	old := make([]pcm.State, n)
	if r.Bool(0.25) {
		return old // fresh line
	}
	for i := range old {
		old[i] = pcm.State(r.Intn(pcm.NumStates))
	}
	return old
}

// keyedSchemes is allSchemes plus the counter-keyed families, whose
// codecs must thread the write's (addr, ctr) key through.
func keyedSchemes(t *testing.T) []Scheme {
	t.Helper()
	out := allSchemes(t)
	for _, n := range []string{"VCC-2", "VCC-4", "VCC-8", "Enc(WLCRC-16)"} {
		s, err := NewScheme(n, DefaultConfig())
		if err != nil {
			t.Fatalf("NewScheme(%q): %v", n, err)
		}
		out = append(out, s)
	}
	return out
}

// TestEncodeIntoMatchesEncode is the caller-storage contract of the
// keyed plane codec every frontend stores lines through
// (CtrPlaneCodec): for every scheme, counter-keyed ones included,
// EncodeCtrPlanesInto into garbage-prefilled storage must produce
// exactly the planes it produces into zeroed storage, and
// DecodeCtrPlanesInto must fully overwrite a garbage destination with
// the written data, over randomized (addr, ctr, old, data) corpora
// covering compressible and incompressible content.
func TestEncodeIntoMatchesEncode(t *testing.T) {
	r := prng.New(20260727)
	for _, s := range keyedSchemes(t) {
		cs := CtrPlaneCodec(s)
		for trial := 0; trial < 60; trial++ {
			data := randomBiasedLine(r)
			old := packedPlanes(randomOld(r, s.TotalCells()))
			addr, ctr := r.Uint64()%1024, uint64(trial+1)
			want := make([]uint64, len(old))
			cs.EncodeCtrPlanesInto(want, old, addr, ctr, &data)

			// Garbage-prefill dst: the encode must overwrite every word.
			dst := make([]uint64, len(old))
			for i := range dst {
				dst[i] = r.Uint64()
			}
			cs.EncodeCtrPlanesInto(dst, old, addr, ctr, &data)
			if !reflect.DeepEqual(want, dst) {
				t.Fatalf("%s: encode into garbage differs from encode into zeroes at trial %d", s.Name(), trial)
			}
			var into memline.Line
			r.Fill(into[:])
			cs.DecodeCtrPlanesInto(dst, addr, ctr, &into)
			if !into.Equal(&data) {
				t.Fatalf("%s: decode round trip failed at trial %d", s.Name(), trial)
			}
		}
	}
}

// TestEncodeIntoStableUnderRewrites chains the keyed plane codec over
// its own output (the replay steady state, with the buffer-swap
// discipline the simulator uses and the write counter advancing per
// write) and decodes every step.
func TestEncodeIntoStableUnderRewrites(t *testing.T) {
	r := prng.New(4242)
	for _, s := range keyedSchemes(t) {
		cs := CtrPlaneCodec(s)
		stored := packedPlanes(InitialCells(s.TotalCells()))
		scratch := make([]uint64, len(stored))
		for step := 0; step < 25; step++ {
			data := randomBiasedLine(r)
			ctr := uint64(step + 1)
			cs.EncodeCtrPlanesInto(scratch, stored, 9, ctr, &data)
			stored, scratch = scratch, stored
			var got memline.Line
			cs.DecodeCtrPlanesInto(stored, 9, ctr, &got)
			if !got.Equal(&data) {
				t.Fatalf("%s: step %d: decode mismatch", s.Name(), step)
			}
		}
	}
}

// TestEncodeIntoDoesNotMutateOld guards the keyed plane codec's
// contract that old and data are read, never written: the shard diffs
// the stored planes against the encode after it.
func TestEncodeIntoDoesNotMutateOld(t *testing.T) {
	r := prng.New(6)
	for _, s := range keyedSchemes(t) {
		data := randomBiasedLine(r)
		dataSnap := data
		old := packedPlanes(randomOld(r, s.TotalCells()))
		snapshot := append([]uint64(nil), old...)
		dst := make([]uint64, len(old))
		CtrPlaneCodec(s).EncodeCtrPlanesInto(dst, old, 3, 1, &data)
		if !reflect.DeepEqual(old, snapshot) {
			t.Errorf("%s: EncodeCtrPlanesInto mutated old", s.Name())
		}
		if !data.Equal(&dataSnap) {
			t.Errorf("%s: EncodeCtrPlanesInto mutated data", s.Name())
		}
	}
}

// TestCompressionGateMatchesFlag pins the hoisted flag-cell convention:
// the PlaneCompressionGate classification must agree with the scheme's
// Compressible predicate on every write, and the cell-vector form
// CompressedWriteFunc must agree with it.
func TestCompressionGateMatchesFlag(t *testing.T) {
	r := prng.New(99)
	for _, s := range allSchemes(t) {
		gate, gated := s.(PlaneCompressionGate)
		comp, hasComp := s.(compressible)
		if gated != hasComp {
			t.Errorf("%s: PlaneCompressionGate %v but Compressible %v", s.Name(), gated, hasComp)
			continue
		}
		if !gated {
			continue
		}
		cellGate := CompressedWriteFunc(s)
		for trial := 0; trial < 40; trial++ {
			data := randomBiasedLine(r)
			cells := encodeCells(s, InitialCells(s.TotalCells()), &data)
			got, want := gate.CompressedWritePlanes(packedPlanes(cells)), comp.Compressible(&data)
			if got != want {
				t.Fatalf("%s: CompressedWritePlanes = %v, Compressible = %v", s.Name(), got, want)
			}
			if cellGate(cells) != got {
				t.Fatalf("%s: CompressedWriteFunc disagrees with CompressedWritePlanes", s.Name())
			}
		}
	}
}
