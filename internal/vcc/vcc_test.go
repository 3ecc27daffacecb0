package vcc

import (
	"testing"

	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
	"wlcrc/internal/prng"
	"wlcrc/internal/trace"
)

func randomLine(r *prng.Xoshiro256) memline.Line {
	var l memline.Line
	r.Fill(l[:])
	return l
}

func randomOld(r *prng.Xoshiro256, n int) []pcm.State {
	old := make([]pcm.State, n)
	for i := range old {
		old[i] = pcm.State(r.Intn(pcm.NumStates))
	}
	return old
}

func newVCC(t *testing.T, n int) *Scheme {
	t.Helper()
	s, err := New(pcm.DefaultEnergy(), n, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewRejectsBadCandidateCounts(t *testing.T) {
	for _, n := range []int{0, 1, 3, 5, 16} {
		if _, err := New(pcm.DefaultEnergy(), n, 0); err == nil {
			t.Errorf("n=%d: expected error", n)
		}
	}
}

func TestGeometry(t *testing.T) {
	want := map[int]int{2: 260, 4: 264, 8: 268}
	for n, total := range want {
		s := newVCC(t, n)
		if s.TotalCells() != total {
			t.Errorf("VCC-%d: TotalCells = %d, want %d", n, s.TotalCells(), total)
		}
		if s.DataCells() != memline.LineCells {
			t.Errorf("VCC-%d: DataCells = %d", n, s.DataCells())
		}
		if s.Candidates() != n {
			t.Errorf("VCC-%d: Candidates = %d", n, s.Candidates())
		}
	}
}

// TestRoundTripCtr is the central property: EncodeCtrInto followed by
// DecodeCtrInto with the same (addr, ctr) recovers the plaintext
// exactly, from any old state, for every candidate count — the "decodes
// bit-exactly through decrypt" acceptance criterion.
func TestRoundTripCtr(t *testing.T) {
	r := prng.New(1)
	for _, n := range []int{2, 4, 8} {
		s := newVCC(t, n)
		for trial := 0; trial < 200; trial++ {
			data := randomLine(r)
			old := randomOld(r, s.TotalCells())
			addr, ctr := r.Uint64()%4096, r.Uint64()%1024
			dst := make([]pcm.State, s.TotalCells())
			s.EncodeCtrInto(dst, old, addr, ctr, &data)
			var got memline.Line
			s.DecodeCtrInto(dst, addr, ctr, &got)
			if !got.Equal(&data) {
				t.Fatalf("VCC-%d: round trip failed at trial %d (addr %d ctr %d)", n, trial, addr, ctr)
			}
		}
	}
}

// TestRoundTripChained replays consecutive counter-incrementing writes
// over the scheme's own previous output, the way a shard drives it.
func TestRoundTripChained(t *testing.T) {
	r := prng.New(2)
	for _, n := range []int{2, 4, 8} {
		s := newVCC(t, n)
		cells := make([]pcm.State, s.TotalCells())
		scratch := make([]pcm.State, s.TotalCells())
		const addr = 77
		for ctr := uint64(1); ctr <= 50; ctr++ {
			data := randomLine(r)
			s.EncodeCtrInto(scratch, cells, addr, ctr, &data)
			cells, scratch = scratch, cells
			var got memline.Line
			s.DecodeCtrInto(cells, addr, ctr, &got)
			if !got.Equal(&data) {
				t.Fatalf("VCC-%d: chained round trip failed at ctr %d", n, ctr)
			}
		}
	}
}

// TestEncodeIntoContract mirrors core's caller-storage contract for both
// keyed codecs: EncodeCtrInto and EncodeCtrPlanesInto overwrite a
// garbage destination completely, agree bit for bit, and never mutate
// old.
func TestEncodeIntoContract(t *testing.T) {
	r := prng.New(4)
	for _, n := range []int{2, 4, 8} {
		s := newVCC(t, n)
		data := randomLine(r)
		old := randomOld(r, s.TotalCells())
		snapshot := append([]pcm.State(nil), old...)
		dst := make([]pcm.State, s.TotalCells())
		for i := range dst {
			dst[i] = pcm.State(3)
		}
		s.EncodeCtrInto(dst, old, 5, 9, &data)
		oldP := make([]uint64, coset.PlaneWords(s.TotalCells()))
		coset.PackLine(old, oldP)
		dstP := make([]uint64, len(oldP))
		for i := range dstP {
			dstP[i] = r.Uint64()
		}
		s.EncodeCtrPlanesInto(dstP, oldP, 5, 9, &data)
		ref := make([]uint64, len(oldP))
		coset.PackLine(dst, ref)
		for i := range ref {
			if dstP[i] != ref[i] {
				t.Fatalf("VCC-%d: EncodeCtrPlanesInto differs from the packed EncodeCtrInto at word %d", n, i)
			}
		}
		for i := range old {
			if old[i] != snapshot[i] {
				t.Fatalf("VCC-%d: EncodeCtrInto mutated old", n)
			}
		}
	}
}

// encodeWordScalar is the per-cell reference of the word-parallel
// candidate sweep: it prices each of the n candidates of word w with
// the scalar CostTable tab, keeps the lowest index among equal costs,
// applies the winner symbol by symbol into out, and returns the chosen
// index and whether a higher index tied the winning cost.
func encodeWordScalar(tab *coset.CostTable, n int, cipherWord uint64, vecs *[MaxCandidates][memline.LineWords]uint64, w int, old, out []pcm.State) (best uint8, tie bool) {
	bestCost := 0.0
	for c := 0; c < n; c++ {
		var syms [memline.WordCells]uint8
		memline.WordSymbols(cipherWord^vecs[c][w], &syms)
		cost := tab.BlockCost(syms[:], old[:memline.WordCells])
		switch {
		case c == 0 || cost < bestCost:
			best, bestCost, tie = uint8(c), cost, false
		case cost == bestCost:
			tie = true
		}
	}
	var syms [memline.WordCells]uint8
	memline.WordSymbols(cipherWord^vecs[best][w], &syms)
	tab.Encode(syms[:], out[:memline.WordCells])
	return best, tie
}

// checkAgainstScalar encodes one line through the cell and the plane
// encoders of s and asserts, word by word, that both pick the scalar
// reference's candidate index and store its states, and that the plane
// encode equals the float reference sweep's word for word. It returns
// the number of words whose winning cost was tied by a higher index.
func checkAgainstScalar(t *testing.T, s *Scheme, old []pcm.State, addr, ctr uint64, data *memline.Line) (ties int) {
	t.Helper()
	width := coset.PlaneWords(s.TotalCells())
	dst := make([]pcm.State, s.TotalCells())
	s.EncodeCtrInto(dst, old, addr, ctr, data)
	cellP := make([]uint64, width)
	coset.PackLine(dst, cellP)
	cellIdx := memline.InterleavePlanes(cellP[tailWord], cellP[tailWord+1])

	oldP := make([]uint64, width)
	coset.PackLine(old, oldP)
	gotP := make([]uint64, width)
	s.EncodeCtrPlanesInto(gotP, oldP, addr, ctr, data)
	planeIdx := memline.InterleavePlanes(gotP[tailWord], gotP[tailWord+1])
	refP := make([]uint64, width)
	newRefSweep(s).EncodeCtrPlanesInto(refP, oldP, addr, ctr, data)
	for i := range refP {
		if gotP[i] != refP[i] {
			t.Fatalf("%s model %+v: plane word %d is %#x, float reference sweep %#x", s.name, s.em, i, gotP[i], refP[i])
		}
	}

	var pad [memline.LineWords]uint64
	var vecs [MaxCandidates][memline.LineWords]uint64
	s.cipher.Candidates(addr, ctr, s.n, &pad, &vecs)
	tab := coset.C1.CostTable(&s.em)
	var refOut [memline.WordCells]pcm.State
	for w := 0; w < memline.LineWords; w++ {
		refIdx, tie := encodeWordScalar(&tab, s.n, data.Word(w)^pad[w], &vecs, w, old[w*memline.WordCells:], refOut[:])
		if tie {
			ties++
		}
		if got := uint8(cellIdx >> uint(w*s.idxBits) & uint64(s.n-1)); got != refIdx {
			t.Fatalf("%s model %+v word %d: cell encoder picked %d, scalar %d", s.name, s.em, w, got, refIdx)
		}
		if got := uint8(planeIdx >> uint(w*s.idxBits) & uint64(s.n-1)); got != refIdx {
			t.Fatalf("%s model %+v word %d: plane encoder picked %d, scalar %d", s.name, s.em, w, got, refIdx)
		}
		refLo, refHi := coset.PackStates(refOut[:])
		for c := 0; c < memline.WordCells; c++ {
			if dst[w*memline.WordCells+c] != refOut[c] {
				t.Fatalf("%s word %d cell %d: cell encoder state %v != scalar %v",
					s.name, w, c, dst[w*memline.WordCells+c], refOut[c])
			}
		}
		if gotP[2*w] != refLo || gotP[2*w+1] != refHi {
			t.Fatalf("%s word %d: plane encoder planes (%#x,%#x) != scalar (%#x,%#x)",
				s.name, w, gotP[2*w], gotP[2*w+1], refLo, refHi)
		}
	}
	return ties
}

// Energy models of the two cost types. Integer models take the uint64
// sweep, fractional ones the float64 sweep (TestSweepCostType). The
// bound models sit at the integer rule's edge: every write energy below
// 2^20 is integer-priced, one at 2^20 sends the model to floats.
var (
	fracReset  = pcm.EnergyModel{Reset: 36.5, Set: pcm.DefaultEnergy().Set}
	fracScaled = pcm.ScaledEnergy(152.25, 273.5)
	atIntBound = pcm.EnergyModel{Reset: 1<<20 - 600, Set: [pcm.NumStates]float64{0, 20, 307, 599}}
	pastBound  = pcm.EnergyModel{Reset: 1<<20 - 600, Set: [pcm.NumStates]float64{0, 20, 307, 600}}
)

// TestSweepCostType pins which models VCC prices in uint64: Table II,
// every Fig. 14 level and integer models up to the rule's bound do;
// fractional, negative and out-of-bound energies fall back to float64.
func TestSweepCostType(t *testing.T) {
	cases := []struct {
		name string
		em   pcm.EnergyModel
		ints bool
	}{
		{"Table II", pcm.DefaultEnergy(), true},
		{"Fig. 14 152/273", pcm.ScaledEnergy(152, 273), true},
		{"Fig. 14 75/135", pcm.ScaledEnergy(75, 135), true},
		{"Fig. 14 50/80", pcm.ScaledEnergy(50, 80), true},
		{"at the integer bound", atIntBound, true},
		{"past the integer bound", pastBound, false},
		{"Table II + 0.5 pJ Reset", fracReset, false},
		{"fractional Fig. 14 level", fracScaled, false},
		{"negative energy", pcm.EnergyModel{Reset: -1, Set: pcm.DefaultEnergy().Set}, false},
	}
	for _, tc := range cases {
		for _, n := range []int{2, 4, 8} {
			s, err := New(tc.em, n, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.iprod != nil; got != tc.ints || (s.fprod != nil) == tc.ints {
				t.Errorf("VCC-%d under %s: uint64 sweep %v (float table %v), want uint64 %v",
					n, tc.name, got, s.fprod != nil, tc.ints)
			}
		}
	}
}

// TestSWARMatchesScalar asserts that the word-parallel sweep is
// bit-identical to the scalar CostTable reference and to the float
// reference sweep — same chosen candidate index, same output states,
// for every word, through both the cell and the plane encoder — under
// Table II, seeded integer-valued models, the models at and past the
// integer rule's bound, fractional models, and an integer and a
// fractional model with equal per-state write energies. Under the last
// two, cost is proportional to the number of programmed cells and ties
// are common, so they pin the lowest-index tie-break in both cost
// types; the test fails if either produced no tie.
func TestSWARMatchesScalar(t *testing.T) {
	r := prng.New(5)
	models := []pcm.EnergyModel{pcm.DefaultEnergy(), atIntBound, pastBound, fracReset, fracScaled}
	for i := 0; i < 4; i++ {
		em := pcm.EnergyModel{Reset: float64(r.Intn(64))}
		for st := range em.Set {
			em.Set[st] = float64(r.Intn(1024))
		}
		models = append(models, em)
	}
	flat := pcm.EnergyModel{Reset: 36, Set: [pcm.NumStates]float64{100, 100, 100, 100}}
	flatFrac := pcm.EnergyModel{Reset: 36.5, Set: [pcm.NumStates]float64{100.25, 100.25, 100.25, 100.25}}
	models = append(models, flat, flatFrac)
	for _, em := range models {
		ties := 0
		for _, n := range []int{2, 4, 8} {
			s, err := New(em, n, 0)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 60; trial++ {
				data := randomLine(r)
				old := randomOld(r, s.TotalCells())
				ties += checkAgainstScalar(t, s, old, r.Uint64(), r.Uint64(), &data)
			}
		}
		if (em == flat || em == flatFrac) && ties == 0 {
			t.Fatalf("equal-energy model %+v produced no tied candidates; the tie-break is untested", em)
		}
	}
}

// TestDeterministicAndKeyed: the same (key, addr, ctr, data, old)
// encodes identically; a different key or counter encodes differently
// (with overwhelming probability on random data).
func TestDeterministicAndKeyed(t *testing.T) {
	r := prng.New(6)
	s1, _ := New(pcm.DefaultEnergy(), 8, 0)
	s2, _ := New(pcm.DefaultEnergy(), 8, 0)
	s3, _ := New(pcm.DefaultEnergy(), 8, 12345)
	data := randomLine(r)
	old := randomOld(r, s1.TotalCells())
	encode := func(s *Scheme) []pcm.State {
		out := make([]pcm.State, s.TotalCells())
		s.EncodeCtrInto(out, old, 0, 0, &data)
		return out
	}
	a, b, c := encode(s1), encode(s2), encode(s3)
	same := func(x, y []pcm.State) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Error("identical schemes encode differently")
	}
	if same(a, c) {
		t.Error("different keys encode identically")
	}
	d1 := make([]pcm.State, s1.TotalCells())
	d2 := make([]pcm.State, s1.TotalCells())
	s1.EncodeCtrInto(d1, old, 9, 1, &data)
	s1.EncodeCtrInto(d2, old, 9, 2, &data)
	if same(d1, d2) {
		t.Error("consecutive counters encode identically")
	}
}

// TestReducesEnergyOnCiphertext: against the raw C1 write of the same
// ciphertext over the same old states, picking the cheapest of n
// candidates must reduce total energy, more with larger n — the VCC
// value proposition on encrypted traffic. Updated cells (including the
// index aux cells) must not regress either.
func TestReducesEnergyOnCiphertext(t *testing.T) {
	r := prng.New(7)
	em := pcm.DefaultEnergy()
	const trials = 600
	raw := 0.0
	rawUpd := 0
	energy := map[int]float64{}
	upd := map[int]int{}
	schemes := map[int]*Scheme{2: newVCC(t, 2), 4: newVCC(t, 4), 8: newVCC(t, 8)}
	for trial := 0; trial < trials; trial++ {
		data := randomLine(r)
		old := randomOld(r, 268) // max TotalCells; schemes slice their prefix
		addr, ctr := r.Uint64(), r.Uint64()

		// Raw encrypted write: ciphertext through the fixed C1 mapping.
		cipher := data
		Cipher{}.WhitenLine(&cipher, addr, ctr)
		rawCells := make([]pcm.State, memline.LineCells)
		var syms [memline.LineCells]uint8
		cipher.SymbolsInto(&syms)
		tab := coset.C1.CostTable(&em)
		tab.Encode(syms[:], rawCells)
		st := em.DiffWrite(old[:memline.LineCells], rawCells, memline.LineCells)
		raw += st.Energy()
		rawUpd += st.Updated()

		for n, s := range schemes {
			dst := make([]pcm.State, s.TotalCells())
			s.EncodeCtrInto(dst, old[:s.TotalCells()], addr, ctr, &data)
			st := em.DiffWrite(old[:s.TotalCells()], dst, s.DataCells())
			energy[n] += st.Energy()
			upd[n] += st.Updated()
		}
	}
	if !(energy[8] < energy[4] && energy[4] < energy[2] && energy[2] < raw) {
		t.Errorf("energy not monotonically improving: raw %.0f, VCC-2 %.0f, VCC-4 %.0f, VCC-8 %.0f",
			raw, energy[2], energy[4], energy[8])
	}
	// VCC-8 should recover well over 10% of the raw encrypted write.
	if energy[8] > 0.9*raw {
		t.Errorf("VCC-8 energy %.0f recovers <10%% of raw %.0f", energy[8], raw)
	}
	for n := range schemes {
		if upd[n] >= rawUpd {
			t.Errorf("VCC-%d updated cells %d >= raw %d", n, upd[n], rawUpd)
		}
	}
}

// TestEncryptedWrapperRoundTrip: Enc(inner) must round-trip plaintext
// through encrypt -> inner encode -> inner decode -> decrypt, through
// the keyed plane codec and its packed cell form alike.
func TestEncryptedWrapperRoundTrip(t *testing.T) {
	r := prng.New(8)
	inner := vccInnerStub{}
	e := NewEncrypted(inner, 0)
	if e.Name() != "Enc(stub)" {
		t.Errorf("Name = %q", e.Name())
	}
	if e.TotalCells() != inner.TotalCells() || e.DataCells() != inner.DataCells() {
		t.Error("wrapper geometry must delegate")
	}
	width := coset.PlaneWords(e.TotalCells())
	for trial := 0; trial < 100; trial++ {
		data := randomLine(r)
		old := randomOld(r, e.TotalCells())
		addr, ctr := r.Uint64()%512, r.Uint64()%64
		oldP := make([]uint64, width)
		coset.PackLine(old, oldP)
		dst := make([]uint64, width)
		e.EncodeCtrPlanesInto(dst, oldP, addr, ctr, &data)
		var got memline.Line
		e.DecodeCtrPlanesInto(dst, addr, ctr, &got)
		if !got.Equal(&data) {
			t.Fatalf("wrapper round trip failed at trial %d", trial)
		}
		// The inner scheme must have seen ciphertext, not the plaintext.
		var innerView memline.Line
		inner.DecodePlanesInto(dst, &innerView)
		if innerView.Equal(&data) {
			t.Fatal("inner scheme stored plaintext — no encryption happened")
		}
		cells := make([]pcm.State, e.TotalCells())
		e.EncodeCtrInto(cells, old, addr, ctr, &data)
		e.DecodeCtrInto(cells, addr, ctr, &got)
		if !got.Equal(&data) {
			t.Fatalf("packed cell round trip failed at trial %d", trial)
		}
	}
}

// vccInnerStub is a trivial raw C1 inner scheme for wrapper tests.
type vccInnerStub struct{}

func (vccInnerStub) Name() string    { return "stub" }
func (vccInnerStub) TotalCells() int { return memline.LineCells }
func (vccInnerStub) DataCells() int  { return memline.LineCells }

func (vccInnerStub) EncodePlanesInto(dst, old []uint64, data *memline.Line) {
	for w := 0; w < memline.LineWords; w++ {
		dst[2*w], dst[2*w+1] = coset.C1SWAR.ApplyPlanes(memline.LoHiPlanes(data.Word(w)))
	}
}

func (vccInnerStub) DecodePlanesInto(planes []uint64, dst *memline.Line) {
	for w := 0; w < memline.LineWords; w++ {
		dst.SetWord(w, memline.InterleavePlanes(coset.C1SWAR.ApplyInvPlanes(planes[2*w], planes[2*w+1])))
	}
}

// TestStreamEncryptorRoundTrip: whitening a recorded stream twice with
// the same key restores it exactly — the tracegen -encrypt round trip.
func TestStreamEncryptorRoundTrip(t *testing.T) {
	r := prng.New(9)
	var reqs []trace.Request
	for i := 0; i < 300; i++ {
		reqs = append(reqs, trace.Request{
			Addr: uint64(r.Intn(16)), // few addresses: counters climb
			Old:  randomLine(r),
			New:  randomLine(r),
		})
	}
	src := &trace.SliceSource{Reqs: reqs}
	enc := NewEncryptSource(src, 42)
	dec := NewEncryptSource(enc, 42)
	for i := range reqs {
		got, ok := dec.Next()
		if !ok {
			t.Fatalf("stream ended early at %d", i)
		}
		if got.Addr != reqs[i].Addr || !got.New.Equal(&reqs[i].New) || !got.Old.Equal(&reqs[i].Old) {
			t.Fatalf("round trip mismatch at request %d", i)
		}
	}
	if _, ok := dec.Next(); ok {
		t.Fatal("stream should have ended")
	}
}

// TestStreamEncryptorWhitens: the encrypted form of a highly biased
// stream must differ from the plaintext and advance per-line counters.
func TestStreamEncryptorWhitens(t *testing.T) {
	var biased memline.Line // all zero: maximally compressible
	src := &trace.SliceSource{Reqs: []trace.Request{
		{Addr: 5, New: biased},
		{Addr: 5, New: biased},
	}}
	enc := NewEncryptSource(src, 0)
	a, _ := enc.Next()
	b, _ := enc.Next()
	if a.New.Equal(&biased) || b.New.Equal(&biased) {
		t.Fatal("whitened line equals plaintext")
	}
	if a.New.Equal(&b.New) {
		t.Fatal("two writes of identical plaintext produced identical ciphertext — counter not advancing")
	}
	// The second request's Old must be the first request's ciphertext.
	if !b.Old.Equal(&a.New) {
		t.Fatal("Old of write 2 is not the stored ciphertext of write 1")
	}
	if enc.E.Counter(5) != 2 {
		t.Fatalf("counter = %d, want 2", enc.E.Counter(5))
	}
}

// TestCipherPadDeterminism pins the keystream: same (key, addr, ctr) →
// same pad; different ctr → different pad; candidate 0 is always zero.
func TestCipherPadDeterminism(t *testing.T) {
	c := Cipher{Key: 7}
	var p1, p2, p3 [memline.LineWords]uint64
	c.Pad(3, 9, &p1)
	c.Pad(3, 9, &p2)
	c.Pad(3, 10, &p3)
	if p1 != p2 {
		t.Error("pad not deterministic")
	}
	if p1 == p3 {
		t.Error("pad ignores the counter")
	}
	var pad [memline.LineWords]uint64
	var vecs [MaxCandidates][memline.LineWords]uint64
	c.Candidates(3, 9, 8, &pad, &vecs)
	if pad != p1 {
		t.Error("Candidates pad differs from Pad")
	}
	if vecs[0] != ([memline.LineWords]uint64{}) {
		t.Error("candidate 0 must be the zero vector")
	}
	seen := map[[memline.LineWords]uint64]bool{}
	for v := 1; v < 8; v++ {
		if seen[vecs[v]] {
			t.Errorf("candidate %d repeats", v)
		}
		seen[vecs[v]] = true
	}
}

// TestKeystreamMatchesCandidates: the random-access keystream returns
// exactly the words the sequential Candidates stream produces, for
// every candidate count, candidate and word over seeded (key, addr,
// ctr), including the zero key (DefaultKey).
func TestKeystreamMatchesCandidates(t *testing.T) {
	r := prng.New(2112)
	for trial := 0; trial < 64; trial++ {
		c := Cipher{Key: r.Uint64()}
		if trial == 0 {
			c.Key = 0
		}
		addr, ctr := r.Uint64(), r.Uint64()>>uint(r.Intn(64))
		ks := c.Keystream(addr, ctr)
		for n := 1; n <= MaxCandidates; n++ {
			var pad [memline.LineWords]uint64
			var vecs [MaxCandidates][memline.LineWords]uint64
			c.Candidates(addr, ctr, n, &pad, &vecs)
			for w := 0; w < memline.LineWords; w++ {
				if got := ks.Pad(w); got != pad[w] {
					t.Fatalf("key %#x (%d,%d): Pad(%d) = %#x, want %#x", c.Key, addr, ctr, w, got, pad[w])
				}
				for v := 0; v < n; v++ {
					if got := ks.Candidate(v, w); got != vecs[v][w] {
						t.Fatalf("key %#x (%d,%d) n=%d: Candidate(%d,%d) = %#x, want %#x",
							c.Key, addr, ctr, n, v, w, got, vecs[v][w])
					}
				}
			}
		}
	}
}

// TestWhitenLineInvolution: whitening twice restores the line.
func TestWhitenLineInvolution(t *testing.T) {
	r := prng.New(10)
	c := Cipher{}
	l := randomLine(r)
	orig := l
	c.WhitenLine(&l, 11, 22)
	if l.Equal(&orig) {
		t.Fatal("whitening did nothing")
	}
	c.WhitenLine(&l, 11, 22)
	if !l.Equal(&orig) {
		t.Fatal("whitening is not an involution")
	}
}

// TestEncryptSourceNextBatchMatchesNext pins the batch path of the
// stream encryptor: counters advance in stream order, so draining the
// same plaintext stream through NextBatch yields the exact ciphertext
// sequence Next does — through a batch-capable inner source and through
// a legacy per-request one.
func TestEncryptSourceNextBatchMatchesNext(t *testing.T) {
	r := prng.New(14)
	reqs := make([]trace.Request, 100)
	for i := range reqs {
		reqs[i] = trace.Request{
			Addr: uint64(r.Intn(8)), // few addresses: counters climb
			Old:  randomLine(r),
			New:  randomLine(r),
		}
	}
	ref := NewEncryptSource(&trace.SliceSource{Reqs: reqs}, 0)
	want := make([]trace.Request, len(reqs))
	for i := range want {
		var ok bool
		if want[i], ok = ref.Next(); !ok {
			t.Fatalf("reference stream ended at %d", i)
		}
	}
	for _, batch := range []int{1, 7, 100} {
		bulk := NewEncryptSource(&trace.SliceSource{Reqs: reqs}, 0)
		dst := make([]trace.Request, batch)
		var got []trace.Request
		for {
			n := bulk.NextBatch(dst)
			if n == 0 {
				break
			}
			got = append(got, dst[:n]...)
		}
		if len(got) != len(want) {
			t.Fatalf("batch=%d drained %d requests, want %d", batch, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("batch=%d ciphertext %d differs between Next and NextBatch", batch, i)
			}
		}
	}
}
