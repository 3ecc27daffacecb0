package pcm

import (
	"math"
	"math/bits"
	"slices"
	"testing"

	"wlcrc/internal/prng"
)

// packTestPlanes packs a cell vector into the bit-plane layout the
// arena stores: planes[2w] holds the low state bits and planes[2w+1]
// the high state bits of cells [32w, 32w+32), tail bits zero. (The
// canonical packer lives in coset, which imports pcm — re-implemented
// here to keep the test in-package.)
func packTestPlanes(cells []State) []uint64 {
	words := 2 * ((len(cells) + 31) / 32)
	p := make([]uint64, words)
	for i, s := range cells {
		p[2*(i/32)] |= uint64(s&1) << uint(i%32)
		p[2*(i/32)+1] |= uint64(s>>1) << uint(i%32)
	}
	return p
}

// randStates fills a random cell vector.
func randStates(r *prng.Xoshiro256, n int) []State {
	cells := make([]State, n)
	for i := range cells {
		cells[i] = State(r.Intn(NumStates))
	}
	return cells
}

// diffWriteOrdered is the per-cell reference accounting: each
// programmed cell adds Reset + Set[new state] to its region's energy in
// ascending cell order. Production pricing groups the same additions by
// target state (EnergyModel.price); under integer-valued models the two
// agree bit for bit.
func diffWriteOrdered(m *EnergyModel, old, new []State, dataCells int) WriteStats {
	var st WriteStats
	for i, n := range new {
		if old[i] == n {
			continue
		}
		e := m.Reset + m.Set[n]
		if i < dataCells {
			st.EnergyData += e
			st.UpdatedData++
		} else {
			st.EnergyAux += e
			st.UpdatedAux++
		}
	}
	return st
}

// sameStats reports whether a and b are identical, comparing energies
// by bit pattern.
func sameStats(a, b WriteStats) bool {
	return math.Float64bits(a.EnergyData) == math.Float64bits(b.EnergyData) &&
		math.Float64bits(a.EnergyAux) == math.Float64bits(b.EnergyAux) &&
		a.UpdatedData == b.UpdatedData && a.UpdatedAux == b.UpdatedAux
}

// integral reports whether every energy of m is an integer, the
// condition under which grouped pricing equals the ordered oracle.
func integral(m EnergyModel) bool {
	if m.Reset != math.Trunc(m.Reset) {
		return false
	}
	for _, e := range m.Set {
		if e != math.Trunc(e) {
			return false
		}
	}
	return true
}

// fig14Models are the Table II model and the four Fig. 14 sensitivity
// levels (the first level is Table II itself).
func fig14Models() []EnergyModel {
	return []EnergyModel{
		DefaultEnergy(),
		ScaledEnergy(307, 547), ScaledEnergy(152, 273), ScaledEnergy(75, 135), ScaledEnergy(50, 80),
	}
}

// randModel draws an energy model: integer-valued pJ in [0, 1024) when
// integer is set, arbitrary non-negative reals otherwise.
func randModel(r *prng.Xoshiro256, integer bool) EnergyModel {
	draw := func() float64 {
		if integer {
			return float64(r.Intn(1024))
		}
		return r.Float64() * 1000
	}
	m := EnergyModel{Reset: draw()}
	for s := range m.Set {
		m.Set[s] = draw()
	}
	return m
}

// packedModel decodes a fuzzed integer model: Reset from bits 0..9 and
// Set[s] from the 12 bits at 10+12s.
func packedModel(v uint64) EnergyModel {
	m := EnergyModel{Reset: float64(v & 0x3ff)}
	for s := range m.Set {
		m.Set[s] = float64(v >> uint(10+12*s) & 0xfff)
	}
	return m
}

// tableIIPacked is DefaultEnergy in packedModel's encoding.
const tableIIPacked = 36 | 20<<22 | 307<<34 | 547<<46

// maskEquivCase cross-checks the plane-mask accounting against the
// scalar reference for one (old, new) pair under energy model em and
// disturbance model dm:
// DiffWriteMasks must produce the exact WriteStats of DiffWrite and
// DiffWriteMask (all three count by target state and price through the
// same formula, so they agree bit for bit under any model), plus the
// changed mask of ChangedMask; under an integer-valued model all three
// must also equal the per-cell ordered oracle. CountDisturbMasks must
// produce the exact DisturbStats of CountDisturb under both
// expected-value and sampled accounting, with identical PRNG draw
// sequences, and DisturbedMasksInto must hit exactly the cells
// DisturbedCellsInto does, from the same draws.
func maskEquivCase(t *testing.T, em EnergyModel, dm DisturbModel, old, new []State, dataCells int, seed uint64) {
	t.Helper()
	n := len(old)

	wantW := em.DiffWrite(old, new, dataCells)
	wantCh := ChangedMask(old, new)
	if fused, _ := em.DiffWriteMask(old, new, dataCells, nil); !sameStats(fused, wantW) {
		t.Fatalf("DiffWriteMask = %+v, DiffWrite = %+v", fused, wantW)
	}
	if integral(em) {
		if ord := diffWriteOrdered(&em, old, new, dataCells); !sameStats(ord, wantW) {
			t.Fatalf("model %+v: DiffWrite = %+v, ordered oracle = %+v", em, wantW, ord)
		}
	}

	oldP, newP := packTestPlanes(old), packTestPlanes(new)
	masks := make([]uint64, len(newP)/2)
	gotW := em.DiffWriteMasks(oldP, newP, masks, dataCells)
	if !sameStats(wantW, gotW) {
		t.Fatalf("model %+v: DiffWriteMasks = %+v, DiffWrite = %+v", em, gotW, wantW)
	}
	for i, ch := range wantCh {
		if got := masks[i/32]>>uint(i%32)&1 == 1; got != ch {
			t.Fatalf("changed mask differs at cell %d: plane %v scalar %v", i, got, ch)
		}
	}
	for w, m := range masks {
		hi := (w + 1) * 32
		if hi > n {
			if m>>(uint(n-w*32)) != 0 {
				t.Fatalf("mask word %d has tail bits set: %#x", w, m)
			}
		}
	}

	// Expected-value disturbance, against the scalar count and the
	// per-word walk the chunked one replaced.
	wantD := dm.CountDisturb(new, wantCh, dataCells, nil)
	gotD := dm.CountDisturbMasks(newP, masks, n, dataCells, nil)
	if wantD != gotD {
		t.Fatalf("DER %v: CountDisturbMasks = %+v, CountDisturb = %+v", dm.DER, gotD, wantD)
	}
	if wordD := dm.countDisturbWords(newP, masks, n, dataCells, nil); wordD != gotD {
		t.Fatalf("DER %v: CountDisturbMasks = %+v, per-word walk = %+v", dm.DER, gotD, wordD)
	}

	// Sampled disturbance: identical stats from identical seeds, and the
	// two streams must end at the same position (same number of draws).
	r1, r2 := prng.New(seed), prng.New(seed)
	wantS := dm.CountDisturb(new, wantCh, dataCells, r1)
	gotS := dm.CountDisturbMasks(newP, masks, n, dataCells, r2)
	if wantS != gotS {
		t.Fatalf("DER %v: sampled CountDisturbMasks = %+v, CountDisturb = %+v", dm.DER, gotS, wantS)
	}
	if a, b := r1.Uint64(), r2.Uint64(); a != b {
		t.Fatalf("DER %v: sampled paths consumed different draw counts (next draws %#x vs %#x)", dm.DER, a, b)
	}

	// Hit sampling: the same cells as DisturbedCellsInto, from the same
	// draws, leaving the PRNG in the same state.
	r1, r2 = prng.New(seed), prng.New(seed)
	wantHits := dm.DisturbedCellsInto(nil, new, wantCh, r1)
	hits := make([]uint64, len(masks))
	for i := range hits {
		hits[i] = ^uint64(0) // stale content must be overwritten
	}
	if got := dm.DisturbedMasksInto(hits, newP, masks, n, r2); got != len(wantHits) {
		t.Fatalf("DER %v: DisturbedMasksInto = %d hits, DisturbedCellsInto = %d", dm.DER, got, len(wantHits))
	}
	var gotHits []int
	for w, m := range hits {
		for ; m != 0; m &= m - 1 {
			gotHits = append(gotHits, w*32+bits.TrailingZeros64(m))
		}
	}
	if !slices.Equal(gotHits, wantHits) {
		t.Fatalf("DER %v: DisturbedMasksInto hits %v, DisturbedCellsInto %v", dm.DER, gotHits, wantHits)
	}
	if a, b := r1.Uint64(), r2.Uint64(); a != b {
		t.Fatalf("DER %v: hit samplers consumed different draw counts (next draws %#x vs %#x)", dm.DER, a, b)
	}
}

// TestPlaneMaskAccountingMatchesScalar sweeps the plane-mask energy and
// disturbance accounting over the line geometries the schemes use (257,
// 258 and 268 total cells, 256 data cells) plus boundary sizes around
// the 32-cell plane word and the 64-cell exposure chunk: lines that end
// just before, on and just after a chunk boundary, a final chunk of one
// word, and data/aux splits inside a chunk.
func TestPlaneMaskAccountingMatchesScalar(t *testing.T) {
	r := prng.New(20260807)
	sizes := []struct{ n, data int }{
		{257, 256}, {258, 256}, {256, 256}, {64, 32}, {33, 32}, {32, 16}, {1, 1},
		{63, 63}, {64, 64}, {65, 64}, {96, 64}, {128, 100}, {129, 128},
		{192, 130}, {268, 256}, {288, 200},
	}
	for _, sz := range sizes {
		for trial := 0; trial < 40; trial++ {
			old := randStates(r, sz.n)
			new := randStates(r, sz.n)
			if trial%4 == 0 {
				copy(new, old) // no-op write: nothing changed, nothing exposed
				if sz.n > 2 {
					new[sz.n/2] = (new[sz.n/2] + 1) % NumStates
				}
			}
			maskEquivCase(t, DefaultEnergy(), DefaultDisturb(), old, new, sz.data, uint64(trial)+1)
		}
	}
}

// FuzzPlaneMaskAccounting fuzzes the same equivalence: the input bytes
// drive both state vectors and the data-cell split, and model an
// integer energy model (packedModel), so the ordered oracle is checked
// too.
func FuzzPlaneMaskAccounting(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, []byte{3, 2, 1, 0}, uint16(2), uint64(tableIIPacked))
	f.Add([]byte{1}, []byte{2}, uint16(1), uint64(tableIIPacked))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 3}, []byte{1, 1, 1, 1, 0, 0, 0, 0, 3}, uint16(8), uint64(tableIIPacked))
	f.Add([]byte{3, 3, 2, 1, 0, 2}, []byte{0, 1, 2, 3, 3, 1}, uint16(4), ^uint64(0))
	// A single changed cell on each side of the first two chunk
	// boundaries (cells 63/64 and 127/128) over an all-S1 line, whose
	// every neighbour is exposed, with data/aux splits on and next to
	// the boundaries.
	for _, c := range []struct {
		cell int
		data uint16
	}{{63, 64}, {64, 64}, {63, 63}, {64, 65}, {127, 128}, {128, 128}, {127, 127}, {128, 129}, {128, 200}} {
		old := make([]byte, 200)
		new := make([]byte, 200)
		new[c.cell] = 3
		f.Add(old, new, c.data, uint64(tableIIPacked))
	}
	// Both cells of each boundary pair changed, and a line with every
	// cell changed but those pairs, so only they stay idle.
	for _, pair := range [][2]int{{63, 64}, {127, 128}} {
		old := make([]byte, 200)
		one := make([]byte, 200)
		idle := make([]byte, 200)
		one[pair[0]], one[pair[1]] = 2, 3
		for i := range idle {
			idle[i] = 3
		}
		idle[pair[0]], idle[pair[1]] = 0, 0
		f.Add(old, one, uint16(pair[1]), uint64(tableIIPacked))
		f.Add(old, idle, uint16(pair[0]), uint64(tableIIPacked))
	}
	f.Fuzz(func(t *testing.T, a, b []byte, dataSel uint16, model uint64) {
		if len(a) == 0 || len(b) == 0 {
			t.Skip("empty vectors")
		}
		n := len(a)
		if n > 258 {
			n = 258
		}
		old := make([]State, n)
		new := make([]State, n)
		for i := 0; i < n; i++ {
			old[i] = State(a[i] % 4)
			new[i] = State(b[i%len(b)] % 4)
		}
		dataCells := int(dataSel) % (n + 1)
		maskEquivCase(t, packedModel(model), DefaultDisturb(), old, new, dataCells, uint64(dataSel)+7)
	})
}

// TestGroupedPricingMatchesOrderedOracle pins the exactness contract:
// under Table II, every Fig. 14 level and seeded random integer-valued
// models, the grouped scalar and plane pricing equal the per-cell
// ordered sum bit for bit.
func TestGroupedPricingMatchesOrderedOracle(t *testing.T) {
	r := prng.New(20261017)
	models := fig14Models()
	for i := 0; i < 16; i++ {
		models = append(models, randModel(r, true))
	}
	for _, em := range models {
		for _, sz := range []struct{ n, data int }{{258, 256}, {268, 256}, {257, 256}, {33, 32}} {
			for trial := 0; trial < 20; trial++ {
				maskEquivCase(t, em, DefaultDisturb(), randStates(r, sz.n), randStates(r, sz.n), sz.data, uint64(trial)+1)
			}
		}
	}
	if got := packedModel(tableIIPacked); got != DefaultEnergy() {
		t.Fatalf("packedModel(tableIIPacked) = %+v, want Table II", got)
	}
}

// TestPlaneScalarAgreeNonInteger checks that the plane and scalar paths
// agree bit for bit even where grouping is not exact: under seeded
// non-integer models both count by target state and price through the
// same formula.
func TestPlaneScalarAgreeNonInteger(t *testing.T) {
	r := prng.New(1711085)
	for i := 0; i < 16; i++ {
		em := randModel(r, false)
		if integral(em) {
			t.Fatalf("randModel drew an integer model %+v", em)
		}
		for trial := 0; trial < 20; trial++ {
			maskEquivCase(t, em, DefaultDisturb(), randStates(r, 268), randStates(r, 268), 256, uint64(trial)+1)
		}
	}
}

// TestZeroDERPatterns sweeps every zero/nonzero pattern of the four
// per-state DERs, with seeded non-integer nonzero rates, so the
// zero-DER minterm mask of CountDisturbMasks is exercised for each
// state and every combination of states, not only Table II's immune
// S2. Expected-value sums must match CountDisturb bit for bit and the
// sampled path must draw for exactly the same cells, over the scheme
// geometries (257, 258, 268 cells) and a one-cell tail word (33).
func TestZeroDERPatterns(t *testing.T) {
	r := prng.New(1711)
	for pattern := 0; pattern < 1<<NumStates; pattern++ {
		var dm DisturbModel
		for s := range dm.DER {
			if pattern>>uint(s)&1 != 0 {
				dm.DER[s] = 0.05 + 0.9*r.Float64()
			}
		}
		for _, sz := range []struct{ n, data int }{{257, 256}, {258, 256}, {268, 256}, {33, 32}} {
			for trial := 0; trial < 12; trial++ {
				maskEquivCase(t, DefaultEnergy(), dm, randStates(r, sz.n), randStates(r, sz.n), sz.data, uint64(trial)+1)
			}
		}
	}
}
