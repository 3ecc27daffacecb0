// Package coset implements the coset-coding machinery of the paper:
// symbol-to-state mappings (coset candidates), the four hand-picked
// candidates of Table I, the six candidates of the 6cosets scheme
// (Wang et al. [34]), block cost evaluation under differential write, and
// the auxiliary-symbol state assignments of §IX.A.
//
// A coset candidate is a bijective mapping from the four 2-bit data
// symbols to the four cell states. Encoding a block with candidate C
// stores state C[sym] for each symbol; decoding inverts the mapping.
package coset

import (
	"fmt"
	"sort"

	"wlcrc/internal/pcm"
)

// Mapping is a bijective symbol-to-state mapping: Mapping[v] is the state
// that stores symbol value v. Symbol values follow the paper's textual
// notation ("01" = high bit 0, low bit 1 = value 1).
type Mapping [4]pcm.State

// Valid reports whether m is a bijection.
func (m Mapping) Valid() bool {
	var seen [pcm.NumStates]bool
	for _, s := range m {
		if s >= pcm.NumStates || seen[s] {
			return false
		}
		seen[s] = true
	}
	return true
}

// Inverse returns the state-to-symbol inverse of m.
func (m Mapping) Inverse() [4]uint8 {
	var inv [4]uint8
	for sym, st := range m {
		inv[st] = uint8(sym)
	}
	return inv
}

// String renders the mapping in Table I orientation (state -> symbol).
func (m Mapping) String() string {
	inv := m.Inverse()
	return fmt.Sprintf("S1<-%02b S2<-%02b S3<-%02b S4<-%02b", inv[0], inv[1], inv[2], inv[3])
}

// The four coset candidates of Table I.
//
//	State  energy  C1  C2  C3  C4
//	S1     36+0    00  11  11  11
//	S2     36+20   10  00  01  00
//	S3     36+307  11  10  00  01
//	S4     36+547  01  01  10  10
var (
	// C1 is the default symbol-to-state mapping (paper [16]).
	C1 = Mapping{pcm.S1, pcm.S4, pcm.S2, pcm.S3} // 00->S1 01->S4 10->S2 11->S3
	// C2 maps the all-zeros and all-ones symbols to the two cheapest
	// states, for biased data with long runs of 0s or 1s.
	C2 = Mapping{pcm.S2, pcm.S4, pcm.S3, pcm.S1} // 00->S2 01->S4 10->S3 11->S1
	// C3 complements C1: each symbol is cheap in C1 or in C3, which
	// helps random (unbiased) blocks.
	C3 = Mapping{pcm.S3, pcm.S2, pcm.S4, pcm.S1} // 00->S3 01->S2 10->S4 11->S1
	// C4 is the final Table I candidate.
	C4 = Mapping{pcm.S2, pcm.S3, pcm.S4, pcm.S1} // 00->S2 01->S3 10->S4 11->S1
)

// Table1 lists the four candidates in paper order; index i is candidate
// C(i+1).
var Table1 = [4]Mapping{C1, C2, C3, C4}

// Cached inverses of the Table I candidates. The hot decode paths index
// these instead of recomputing Mapping.Inverse per call.
var (
	C1Inv = C1.Inverse()
	C2Inv = C2.Inverse()
	C3Inv = C3.Inverse()
	C4Inv = C4.Inverse()
)

// Table1Inv lists the cached inverses in paper order, aligned with
// Table1.
var Table1Inv = [4][4]uint8{C1Inv, C2Inv, C3Inv, C4Inv}

// CostTable is the precomputed differential-write pricing of one mapping
// under one energy model: storing symbol v over a cell currently in
// state s costs Cost[s][v] pJ and programs Update[s][v] cells (1 when
// the mapped state differs from s, else 0; the cost entry is then 0 too,
// so summing table entries over a block reproduces the branchy
// "skip-unchanged" accumulation bit-for-bit — adding 0.0 is exact).
// Building tables once at scheme construction turns every per-cell
// WriteEnergy branch of the encode hot path into a single lookup.
type CostTable struct {
	Cost   [pcm.NumStates][4]float64
	Update [pcm.NumStates][4]uint8
	// States is the mapping itself (States[v] stores symbol v), kept
	// alongside so encoders holding a table need not carry the Mapping
	// separately.
	States Mapping
	// Inv is the cached state-to-symbol inverse of States.
	Inv [4]uint8
}

// CostTable precomputes the differential-write pricing of m under em.
func (m Mapping) CostTable(em *pcm.EnergyModel) CostTable {
	t := CostTable{States: m, Inv: m.Inverse()}
	for old := pcm.State(0); old < pcm.NumStates; old++ {
		for v := 0; v < 4; v++ {
			if st := m[v]; st != old {
				t.Cost[old][v] = em.WriteEnergy(st)
				t.Update[old][v] = 1
			}
		}
	}
	return t
}

// CostTables builds one cost table per candidate.
func CostTables(em *pcm.EnergyModel, cands []Mapping) []CostTable {
	out := make([]CostTable, len(cands))
	for i, m := range cands {
		out[i] = m.CostTable(em)
	}
	return out
}

// BlockCost is the table-driven equivalent of the package-level
// BlockCost: the differential-write energy of storing syms over old.
// It is branch-free on the energy model and bit-identical to the direct
// computation (unchanged cells contribute an exact 0.0).
func (t *CostTable) BlockCost(syms []uint8, old []pcm.State) float64 {
	var cost float64
	for i, v := range syms {
		cost += t.Cost[old[i]][v&3]
	}
	return cost
}

// BlockCostUpdates returns the block cost and the number of programmed
// cells in one pass.
func (t *CostTable) BlockCostUpdates(syms []uint8, old []pcm.State) (float64, int) {
	var cost float64
	upd := 0
	for i, v := range syms {
		s := old[i]
		cost += t.Cost[s][v&3]
		upd += int(t.Update[s][v&3])
	}
	return cost, upd
}

// Encode writes the states States[syms[i]] into dst, like the
// package-level Encode but from a prebuilt table.
func (t *CostTable) Encode(syms []uint8, dst []pcm.State) {
	for i, v := range syms {
		dst[i] = t.States[v&3]
	}
}

// BestTable evaluates every candidate table and returns the index of the
// one with the lowest differential-write energy, with the same tie
// break as Best (lowest index wins).
func BestTable(tabs []CostTable, syms []uint8, old []pcm.State) (idx int, cost float64) {
	idx = 0
	cost = tabs[0].BlockCost(syms, old)
	for i := 1; i < len(tabs); i++ {
		if c := tabs[i].BlockCost(syms, old); c < cost {
			idx, cost = i, c
		}
	}
	return idx, cost
}

// SixCosets returns the six candidates of the 6cosets scheme [34]: for
// every unordered pair {a<b} of symbols, a is mapped to S1 and b to S2
// (the two low-energy states) and the remaining symbols {c<d} to S3 and
// S4. The encoder evaluates all six and keeps the cheapest, which
// generalizes "map the two most frequent symbols to the low-energy
// states".
func SixCosets() []Mapping {
	var out []Mapping
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			var m Mapping
			m[a] = pcm.S1
			m[b] = pcm.S2
			rest := pcm.S3
			for v := 0; v < 4; v++ {
				if v == a || v == b {
					continue
				}
				m[v] = rest
				rest = pcm.S4
			}
			out = append(out, m)
		}
	}
	return out
}

// BlockCost returns the differential-write energy of storing the data
// symbols syms into the cells currently holding states old, using
// candidate m. len(old) must equal len(syms).
func BlockCost(em *pcm.EnergyModel, m Mapping, syms []uint8, old []pcm.State) float64 {
	if len(syms) != len(old) {
		panic("coset: BlockCost length mismatch")
	}
	var cost float64
	for i, v := range syms {
		st := m[v&3]
		if st != old[i] {
			cost += em.WriteEnergy(st)
		}
	}
	return cost
}

// BlockUpdates returns the number of cells a differential write would
// program when storing syms with candidate m over old.
func BlockUpdates(m Mapping, syms []uint8, old []pcm.State) int {
	if len(syms) != len(old) {
		panic("coset: BlockUpdates length mismatch")
	}
	n := 0
	for i, v := range syms {
		if m[v&3] != old[i] {
			n++
		}
	}
	return n
}

// Encode writes the states m[syms[i]] into dst. dst and syms must have
// equal length.
func Encode(m Mapping, syms []uint8, dst []pcm.State) {
	if len(syms) != len(dst) {
		panic("coset: Encode length mismatch")
	}
	for i, v := range syms {
		dst[i] = m[v&3]
	}
}

// Decode recovers the data symbols from the stored states using
// candidate m.
func Decode(m Mapping, states []pcm.State, dst []uint8) {
	inv := m.Inverse()
	if len(states) != len(dst) {
		panic("coset: Decode length mismatch")
	}
	for i, s := range states {
		dst[i] = inv[s]
	}
}

// Best evaluates every candidate and returns the index of the one with
// the lowest differential-write energy (ties break toward the lower
// index, so C1 — the identity mapping — wins ties, which keeps auxiliary
// cells in low-energy states as §IX.A prescribes).
func Best(em *pcm.EnergyModel, cands []Mapping, syms []uint8, old []pcm.State) (idx int, cost float64) {
	idx = 0
	cost = BlockCost(em, cands[0], syms, old)
	for i := 1; i < len(cands); i++ {
		if c := BlockCost(em, cands[i], syms, old); c < cost {
			idx, cost = i, c
		}
	}
	return idx, cost
}

// AuxPairs returns the 16 two-symbol state combinations ordered by total
// programming energy (cheapest first). 6cosets identifies its candidate
// with the i-th cheapest pair (§III: "we use the six state combinations
// of the two auxiliary symbols that require the least write energy").
// The order is deterministic: ties break on (first state, second state).
func AuxPairs(em *pcm.EnergyModel) [][2]pcm.State {
	pairs := make([][2]pcm.State, 0, 16)
	for a := pcm.State(0); a < pcm.NumStates; a++ {
		for b := pcm.State(0); b < pcm.NumStates; b++ {
			pairs = append(pairs, [2]pcm.State{a, b})
		}
	}
	sort.SliceStable(pairs, func(i, j int) bool {
		ei := em.Set[pairs[i][0]] + em.Set[pairs[i][1]]
		ej := em.Set[pairs[j][0]] + em.Set[pairs[j][1]]
		if ei != ej {
			return ei < ej
		}
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	return pairs
}

// AuxPack is the fixed mapping used for bit-packed auxiliary regions
// (restricted coset group bits, FNW flip bits, FlipMin candidate
// indices): pair value i is stored as state S(i+1), so the common
// low-population pairs stay in low-energy states (§IX.A: aux bit '0'
// identifies the most frequent candidate C1 and should cost least, and a
// single set bit should not land in S4 the way the default data mapping
// would put it).
var AuxPack = Mapping{pcm.S1, pcm.S2, pcm.S3, pcm.S4}

// PackBitsToStates packs a bit string (LSB first) into cells two bits at
// a time through the fixed AuxPack mapping. Bits beyond
// len(bits) are treated as zero to fill the final cell.
func PackBitsToStates(bits []uint8, dst []pcm.State) {
	PackBitsToStatesWith(AuxPack, bits, dst)
}

// PackBitsToStatesWith packs through an arbitrary fixed mapping; the
// ablation study uses it to compare AuxPack against the default data
// mapping C1.
func PackBitsToStatesWith(m Mapping, bits []uint8, dst []pcm.State) {
	need := (len(bits) + 1) / 2
	if len(dst) < need {
		panic("coset: PackBitsToStates dst too short")
	}
	for c := 0; c < need; c++ {
		lo := bits[2*c] & 1
		hi := uint8(0)
		if 2*c+1 < len(bits) {
			hi = bits[2*c+1] & 1
		}
		dst[c] = m[hi<<1|lo]
	}
}

// UnpackStatesToBits is the inverse of PackBitsToStates: it recovers
// nbits bits from cells stored with the fixed AuxPack mapping.
func UnpackStatesToBits(states []pcm.State, nbits int) []uint8 {
	return UnpackStatesToBitsWith(AuxPack, states, nbits)
}

// UnpackStatesToBitsWith inverts PackBitsToStatesWith.
func UnpackStatesToBitsWith(m Mapping, states []pcm.State, nbits int) []uint8 {
	bits := make([]uint8, nbits)
	UnpackBitsWith(m, states, bits)
	return bits
}

// UnpackBits recovers len(dst) bits from cells stored with the fixed
// AuxPack mapping into caller storage, the allocation-free counterpart
// of UnpackStatesToBits.
func UnpackBits(states []pcm.State, dst []uint8) {
	UnpackBitsWith(AuxPack, states, dst)
}

// UnpackBitsWith recovers len(dst) bits through an arbitrary fixed
// mapping into caller storage.
func UnpackBitsWith(m Mapping, states []pcm.State, dst []uint8) {
	inv := m.Inverse()
	for i := range dst {
		sym := inv[states[i/2]]
		if i%2 == 0 {
			dst[i] = sym & 1
		} else {
			dst[i] = sym >> 1
		}
	}
}
