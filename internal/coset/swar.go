// Word-parallel (SWAR) coset pricing and mapping application.
//
// A coset mapping is a bijection on 2-bit symbols, so both its
// application and its differential-write pricing are expressible as
// boolean algebra on the two bit-planes of a word (memline.LoHiPlanes)
// plus bits.OnesCount64 — the same word-level trick FNW/FlipMin hardware
// uses. Pricing a candidate over a block of cells costs a handful of
// ALU ops instead of one table lookup per cell:
//
//	count[s] = popcount(sym[Inv[s]] &^ oldIs[s] & mask)   for each state s
//	cost     = Σ count[s]·WriteEnergy(s),  updates = Σ count[s]
//
// where sym[v] masks the cells whose data symbol is v and oldIs[s] the
// cells currently in state s. The production codecs price through the
// block kernel of blocks.go: a pair register holds two adjacent 32-cell
// plane words in one uint64, so every boolean op and every popcount of
// a line-level sweep covers 64 cells, and for each (candidate,
// register) pair the four programmed-cell masks sym[Inv[s]] &^ oldIs[s]
// are built once. The lane kernel (lanes.go) then prices every block of
// the register at once, popcounting each mask into per-block lanes;
// the float kernel prices each block through its precomputed mask.
// WordPlanes, CostCount and BestSWAR are the single-word form of the
// same sum.
//
// Exactness. Every float path — the kernel's priceBlocks, CostCount,
// the scalar reference CostCountRef — sums the same integer per-state
// counts and prices them once, in ascending state order
// (SWARTable.price), each product rounded on its own so no platform
// fuses it into the sum, so they agree bit for bit, winner indices and
// tie-breaks included, under any energy model. The lane kernel
// (lanes.go), which BestBlocks and WLCRC's planner take when every
// write energy is a non-negative integer small enough for its 16-bit
// lanes, computes the same sums in integers; they are exact, so the
// winners are the same. This is also the write-energy contract of
// package pcm (EnergyModel.DiffWrite and DiffWriteMasks). Only the
// per-cell CostTable path adds energies cell by cell in another order;
// it agrees with the grouped sums because every energy model in this
// repository (Table II and the Fig. 14 levels) is integer-valued, so
// every partial sum is an exactly representable integer.
package coset

import (
	"math"
	"math/bits"

	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
)

// AllCells masks all 32 cells of a word in plane coordinates.
const AllCells = 1<<memline.WordCells - 1

// CellMask masks cells [lo, lo+n) of a word in plane coordinates.
func CellMask(lo, n int) uint64 {
	return (uint64(1)<<uint(n) - 1) << uint(lo)
}

// minterms decodes a pair of bit-planes into the four value-occupancy
// masks: m[v] has bit c set when cell c holds value v.
func minterms(lo, hi uint64) [4]uint64 {
	return [4]uint64{
		^(hi | lo) & AllCells,
		lo &^ hi,
		hi &^ lo,
		hi & lo,
	}
}

// WordPlanes is the bit-plane decomposition of one 64-bit data word and
// the 32 old cell states it will be written over. Built once per word,
// it prices any number of candidate mappings without another pass over
// the cells.
type WordPlanes struct {
	Lo, Hi uint64    // data symbol planes (memline.LoHiPlanes of the word)
	Sym    [4]uint64 // Sym[v]: cells whose data symbol is v
	OldIs  [4]uint64 // OldIs[s]: cells currently in state s
}

// Init fills all planes from a data word and its 32 old states.
func (p *WordPlanes) Init(word uint64, old []pcm.State) {
	p.SetData(word)
	p.SetOld(old)
}

// SetData replaces the data planes, keeping the old-state planes.
func (p *WordPlanes) SetData(word uint64) {
	p.Lo, p.Hi = memline.LoHiPlanes(word)
	p.Sym = minterms(p.Lo, p.Hi)
}

// SetOld replaces the old-state planes from the word's 32 current cell
// states. old must hold at least 32 states.
func (p *WordPlanes) SetOld(old []pcm.State) {
	p.OldIs = minterms(PackStates(old))
}

// PackStates packs the first 32 states of cells into compacted planes:
// bit c of lo/hi is the low/high bit of cells[c].
func PackStates(cells []pcm.State) (lo, hi uint64) {
	return memline.LoHiPlanes(InterleaveStates(cells))
}

// InterleaveStates packs the first 32 states of cells into one word in
// the interleaved layout of a data word: cell c's state sits at bits 2c
// (low bit) and 2c+1 (high bit). PackStates is its plane form.
func InterleaveStates(cells []pcm.State) uint64 {
	c := (*[memline.WordCells]pcm.State)(cells[:memline.WordCells])
	var z uint64
	for b := 0; b < 8; b++ {
		i := 4 * b
		z |= uint64(c[i]&3|c[i+1]&3<<2|c[i+2]&3<<4|c[i+3]&3<<6) << uint(8*b)
	}
	return z
}

// stateLUT expands a (lo nibble, hi nibble) plane pair back into four
// cell states, so UnpackStates writes four states per lookup without
// re-interleaving the planes.
var stateLUT = func() (t [256][4]pcm.State) {
	for b := 0; b < 256; b++ {
		for i := 0; i < 4; i++ {
			t[b][i] = pcm.State(b>>i&1 | b>>(4+i)&1<<1)
		}
	}
	return
}()

// UnpackStates writes the cell states encoded by a pair of state planes
// into dst — the inverse of PackStates. It writes min(32, len(dst))
// cells, so a caller whose region ends mid-word passes the short slice.
func UnpackStates(lo, hi uint64, dst []pcm.State) {
	n := len(dst)
	if n >= memline.WordCells {
		dst = dst[:memline.WordCells:memline.WordCells]
		for g := 0; g < 8; g++ {
			idx := lo>>uint(4*g)&0xF | hi>>uint(4*g)&0xF<<4
			copy(dst[4*g:4*g+4], stateLUT[idx][:])
		}
		return
	}
	for c := 0; c < n; c++ {
		dst[c] = pcm.State(lo>>uint(c)&1 | hi>>uint(c)&1<<1)
	}
}

// SWARTable is the word-parallel counterpart of CostTable: one mapping's
// pricing weights plus the plane-selector masks that apply the bijection
// (and its inverse) as 2-output boolean functions of the bit-planes.
type SWARTable struct {
	// States is the mapping itself; Inv its cached inverse.
	States Mapping
	Inv    [4]uint8
	// Energy[s] is the full programming energy of target state s
	// (WriteEnergy, i.e. Reset + Set[s]); zero when the table was built
	// apply-only with a nil energy model.
	Energy [4]float64
	// intE[s] is Energy[s] as an integer, and laneE the largest of them,
	// when every Energy[s] is an integer in [0, 2^20); otherwise laneE
	// is -1. The lane kernel (lanes.go) prices blocks by these integer
	// costs, which equal the float sums exactly.
	intE  [4]int
	laneE int
	// A bijection sends exactly two symbols to states with the low bit
	// set and two to states with the high bit set: loSyms and hiSyms
	// name them, and ORing the two named minterms applies the mapping
	// to one plane. Likewise two states decode to each data bit, so
	// each data plane of the inverse is a balanced, hence affine,
	// function of the state planes: inv[p] holds the masks (a, b, c)
	// with data plane p = lo&a ^ hi&b ^ c.
	loSyms, hiSyms [2]uint8
	inv            [2][3]uint64
}

// SWAR builds the word-parallel table of m under em. A nil em yields an
// apply/decode-only table whose costs are all zero — enough for the
// fixed-mapping paths (raw fallback, aux cells) that never price.
func (m Mapping) SWAR(em *pcm.EnergyModel) SWARTable {
	if !m.Valid() {
		panic("coset: SWAR of a mapping that is not a bijection")
	}
	t := SWARTable{States: m, Inv: m.Inverse()}
	var nlo, nhi int
	for p := range t.inv {
		f := func(s int) uint64 { return -uint64(t.Inv[s] >> p & 1) } // all ones when state s decodes to data bit p
		t.inv[p] = [3]uint64{f(0) ^ f(1), f(0) ^ f(2), f(0)}
	}
	for v := 0; v < 4; v++ {
		if em != nil {
			t.Energy[v] = em.WriteEnergy(pcm.State(v))
		}
		if e := t.Energy[v]; e == math.Trunc(e) && e >= 0 && e < 1<<20 && t.laneE >= 0 {
			t.intE[v] = int(e)
			t.laneE = max(t.laneE, t.intE[v])
		} else {
			t.laneE = -1
		}
		if m[v]&1 != 0 {
			t.loSyms[nlo] = uint8(v)
			nlo++
		}
		if m[v]&2 != 0 {
			t.hiSyms[nhi] = uint8(v)
			nhi++
		}
	}
	return t
}

// IntEnergy returns Energy as integers and true when every Energy[s] is
// an integer in [0, 2^20), the rule the lane kernel prices by; integer
// sums of such energies equal the float sums exactly. Otherwise ok is
// false.
func (t *SWARTable) IntEnergy() (e [4]int, ok bool) { return t.intE, t.laneE >= 0 }

// SWARTables builds one word-parallel table per candidate.
func SWARTables(em *pcm.EnergyModel, cands []Mapping) []SWARTable {
	out := make([]SWARTable, len(cands))
	for i, m := range cands {
		out[i] = m.SWAR(em)
	}
	return out
}

// C1SWAR is the apply/decode-only SWAR view of the fixed C1 mapping,
// shared by the raw-fallback and auxiliary-cell paths.
var C1SWAR = C1.SWAR(nil)

// CostCount prices writing the word's data through t over its old
// states, restricted to the cells selected by mask. It returns the
// differential-write energy and the number of programmed cells,
// bit-identical to summing CostTable entries over the same cells (see
// the package comment on exactness).
func (t *SWARTable) CostCount(p *WordPlanes, mask uint64) (cost float64, updates int) {
	n0 := bits.OnesCount64(p.Sym[t.Inv[0]] &^ p.OldIs[0] & mask)
	n1 := bits.OnesCount64(p.Sym[t.Inv[1]] &^ p.OldIs[1] & mask)
	n2 := bits.OnesCount64(p.Sym[t.Inv[2]] &^ p.OldIs[2] & mask)
	n3 := bits.OnesCount64(p.Sym[t.Inv[3]] &^ p.OldIs[3] & mask)
	return t.price(n0, n1, n2, n3), n0 + n1 + n2 + n3
}

// Apply maps the word's data symbols through t, returning the new-state
// planes for all 32 cells (callers mask to their block).
func (t *SWARTable) Apply(p *WordPlanes) (lo, hi uint64) {
	return t.ApplySyms(&p.Sym)
}

// ApplySyms is Apply from precomputed symbol-occupancy masks.
func (t *SWARTable) ApplySyms(sym *[4]uint64) (lo, hi uint64) {
	lo = sym[t.loSyms[0]&3] | sym[t.loSyms[1]&3]
	hi = sym[t.hiSyms[0]&3] | sym[t.hiSyms[1]&3]
	return lo, hi
}

// ApplyPlanes is Apply from raw data planes.
func (t *SWARTable) ApplyPlanes(lo, hi uint64) (nlo, nhi uint64) {
	sym := minterms(lo, hi)
	return t.ApplySyms(&sym)
}

// ApplyInvPlanes decodes state planes back to data-symbol planes — the
// word-parallel form of indexing Inv per cell.
func (t *SWARTable) ApplyInvPlanes(lo, hi uint64) (dlo, dhi uint64) {
	dlo, dhi = t.ApplyInvReg(lo, hi)
	return dlo & AllCells, dhi & AllCells
}

// BestSWAR evaluates every candidate over the masked cells and returns
// the index of the cheapest, with the same lowest-index tie-break as
// Best and BestTable.
func BestSWAR(tabs []SWARTable, p *WordPlanes, mask uint64) (idx int, cost float64) {
	idx = 0
	cost, _ = tabs[0].CostCount(p, mask)
	for i := 1; i < len(tabs); i++ {
		if c, _ := tabs[i].CostCount(p, mask); c < cost {
			idx, cost = i, c
		}
	}
	return idx, cost
}

// CostCountRef is the scalar reference for CostCount: it walks the
// masked cells one at a time, classifies each into its target state, and
// prices the identical Σ count[s]·Energy[s] sum. Equivalence tests and
// fuzz targets assert SWAR == scalar bit for bit against it.
func (t *SWARTable) CostCountRef(word uint64, old []pcm.State, mask uint64) (cost float64, updates int) {
	var count [4]int
	for c := 0; c < memline.WordCells; c++ {
		if mask>>uint(c)&1 == 0 {
			continue
		}
		st := t.States[word>>uint(2*c)&3]
		if st != old[c] {
			count[st]++
		}
	}
	for s := 0; s < 4; s++ {
		cost += float64(float64(count[s]) * t.Energy[s])
		updates += count[s]
	}
	return cost, updates
}
