package coset

import (
	"math/bits"

	"wlcrc/internal/memline"
)

// Pair registers and the block pricing kernel.
//
// A pair register holds two adjacent 32-cell plane words in one uint64:
// word 2k of a plane-resident line in bits 0-31, word 2k+1 in bits
// 32-63, so the 256 data cells of a line are four registers per plane
// and every boolean op or popcount of a sweep covers 64 cells. The
// kernel prices a block-granular coset code over such registers: for
// each (candidate, register) pair it builds the four programmed-cell
// masks Sym[Inv[s]] &^ OldIs[s] once. Under an integer model whose
// blocks lie in lanes, the lane kernel (lanes.go) prices all of the
// register's blocks from them in a few word ops. Otherwise the float
// kernel prices every block through its precomputed block mask: counts
// are summed per state across a block's registers and priced once, in
// ascending state order (SWARTable.price), so a block's cost is the one
// CostCount, CostCountRef and the per-cell CostTable path compute for
// it.

// RegCells is the number of cells in one pair register.
const RegCells = 2 * memline.WordCells

// MaxRegs is the number of pair registers covering a line's data cells.
const MaxRegs = memline.LineCells / RegCells

// Pair joins two adjacent 32-cell plane words into one register.
func Pair(w0, w1 uint64) uint64 { return w0 | w1<<32 }

// minterms64 is minterms over a full 64-cell register.
func minterms64(lo, hi uint64) [4]uint64 {
	return [4]uint64{^(hi | lo), lo &^ hi, hi &^ lo, hi & lo}
}

// Regs is the pair-register decomposition of a line's data and of the
// old states it will be written over, built once per write.
type Regs struct {
	Lo, Hi [MaxRegs]uint64    // data symbol planes
	Sym    [MaxRegs][4]uint64 // Sym[r][v]: cells of register r whose data symbol is v
	OldIs  [MaxRegs][4]uint64 // OldIs[r][s]: cells of register r currently in state s
}

// Load fills the registers from the data line and a plane-resident old
// line.
func (p *Regs) Load(data *memline.Line, old []uint64) {
	for r := 0; r < MaxRegs; r++ {
		lo0, hi0 := memline.LoHiPlanes(data.Word(2 * r))
		lo1, hi1 := memline.LoHiPlanes(data.Word(2*r + 1))
		p.Lo[r], p.Hi[r] = Pair(lo0, lo1), Pair(hi0, hi1)
		p.Sym[r] = minterms64(p.Lo[r], p.Hi[r])
		p.OldIs[r] = minterms64(Pair(old[4*r], old[4*r+2]), Pair(old[4*r+1], old[4*r+3]))
	}
}

// LoadRegs reads the data registers of a plane-resident line's state
// planes.
func LoadRegs(planes []uint64, lo, hi *[MaxRegs]uint64) {
	for r := 0; r < MaxRegs; r++ {
		lo[r] = Pair(planes[4*r], planes[4*r+2])
		hi[r] = Pair(planes[4*r+1], planes[4*r+3])
	}
}

// StoreRegs writes the first n cells of registers lo/hi into a
// plane-resident line. Full words overwrite; a final partial word
// merges, keeping dst's cells at and beyond n.
func StoreRegs(dst []uint64, lo, hi *[MaxRegs]uint64, n int) {
	full := n / memline.WordCells
	for w := 0; w < full; w++ {
		sh := uint(32 * (w & 1))
		dst[2*w] = lo[w>>1] >> sh & AllCells
		dst[2*w+1] = hi[w>>1] >> sh & AllCells
	}
	if rem := n - full*memline.WordCells; rem > 0 {
		mask := CellMask(0, rem)
		sh := uint(32 * (full & 1))
		dst[2*full] = dst[2*full]&^mask | lo[full>>1]>>sh&mask
		dst[2*full+1] = dst[2*full+1]&^mask | hi[full>>1]>>sh&mask
	}
}

// RegWords splits a register's data planes back into its two words.
func RegWords(lo, hi uint64) (w0, w1 uint64) {
	return memline.InterleavePlanes(lo, hi), memline.InterleavePlanes(lo>>32, hi>>32)
}

// Blocks is a precomputed block geometry over pair registers. A block
// either lies inside one register, selected by its mask, or spans
// whole consecutive registers (the 128- and 256-cell blocks of the
// coarse line-coset granularities).
type Blocks struct {
	n     int              // blocks
	regs  int              // registers covered, from register 0
	per   int              // registers per block when blocks span registers, else 0
	first [MaxRegs + 1]int // in-register blocks first[r]..first[r+1]-1 lie in register r
	mask  []uint64         // in-register cell mask per block
	lanes                  // the lane kernel's layout; lane 0 when it does not apply
}

// NewBlocks builds the geometry of blocks given as [lo, hi) line cell
// ranges in ascending order, all below memline.LineCells. Each range
// lies inside one register, or covers whole registers and all ranges
// have that same size.
func NewBlocks(ranges [][2]int) *Blocks {
	g := &Blocks{n: len(ranges)}
	if n := ranges[0][1] - ranges[0][0]; n > RegCells {
		g.per = n / RegCells
		for _, rng := range ranges {
			if rng[0]%RegCells != 0 || rng[1]-rng[0] != n {
				panic("coset: register-spanning blocks must cover whole registers")
			}
		}
		g.regs = ranges[len(ranges)-1][1] / RegCells
		return g
	}
	for b, rng := range ranges {
		r := rng[0] / RegCells
		if (rng[1]-1)/RegCells != r {
			panic("coset: block straddles a register boundary")
		}
		for g.regs <= r {
			g.regs++
			g.first[g.regs] = b
		}
		g.first[g.regs] = b + 1
		g.mask = append(g.mask, CellMask(rng[0]-r*RegCells, rng[1]-rng[0]))
	}
	g.lanes = newLanes(ranges)
	return g
}

// UniformBlocks is the geometry of blockCells-cell blocks tiling cells
// [0, cells).
func UniformBlocks(cells, blockCells int) *Blocks {
	var ranges [][2]int
	for lo := 0; lo < cells; lo += blockCells {
		ranges = append(ranges, [2]int{lo, lo + blockCells})
	}
	return NewBlocks(ranges)
}

// Len returns the number of blocks.
func (g *Blocks) Len() int { return g.n }

// maxCands bounds the candidate count of one kernel call.
const maxCands = 16

// price prices per-state programmed-cell counts: Σ cnt[s]·Energy[s],
// summed in ascending state order.
// Each product is rounded on its own (float64 conversion), so no
// platform fuses a multiply into the sum.
func (t *SWARTable) price(n0, n1, n2, n3 int) float64 {
	return float64(float64(n0)*t.Energy[0]) + float64(float64(n1)*t.Energy[1]) +
		float64(float64(n2)*t.Energy[2]) + float64(float64(n3)*t.Energy[3])
}

// programmed returns, per target state, the register's cells that
// writing its data through t programs.
func (t *SWARTable) programmed(sym, oldIs *[4]uint64) [4]uint64 {
	return [4]uint64{
		sym[t.Inv[0]] &^ oldIs[0],
		sym[t.Inv[1]] &^ oldIs[1],
		sym[t.Inv[2]] &^ oldIs[2],
		sym[t.Inv[3]] &^ oldIs[3],
	}
}

// addCounts adds to cnt the per-target-state counts of the programmed
// cells q within mask.
func addCounts(q *[4]uint64, mask uint64, cnt *[4]int) {
	cnt[0] += bits.OnesCount64(q[0] & mask)
	cnt[1] += bits.OnesCount64(q[1] & mask)
	cnt[2] += bits.OnesCount64(q[2] & mask)
	cnt[3] += bits.OnesCount64(q[3] & mask)
}

// CountReg adds to cnt the per-target-state programmed-cell counts of
// writing data planes (lo, hi) through t over a whole register whose
// old states are oldIs — the sweep of line-wide blocks whose candidates
// transform the data (FlipMin's XOR masks) instead of the mapping.
func (t *SWARTable) CountReg(lo, hi uint64, oldIs *[4]uint64, cnt *[4]int) {
	sym := minterms64(lo, hi)
	q := t.programmed(&sym, oldIs)
	addCounts(&q, ^uint64(0), cnt)
}

// Price prices accumulated per-state counts, returning the energy and
// the number of programmed cells.
func (t *SWARTable) Price(cnt *[4]int) (cost float64, updates int) {
	return t.price(cnt[0], cnt[1], cnt[2], cnt[3]), cnt[0] + cnt[1] + cnt[2] + cnt[3]
}

// BestBlocks prices every candidate over every block of g and stores
// each block's cheapest candidate in idx, the lowest index on ties.
// len(tabs) is at most 16. Blocks laid out in lanes under an integer
// model that fits them (LanesFit) go through the lane kernel, which
// prices all of a register's blocks per candidate in a few word ops and
// takes their minimum without a branch; it never calls the POPCNT
// instruction, so it also skips the CPU-feature branch GOAMD64=v1 puts
// in front of every bits.OnesCount64. Register-spanning blocks,
// non-integer models and models too large for the lanes are priced in
// floats. Both give the same winners: the lane costs are the float sums
// exactly.
func BestBlocks(tabs []SWARTable, p *Regs, g *Blocks, idx []uint8) {
	if g.per == 0 && g.LanesFit(tabs) {
		bestLanes(tabs, p, g, idx)
		return
	}
	priceBlocks(tabs, p, g, nil, idx)
}

// EvalBlocks prices every candidate over every block of g, storing the
// energy of candidate i on block b in cost[b*len(tabs)+i]. len(tabs) is
// at most 16.
func EvalBlocks(tabs []SWARTable, p *Regs, g *Blocks, cost []float64) {
	priceBlocks(tabs, p, g, cost, nil)
}

// priceBlocks prices every candidate over every block of g in floats
// and records each block's costs in cost and its cheapest candidate in
// idx, skipping a nil one. The programmed-cell masks of each
// (candidate, register) pair are built once; a register-spanning block
// sums its registers' counts before pricing them.
func priceBlocks(tabs []SWARTable, p *Regs, g *Blocks, cost []float64, idx []uint8) {
	var c [maxCands]float64
	if g.per > 0 {
		for b := 0; b < g.n; b++ {
			for i := range tabs {
				var cnt [4]int
				for r := b * g.per; r < (b+1)*g.per; r++ {
					q := tabs[i].programmed(&p.Sym[r], &p.OldIs[r])
					addCounts(&q, ^uint64(0), &cnt)
				}
				c[i], _ = tabs[i].Price(&cnt)
			}
			record(b, c[:len(tabs)], cost, idx)
		}
		return
	}
	var q [maxCands][4]uint64
	for r := 0; r < g.regs; r++ {
		for i := range tabs {
			q[i] = tabs[i].programmed(&p.Sym[r], &p.OldIs[r])
		}
		for b := g.first[r]; b < g.first[r+1]; b++ {
			for i := range tabs {
				var cnt [4]int
				addCounts(&q[i], g.mask[b], &cnt)
				c[i], _ = tabs[i].Price(&cnt)
			}
			record(b, c[:len(tabs)], cost, idx)
		}
	}
}

// record stores block b's candidate costs c into cost and its cheapest
// candidate, the lowest index on ties, into idx, skipping a nil one.
func record(b int, c, cost []float64, idx []uint8) {
	if cost != nil {
		copy(cost[b*len(c):], c)
	}
	if idx != nil {
		best := 0
		for i := 1; i < len(c); i++ {
			if c[i] < c[best] {
				best = i
			}
		}
		idx[b] = uint8(best)
	}
}

// ApplyBlocks maps each block's data through its chosen candidate
// tabs[idx[b]] into the state registers lo/hi; cells outside every
// block come out zero.
func ApplyBlocks(tabs []SWARTable, p *Regs, g *Blocks, idx []uint8, lo, hi *[MaxRegs]uint64) {
	for r := 0; r < g.regs; r++ {
		sym := &p.Sym[r]
		if g.per > 0 {
			lo[r], hi[r] = tabs[idx[r/g.per]].ApplySyms(sym)
			continue
		}
		var nlo, nhi uint64
		for b := g.first[r]; b < g.first[r+1]; b++ {
			l, h := tabs[idx[b]].ApplySyms(sym)
			nlo |= l & g.mask[b]
			nhi |= h & g.mask[b]
		}
		lo[r], hi[r] = nlo, nhi
	}
}

// DecodeBlocks inverts ApplyBlocks in place: it maps each block's
// stored states in lo/hi back through tabs[idx[b]]'s inverse to data
// symbol planes. Cells outside every block come out zero.
func DecodeBlocks(tabs []SWARTable, g *Blocks, idx []uint8, lo, hi *[MaxRegs]uint64) {
	for r := 0; r < g.regs; r++ {
		if g.per > 0 {
			lo[r], hi[r] = tabs[idx[r/g.per]].ApplyInvReg(lo[r], hi[r])
			continue
		}
		var dlo, dhi uint64
		for b := g.first[r]; b < g.first[r+1]; b++ {
			l, h := tabs[idx[b]].ApplyInvReg(lo[r], hi[r])
			dlo |= l & g.mask[b]
			dhi |= h & g.mask[b]
		}
		lo[r], hi[r] = dlo, dhi
	}
}

// ApplyReg maps a register's data planes through t.
func (t *SWARTable) ApplyReg(lo, hi uint64) (nlo, nhi uint64) {
	sym := minterms64(lo, hi)
	return t.ApplySyms(&sym)
}

// ApplyInvReg decodes a register's state planes back to data-symbol
// planes through t's inverse, in its affine form — the inverse of
// ApplyReg.
func (t *SWARTable) ApplyInvReg(lo, hi uint64) (dlo, dhi uint64) {
	return lo&t.inv[0][0] ^ hi&t.inv[0][1] ^ t.inv[0][2], lo&t.inv[1][0] ^ hi&t.inv[1][1] ^ t.inv[1][2]
}

// StuckMismatch prices a candidate against a register's stuck-at
// faults: it applies t to the data symbols sym and returns the cells
// (within mask) where a stuck cell's frozen state planes (stuckLo/
// stuckHi on the positions of stuckMask) disagree with the state t
// would program. A zero return means this candidate happens to want
// exactly what every stuck cell is frozen at — the re-encode-retry
// recourse of the fault repair pipeline.
func (t *SWARTable) StuckMismatch(sym *[4]uint64, mask, stuckMask, stuckLo, stuckHi uint64) uint64 {
	lo, hi := t.ApplySyms(sym)
	return ((lo ^ stuckLo) | (hi ^ stuckHi)) & stuckMask & mask
}

// Span returns the registers [r0, r1) block b covers and its cell mask
// within each of them.
func (g *Blocks) Span(b int) (r0, r1 int, mask uint64) {
	if g.per > 0 {
		return b * g.per, (b + 1) * g.per, ^uint64(0)
	}
	for g.first[r0+1] <= b {
		r0++
	}
	return r0, r0 + 1, g.mask[b]
}
