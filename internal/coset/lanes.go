package coset

import (
	"math/bits"

	"wlcrc/internal/memline"
)

// The lane kernel: every block of a register priced in a handful of
// word ops.
//
// When each in-register block of a geometry lies inside its own aligned
// lane of L cells (L = 4, 8, 16, 32 or 64), a candidate's price over
// all of a register's blocks is one SWAR popcount per target state: the
// programmed-cell mask q[s] = Sym[Inv[s]] &^ OldIs[s], restricted to the
// cells of some block, is popcounted into L-cell fields, the fields are
// widened to cost lanes and weighted by the integer energy intE[s], and
// the four products add lane-wise. A block's cost lane then holds
// Σ count[s]·intE[s], the integer form of SWARTable.price, so a
// lane-wise strict-less minimum over the candidates picks each block's
// cheapest, the lowest index on ties, without a branch or a per-block
// popcount. Cost lanes are 16 bits wide, four to a word, for L up to 32
// (L = 4 needs four cost words per register, L = 8 two, L = 16 and 32
// one), and one 64-bit lane for L = 64. A 16-bit lane holds its cost
// and a spare top bit for the compare as long as L·max intE < 2^15;
// Table II (L·583 at L = 32 is 18656) and every Fig. 14 level fit.
// Partial lanes are fine: cells outside every block are masked off
// before the count.

// LaneCosts is one candidate's cost lanes over one register: block b's
// price sits in the lane the geometry's layout assigns it (word[b],
// shift[b]).
type LaneCosts [4]uint64

// lanes is the lane kernel's layout of a geometry, built by newLanes.
// width is 0 when no lane width fits the blocks.
type lanes struct {
	width  int             // L, cells per lane
	words  int             // cost words per register: 16/L for L < 16, else 1
	fold32 uint64          // fold: 16-cell counts that add into 32-cell ones
	keep   uint64          // fold: the count fields of its result
	live   [MaxRegs]uint64 // cells of register r inside some block
	word   []uint8         // the cost word holding block b's lane
	shift  []uint8         // the bit offset of block b's lane in it
	// pick[k] holds, in each 16-bit lane of cost word k, 1 << i for the
	// lane that is its register word's i-th (WordPicks).
	pick [4]uint64
}

// newLanes lays out in-register blocks for the lane kernel: the widest
// lane width whose aligned lanes each hold at most one block, every
// block inside one lane.
func newLanes(ranges [][2]int) lanes {
	for _, width := range []int{64, 32, 16, 8, 4} {
		if l, ok := layLanes(ranges, width); ok {
			return l
		}
	}
	return lanes{}
}

// layLanes lays ranges out in width-cell lanes, or reports that some
// block straddles a lane or shares one.
func layLanes(ranges [][2]int, width int) (lanes, bool) {
	l := lanes{width: width, words: max(1, 16/width), keep: ^uint64(0)}
	if width == 32 {
		l.fold32, l.keep = 0x0000FFFF0000FFFF, 0x0000FFFF0000FFFF
	}
	if width < 64 {
		perWord := memline.WordCells / width
		for j := 0; j < RegCells/width; j++ {
			l.pick[j%l.words] |= 1 << (j % perWord) << (j / l.words * max(16, width))
		}
	}
	prev := -1
	for _, rng := range ranges {
		lane := rng[0] / width
		if (rng[1]-1)/width != lane || lane == prev {
			return lanes{}, false
		}
		prev = lane
		r, j := rng[0]/RegCells, lane%(RegCells/width)
		l.live[r] |= CellMask(rng[0]-r*RegCells, rng[1]-rng[0])
		l.word = append(l.word, uint8(j%l.words))
		l.shift = append(l.shift, uint8(j/l.words*max(16, width)))
	}
	return l, true
}

// LanesFit reports whether the lane kernel prices tabs over g exactly:
// g's blocks lie in lanes, and every table's energies are non-negative
// integers whose largest, times the lane width, fits a cost lane below
// its top bit. Otherwise callers price in floats.
func (g *Blocks) LanesFit(tabs []SWARTable) bool {
	if g.width == 0 {
		return false
	}
	for i := range tabs {
		if e := tabs[i].laneE; e < 0 || g.width < 64 && g.width*e >= 1<<15 {
			return false
		}
	}
	return true
}

// nibbles, bytes and halves popcount x into 4-, 8- and 16-cell fields,
// SWAR: each field ends up holding the number of its set bits. A
// 64-cell lane is one popcount (regCount).
func nibbles(x uint64) uint64 {
	x -= x >> 1 & 0x5555555555555555
	return x&0x3333333333333333 + x>>2&0x3333333333333333
}

func bytes(x uint64) uint64 { x = nibbles(x); return (x + x>>4) & 0x0F0F0F0F0F0F0F0F }

func halves(x uint64) uint64 { x = bytes(x); return (x + x>>8) & 0x00FF00FF00FF00FF }

func regCount(x uint64) uint64 { return uint64(bits.OnesCount64(x)) }

// LaneCosts sets c to t's price over every block of register r of p:
// block b's lane holds Σ count[s]·intE[s] over its programmed cells. g
// must fit t (LanesFit).
func (g *Blocks) LaneCosts(c *LaneCosts, t *SWARTable, p *Regs, r int) {
	if g.words == 1 {
		*c = LaneCosts{g.cost1(t, p, r)}
		return
	}
	q := t.programmed(&p.Sym[r], &p.OldIs[r])
	live := g.live[r]
	q0, q1, q2, q3 := q[0]&live, q[1]&live, q[2]&live, q[3]&live
	e0, e1, e2, e3 := uint64(t.intE[0]), uint64(t.intE[1]), uint64(t.intE[2]), uint64(t.intE[3])
	if g.width == 4 {
		const m = 0x000F000F000F000F
		n0, n1, n2, n3 := nibbles(q0), nibbles(q1), nibbles(q2), nibbles(q3)
		for k := range c {
			sh := uint(4 * k)
			c[k] = (n0>>sh&m)*e0 + (n1>>sh&m)*e1 + (n2>>sh&m)*e2 + (n3>>sh&m)*e3
		}
		return
	}
	const m = 0x00FF00FF00FF00FF
	n0, n1, n2, n3 := bytes(q0), bytes(q1), bytes(q2), bytes(q3)
	*c = LaneCosts{
		(n0&m)*e0 + (n1&m)*e1 + (n2&m)*e2 + (n3&m)*e3,
		(n0>>8&m)*e0 + (n1>>8&m)*e1 + (n2>>8&m)*e2 + (n3>>8&m)*e3,
	}
}

// cost1 is t's cost word over register r for lanes of 16 cells or
// more, whose cost lanes fit one word: a 64-cell lane is one popcount
// per state, and 16- and 32-cell lanes fold 16-cell counts (fold).
func (g *Blocks) cost1(t *SWARTable, p *Regs, r int) uint64 {
	q := t.programmed(&p.Sym[r], &p.OldIs[r])
	live := g.live[r]
	q0, q1, q2, q3 := q[0]&live, q[1]&live, q[2]&live, q[3]&live
	if g.width == 64 {
		return regCount(q0)*uint64(t.intE[0]) + regCount(q1)*uint64(t.intE[1]) +
			regCount(q2)*uint64(t.intE[2]) + regCount(q3)*uint64(t.intE[3])
	}
	return g.fold(q0)*uint64(t.intE[0]) + g.fold(q1)*uint64(t.intE[1]) +
		g.fold(q2)*uint64(t.intE[2]) + g.fold(q3)*uint64(t.intE[3])
}

// fold counts x into 16- or 32-cell fields: 16-cell counts, each added
// to its odd neighbour's when fold32 is set.
func (g *Blocks) fold(x uint64) uint64 {
	x = halves(x)
	return (x + x>>16&g.fold32) & g.keep
}

// laneOne is 1 in every 16-bit cost lane, and laneTop each lane's top
// bit, the spare bit the compare borrows through.
const (
	laneOne = 0x0001000100010001
	laneTop = 0x8000800080008000
)

// laneLess returns, per 16-bit cost lane, all ones where a's cost is
// below b's and zero elsewhere: the top bit of (b | top) - (a + 1)
// survives exactly when b > a, and no lane borrows from its neighbour.
func laneLess(a, b uint64) uint64 {
	return ((b | laneTop) - (a + laneOne)) & laneTop >> 15 * 0xFFFF
}

// LaneLess is laneLess on every cost word of lanes narrower than 64
// cells.
func (g *Blocks) LaneLess(a, b *LaneCosts) (lt LaneCosts) {
	for k := range lt {
		lt[k] = laneLess(a[k], b[k])
	}
	return lt
}

// AddLane adds v to block b's cost lane in c. The sum must stay below
// 2^15.
func (g *Blocks) AddLane(c *LaneCosts, b, v int) {
	c[g.word[b]] += uint64(v) << g.shift[b]
}

// The cost lanes of a register's two words never mix: for every lane
// width up to 32, word 0's lanes sit in 16-bit positions 0 and 1 of
// each cost word and word 1's in positions 2 and 3.

// WordSums returns the sums of c's lanes over each of the register's
// two words, for lanes narrower than 64 cells.
func (g *Blocks) WordSums(c *LaneCosts) (w0, w1 int) {
	const m = 0x0000FFFF0000FFFF
	var t uint64
	for k := range c {
		t += c[k]&m + c[k]>>16&m
	}
	return int(t & 0xFFFFFFFF), int(t >> 32)
}

// WordPicks returns, per register word, the lanes set in lt (a
// LaneLess result) as a bitmap: bit i for the word's i-th lane.
func (g *Blocks) WordPicks(lt *LaneCosts) (w0, w1 uint8) {
	var x uint64
	for k := range lt {
		x |= lt[k] & g.pick[k]
	}
	x |= x >> 16
	return uint8(x), uint8(x >> 32)
}

// bestLanes is BestBlocks' lane kernel: per register, every candidate's
// cost lanes, and a lane-wise strict-less minimum that keeps the lowest
// index on ties.
func bestLanes(tabs []SWARTable, p *Regs, g *Blocks, idx []uint8) {
	if g.words == 1 {
		bestLanes1(tabs, p, g, idx)
		return
	}
	for r := 0; r < g.regs; r++ {
		var best, c, win LaneCosts
		g.LaneCosts(&best, &tabs[0], p, r)
		for i := 1; i < len(tabs); i++ {
			g.LaneCosts(&c, &tabs[i], p, r)
			for k := range c {
				lt := laneLess(c[k], best[k])
				best[k] ^= (best[k] ^ c[k]) & lt
				win[k] = win[k]&^lt | uint64(i)*laneOne&lt
			}
		}
		for b := g.first[r]; b < g.first[r+1]; b++ {
			idx[b] = uint8(win[g.word[b]] >> g.shift[b])
		}
	}
}

// bestLanes1 is bestLanes for one cost word per register. A 64-cell
// lane is a plain integer, compared as one.
func bestLanes1(tabs []SWARTable, p *Regs, g *Blocks, idx []uint8) {
	for r := 0; r < g.regs; r++ {
		best, win := g.cost1(&tabs[0], p, r), uint64(0)
		for i := 1; i < len(tabs); i++ {
			c := g.cost1(&tabs[i], p, r)
			if g.width == 64 {
				if c < best {
					best, win = c, uint64(i)
				}
				continue
			}
			lt := laneLess(c, best)
			best ^= (best ^ c) & lt
			win = win&^lt | uint64(i)*laneOne&lt
		}
		for b := g.first[r]; b < g.first[r+1]; b++ {
			idx[b] = uint8(win >> g.shift[b])
		}
	}
}
