package core

import (
	"fmt"
	"math/bits"

	"wlcrc/internal/compress"
	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
)

// blockCode is a block coset code given as data, and its one plane
// codec. A row names the block geometry and the candidate mappings;
// each block stores its data through one candidate and the candidate's
// aux code in aux bits. The line coset family (3/4/6cosets, 8-512
// bits), 3-r-cosets, FNW and WLC+Ncosets are rows of it; their
// constructors (cosets.go, fnw.go, wlccosets.go) only build the
// descriptor.
//
// Aux bits use the identity AuxPack layout: aux bit k is plane k%2 of
// cell k/2, so a two-bit code on an even bit is the state of one cell
// and a one-bit code is one plane of a cell.
type blockCode struct {
	name  string
	cells int // TotalCells
	geom  *coset.Blocks
	tabs  []coset.SWARTable
	// auxBit[b] is the first aux bit of block b's code, ascending;
	// auxWidth is the code's width in bits (at most 4).
	auxBit   []int
	auxWidth int
	// groups are the candidate subsets a line chooses among: one group
	// of every candidate for an unrestricted code, or a restricted
	// coset code's groups, whose index the line stores in groupWidth
	// bits from groupBit through groupField.
	groups     []auxGroup
	groupBit   int
	groupWidth int
	groupField auxGroup
	// wlc, when set, gates the code on WLC compressibility: the line is
	// coset-encoded under flagCompressed in cell 256, or else written
	// raw under flagUncompressed.
	wlc *compress.WLC
}

// auxGroup is one candidate subset and its aux code tables.
type auxGroup struct {
	members []uint8   // candidate indices, the tie-break order
	code    [16]uint8 // code[i]: the aux code of member i
	// The field from aux bit k covers cells c = k/2 and c+1 of one plane
	// word. get[k%2][p] is the member whose code has the plane-major bits
	// p (lo c, lo c+1, hi c, hi c+1), 0 for a code no member owns.
	get [2][16]uint8
}

// newAuxGroup builds the group whose member members[j] has the
// width-bit aux code codes[j].
func newAuxGroup(width int, members, codes []uint8) auxGroup {
	g := auxGroup{members: members}
	for j, m := range members {
		g.code[m] = codes[j]
	}
	for odd := range g.get {
		for p := range g.get[odd] {
			n := swapMid(uint8(p)) >> odd & (1<<width - 1)
			for j, m := range members {
				if codes[j] == n {
					g.get[odd][p] = m
				}
			}
		}
	}
	return g
}

// swapMid swaps bits 1 and 2, turning the aux-order bits (lo c, hi c,
// lo c+1, hi c+1) of two cells into their plane-major order and back.
func swapMid(x uint8) uint8 { return x&9 | x>>1&2 | x<<1&4 }

// identityGroup is the group of candidates 0..n-1, each stored as its
// own index in a width-bit field.
func identityGroup(width, n int) auxGroup {
	ids := make([]uint8, n)
	for i := range ids {
		ids[i] = uint8(i)
	}
	return newAuxGroup(width, ids, ids)
}

// newBlockCode completes a descriptor row: it prices cands under em
// and sizes the line to cover every aux bit and the gate's flag cell.
func newBlockCode(c blockCode, em *pcm.EnergyModel, cands []coset.Mapping) *blockCode {
	c.tabs = coset.SWARTables(em, cands)
	if len(c.groups) > 1 {
		c.groupWidth = bits.Len(uint(len(c.groups) - 1))
		c.groupField = identityGroup(c.groupWidth, len(c.groups))
	}
	checkAuxField(c.groupBit, c.groupWidth)
	end := c.groupBit + c.groupWidth
	for _, k := range c.auxBit {
		checkAuxField(k, c.auxWidth)
		end = max(end, k+c.auxWidth)
	}
	c.cells = memline.LineCells
	if c.wlc != nil {
		c.cells++
	}
	c.cells = max(c.cells, (end+1)/2)
	return &c
}

// checkAuxField panics unless the width-bit aux field from bit k lies
// in two cells of one plane word, the shape auxGroup's tables cover.
func checkAuxField(k, width int) {
	if width > 0 && (k&1+width > 4 || (k+width-1)>>6 != k>>6) {
		panic(fmt.Sprintf("core: aux field of %d bits at bit %d spans a plane word or three cells", width, k))
	}
}

// uniformAux lists the first aux bits of n consecutive width-bit
// fields from bit k.
func uniformAux(k, width, n int) []int {
	out := make([]int, n)
	for b := range out {
		out[b] = k + b*width
	}
	return out
}

// Name implements Scheme.
func (c *blockCode) Name() string { return c.name }

// TotalCells implements Scheme.
func (c *blockCode) TotalCells() int { return c.cells }

// DataCells implements Scheme.
func (c *blockCode) DataCells() int { return memline.LineCells }

// Compressible reports whether the line takes the coset-encoded path:
// always, unless the row is WLC-gated and some word does not compress.
func (c *blockCode) Compressible(data *memline.Line) bool {
	return c.wlc == nil || c.wlc.LineCompressible(data)
}

// CompressedWritePlanes implements PlaneCompressionGate.
func (c *blockCode) CompressedWritePlanes(planes []uint64) bool {
	return c.wlc == nil || tailFlag(planes) == flagCompressed
}

// EncodePlanesInto implements PlaneScheme.
func (c *blockCode) EncodePlanesInto(dst, old []uint64, data *memline.Line) {
	if !c.Compressible(data) {
		rawEncodePlanes(data, dst)
		setTailFlag(dst, flagUncompressed)
		return
	}
	var p coset.Regs
	p.Load(data, old)
	var idx [maxBlocks]uint8
	n := c.geom.Len()
	g := c.choose(&p, idx[:n])
	c.store(dst, &p, g, idx[:n])
}

// maxBlocks bounds a row's block count: 8-bit blocks over the line.
const maxBlocks = memline.LineCells / 4

// choose stores each block's candidate in idx and returns the line's
// group. Unrestricted, a block takes its cheapest candidate. Restricted,
// each group prices every block at its cheapest member, the earliest
// member on ties, and the line takes the cheapest group, the lowest
// index on ties.
func (c *blockCode) choose(p *coset.Regs, idx []uint8) int {
	if len(c.groups) == 1 {
		coset.BestBlocks(c.tabs, p, c.geom, idx)
		return 0
	}
	var cost [maxGroupCosts]float64
	k := len(c.tabs)
	coset.EvalBlocks(c.tabs, p, c.geom, cost[:k*len(idx)])
	best, bestTotal := 0, 0.0
	for g := range c.groups {
		var total float64
		for b := range idx {
			idx[b] = c.groups[g].cheapest(cost[b*k : (b+1)*k])
			total += cost[b*k+int(idx[b])]
		}
		if g == 0 || total < bestTotal {
			best, bestTotal = g, total
		}
	}
	for b := range idx {
		idx[b] = c.groups[best].cheapest(cost[b*k : (b+1)*k])
	}
	return best
}

// maxGroupCosts bounds the candidate costs a restricted row prices per
// line: three candidates per block.
const maxGroupCosts = 3 * maxBlocks

// cheapest returns the member with the lowest cost, the earliest on
// ties.
func (g *auxGroup) cheapest(cost []float64) uint8 {
	m := g.members[0]
	for _, i := range g.members[1:] {
		if cost[i] < cost[m] {
			m = i
		}
	}
	return m
}

// store writes the data cells of the chosen per-block candidates, then
// the aux region: the group field and every block's code, over a zeroed
// tail, which also leaves a gated row's flag cell at flagCompressed.
func (c *blockCode) store(dst []uint64, p *coset.Regs, g int, idx []uint8) {
	var lo, hi [coset.MaxRegs]uint64
	coset.ApplyBlocks(c.tabs, p, c.geom, idx, &lo, &hi)
	coset.StoreRegs(dst, &lo, &hi, memline.LineCells)
	zeroTail(dst)
	if len(c.groups) > 1 {
		writeAux(dst, []int{c.groupBit}, []uint8{uint8(g)}, &c.groupField)
	}
	writeAux(dst, c.auxBit, idx, &c.groups[g])
}

// DecodePlanesInto implements PlaneScheme. An aux code no member of the
// line's group owns decodes as candidate 0.
func (c *blockCode) DecodePlanesInto(planes []uint64, dst *memline.Line) {
	if !c.CompressedWritePlanes(planes) {
		rawDecodePlanes(planes, dst)
		return
	}
	grp := &c.groups[0]
	if len(c.groups) > 1 {
		var g [1]uint8
		readAux(planes, []int{c.groupBit}, &c.groupField, g[:])
		grp = &c.groups[g[0]]
	}
	var idx [maxBlocks]uint8
	n := c.geom.Len()
	readAux(planes, c.auxBit, grp, idx[:n])
	var lo, hi [coset.MaxRegs]uint64
	coset.LoadRegs(planes, &lo, &hi)
	coset.DecodeBlocks(c.tabs, c.geom, idx[:n], &lo, &hi)
	for r := range lo {
		w0, w1 := coset.RegWords(lo[r], hi[r])
		if c.wlc != nil {
			w0, w1 = c.wlc.DecompressWord(w0), c.wlc.DecompressWord(w1)
		}
		dst.SetWord(2*r, w0)
		dst.SetWord(2*r+1, w1)
	}
}

// writeAux ORs the code of member v[i] of g into the aux field from
// bit ks[i], ascending, of a plane-resident line whose bits there are
// zero. A plane word's run of fields is its codes at their aux bits in
// one interleaved word, split into the word's two planes once.
func writeAux(dst []uint64, ks []int, v []uint8, g *auxGroup) {
	for i := 0; i < len(ks); {
		w := ks[i] >> 6
		var x uint64
		for ; i < len(ks) && ks[i]>>6 == w; i++ {
			x |= uint64(g.code[v[i]&15]) << uint(ks[i]&63)
		}
		lo, hi := memline.LoHiPlanes(x)
		dst[2*w] |= lo
		dst[2*w+1] |= hi
	}
}

// readAux stores in out[i] the member of g that the field from aux bit
// ks[i] names.
func readAux(planes []uint64, ks []int, g *auxGroup, out []uint8) {
	for i, k := range ks {
		c := k >> 1
		w, sh := c>>5<<1, uint(c&31)
		out[i] = g.get[k&1][planes[w]>>sh&3|planes[w+1]>>sh&3<<2]
	}
}

// zeroTail clears every plane word of dst from cell 256 up — the aux
// region writers then OR their states in, and the tail-zero invariant
// holds for free.
func zeroTail(dst []uint64) {
	for i := tailWord; i < len(dst); i++ {
		dst[i] = 0
	}
}
