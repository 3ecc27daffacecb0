package core

import (
	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
)

// Line-level SWAR plumbing shared by the block-granular coset encoders:
// build the per-word bit-planes once, then price and apply candidate
// mappings over arbitrary [lo, hi) cell ranges as masked word
// operations. Word-, multi-word- and sub-word-granularity blocks all
// reduce to the same masked pricing.

// linePlanes caches the WordPlanes of all eight words of a line.
type linePlanes [memline.LineWords]coset.WordPlanes

// initPlanes fills the planes from the line's words and a
// plane-resident old line.
func (lp *linePlanes) initPlanes(data *memline.Line, oldP []uint64) {
	lp.initWordsPlanes(data, oldP, memline.LineWords)
}

// initWordsPlanes fills only the first n words' planes — for encoders
// whose coset region stops short of the full line (COC4 payload modes).
func (lp *linePlanes) initWordsPlanes(data *memline.Line, oldP []uint64, n int) {
	for w := 0; w < n; w++ {
		lp[w].SetData(data.Word(w))
		lp[w].SetOldPlanes(oldP[2*w], oldP[2*w+1])
	}
}

// wordMask returns the in-word cell mask of the intersection of line
// cell range [lo, hi) with word w.
func wordMask(w, lo, hi int) uint64 {
	base := w * memline.WordCells
	a, b := 0, memline.WordCells
	if base < lo {
		a = lo - base
	}
	if base+memline.WordCells > hi {
		b = hi - base
	}
	return coset.CellMask(a, b-a)
}

// blockCost prices t over line cells [lo, hi).
func (lp *linePlanes) blockCost(t *coset.SWARTable, lo, hi int) (cost float64, updates int) {
	w := lo / memline.WordCells
	if hi-lo <= memline.WordCells-(lo-w*memline.WordCells) {
		// Block granularities divide the line, so sub-word blocks never
		// straddle a word boundary: one masked sweep prices the block.
		return t.CostCount(&lp[w], coset.CellMask(lo-w*memline.WordCells, hi-lo))
	}
	// Multi-word block: gather integer per-state counts across the
	// words, convert to energy once.
	var cnt [4]int
	for ; w*memline.WordCells < hi; w++ {
		t.Counts(&lp[w], wordMask(w, lo, hi), &cnt)
	}
	return t.CostOf(&cnt)
}

// bestBlock picks the cheapest candidate for line cells [lo, hi), with
// the lowest-index tie-break of Best/BestTable.
func (lp *linePlanes) bestBlock(tabs []coset.SWARTable, lo, hi int) (idx int, cost float64) {
	idx = 0
	cost, _ = lp.blockCost(&tabs[0], lo, hi)
	for i := 1; i < len(tabs); i++ {
		if c, _ := lp.blockCost(&tabs[i], lo, hi); c < cost {
			idx, cost = i, c
		}
	}
	return idx, cost
}

// newStates accumulates the chosen mappings' output planes per word;
// writePlanes stores them into a plane-resident line.
type newStates struct {
	lo, hi [memline.LineWords]uint64
}

// applyBlock maps line cells [lo, hi) through t into the accumulator.
func (ns *newStates) applyBlock(t *coset.SWARTable, lp *linePlanes, lo, hi int) {
	for w := lo / memline.WordCells; w*memline.WordCells < hi; w++ {
		l, h := t.Apply(&lp[w])
		mask := wordMask(w, lo, hi)
		ns.lo[w] |= l & mask
		ns.hi[w] |= h & mask
	}
}

// writePlanes stores the first n accumulated cells into a plane-resident
// line. Full words overwrite; a final partial word merges, keeping dst's
// cells at and beyond n (COC4's 32-bit payload ends mid-word and the
// cells above it keep their old states).
func (ns *newStates) writePlanes(dst []uint64, n int) {
	full := n / memline.WordCells
	for w := 0; w < full; w++ {
		dst[2*w], dst[2*w+1] = ns.lo[w], ns.hi[w]
	}
	if rem := n - full*memline.WordCells; rem > 0 {
		mask := coset.CellMask(0, rem)
		dst[2*full] = dst[2*full]&^mask | ns.lo[full]&mask
		dst[2*full+1] = dst[2*full+1]&^mask | ns.hi[full]&mask
	}
}

// lineStatePlanes caches the packed state planes of a stored line's
// first 256 cells for block-granular decode.
type lineStatePlanes [memline.LineWords][2]uint64

// fromPlanes loads the first n words' state planes from a plane-resident
// line.
func (sp *lineStatePlanes) fromPlanes(planes []uint64, n int) {
	for w := 0; w < n; w++ {
		sp[w][0], sp[w][1] = planes[2*w], planes[2*w+1]
	}
}

// dataWords accumulates decoded symbol planes per word; word returns the
// rebuilt data word.
type dataWords struct {
	lo, hi [memline.LineWords]uint64
}

// decodeBlock maps stored cells [lo, hi) through t's inverse into the
// accumulator.
func (dw *dataWords) decodeBlock(t *coset.SWARTable, sp *lineStatePlanes, lo, hi int) {
	for w := lo / memline.WordCells; w*memline.WordCells < hi; w++ {
		l, h := t.ApplyInvPlanes(sp[w][0], sp[w][1])
		mask := wordMask(w, lo, hi)
		dw.lo[w] |= l & mask
		dw.hi[w] |= h & mask
	}
}

// word returns data word w.
func (dw *dataWords) word(w int) uint64 {
	return memline.InterleavePlanes(dw.lo[w], dw.hi[w])
}
