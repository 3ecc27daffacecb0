package pcm

import "math/bits"

// Plane-resident write accounting for the arena replay path. Lines are
// stored as (lo, hi) bit-plane pairs — 32 cells in the low bits of each
// uint64, cell c of word w at bit c&31 of words 2w (low state bit) and
// 2w+1 (high state bit) — with every bit at or beyond the line's cell
// count zero. Under that tail-zero invariant the XOR of two lines'
// planes is a valid changed-cell mask with no extra clamping, which is
// what makes the mask-based forms below drop-in replacements for the
// scalar DiffWriteMask/CountDisturb pair.
//
// Energy is grouped by target state, exact for integer models:
// DiffWriteMasks counts programmed cells per target state with
// popcounts and prices the counts once through the same formula as the
// scalar DiffWrite (EnergyModel.price), so the two agree bit for bit
// under any model, and both equal the per-cell sum under the repo's
// integer-valued models. Disturbance is masked word-parallel and then
// summed per cell: the cells in a zero-DER state (S2 under Table II)
// are cleared from the exposure mask up front, and the rest are walked
// region by region in ascending cell order. The walk stays ordered for
// the same reasons as CountDisturb's: with a sampler each exposed cell
// draws from the PRNG, so the draw sequence is the cell order, and the
// expected-value sum adds non-integer DERs, where regrouping would
// change the rounding.

// planeWordCells is the number of cells per plane word pair.
const planeWordCells = 32

// addStateCounts adds the cells of ch, by target state (lo, hi), to cnt.
func addStateCounts(cnt *[NumStates]int, lo, hi, ch uint64) {
	cnt[S1] += bits.OnesCount64(ch &^ (lo | hi))
	cnt[S2] += bits.OnesCount64(ch & lo &^ hi)
	cnt[S3] += bits.OnesCount64(ch & hi &^ lo)
	cnt[S4] += bits.OnesCount64(ch & lo & hi)
}

// DiffWriteMasks computes the differential-write cost of programming
// the plane-resident line oldP into newP and fills masks[w] with the
// changed-cell mask of cells [32w, 32w+32). masks must have
// len(oldP)/2 words; cells with index < dataCells are accounted as
// data, the rest as aux. Each word adds its changed cells' per-state
// popcounts to its region's counts — only the word holding the
// data/aux boundary splits — and the counts are priced once at the
// end, grouped by target state (exact for integer models, see above).
func (m *EnergyModel) DiffWriteMasks(oldP, newP, masks []uint64, dataCells int) WriteStats {
	var c writeCounts
	for w := range masks {
		lo, hi := newP[2*w], newP[2*w+1]
		ch := (oldP[2*w] ^ lo) | (oldP[2*w+1] ^ hi)
		masks[w] = ch
		switch base := w * planeWordCells; {
		case base+planeWordCells <= dataCells:
			addStateCounts(&c.data, lo, hi, ch)
		case base >= dataCells:
			addStateCounts(&c.aux, lo, hi, ch)
		default:
			dm := uint64(1)<<uint(dataCells-base) - 1
			addStateCounts(&c.data, lo, hi, ch&dm)
			addStateCounts(&c.aux, lo, hi, ch&^dm)
		}
	}
	return m.price(&c)
}

// zeroDERMask returns the minterm mask of the cells of one plane word
// pair whose state has a zero DER, from selectors zero[s] that are
// all-ones when DER[s] == 0.
func zeroDERMask(zero *[NumStates]uint64, lo, hi uint64) uint64 {
	return ^(lo|hi)&zero[S1] | lo&^hi&zero[S2] | hi&^lo&zero[S3] | lo&hi&zero[S4]
}

// zeroDERSelectors returns the selectors zeroDERMask takes: zero[s] is
// all-ones when DER[s] == 0.
func (dm *DisturbModel) zeroDERSelectors() (zero [NumStates]uint64) {
	for s, p := range dm.DER {
		if p == 0 {
			zero[s] = ^uint64(0)
		}
	}
	return zero
}

// exposedWords returns how many words of masks hold cells of a
// totalCells-cell line: the words an exposure walk visits.
func exposedWords(masks []uint64, totalCells int) int {
	return min(len(masks), (totalCells+planeWordCells-1)/planeWordCells)
}

// exposed returns the exposure mask of plane word w, which must hold at
// least one valid cell: the idle cells next to a changed cell of masks
// (across word boundaries too), clipped to the line's totalCells — tail
// bits read as S1, whose DER is nonzero, so they must be masked out
// rather than trusted to skip — with the cells whose state (lo, hi) has
// a zero DER cleared.
func exposed(masks []uint64, w, totalCells int, lo, hi uint64, zero *[NumStates]uint64) uint64 {
	const wordMask = 1<<planeWordCells - 1
	ch := masks[w]
	exp := (ch<<1 | ch>>1) & wordMask
	if w > 0 {
		exp |= masks[w-1] >> (planeWordCells - 1) & 1
	}
	if w+1 < len(masks) {
		exp |= (masks[w+1] & 1) << (planeWordCells - 1)
	}
	exp &^= ch
	if rem := totalCells - w*planeWordCells; rem < planeWordCells {
		exp &= 1<<uint(rem) - 1
	}
	return exp &^ zeroDERMask(zero, lo, hi)
}

// CountDisturbMasks is CountDisturb over a plane-resident post-write
// line and its changed-cell masks. Exposure is the same immediate-
// neighbor model: an idle cell next to at least one programmed cell is
// disturbed with probability DER[state]. totalCells bounds the valid
// cells of the final word.
//
// Cells whose state has a zero DER are cleared from each word's
// exposure mask through one minterm mask per model, so no cell is
// tested for p == 0. The mask is then split once into its data and aux
// cells, and each region is walked in ascending cell order; data cells
// precede aux cells, so the whole line is still visited in cell order.
// Each accumulator adds the same DERs in the same order as
// CountDisturb, and a sampler draws for exactly the same cells in the
// same order.
func (dm *DisturbModel) CountDisturbMasks(newP, masks []uint64, totalCells, dataCells int, rnd Sampler) DisturbStats {
	zero := dm.zeroDERSelectors()
	var st DisturbStats
	for w, nw := 0, exposedWords(masks, totalCells); w < nw; w++ {
		lo, hi := newP[2*w], newP[2*w+1]
		exp := exposed(masks, w, totalCells, lo, hi, &zero)
		if exp == 0 {
			continue
		}
		var data uint64
		switch d := dataCells - w*planeWordCells; {
		case d >= planeWordCells:
			data = exp
		case d > 0:
			data = exp & (1<<uint(d) - 1)
		}
		aux := exp &^ data
		if rnd == nil {
			st.ErrorsData = dm.sumDER(st.ErrorsData, data, lo, hi)
			st.ErrorsAux = dm.sumDER(st.ErrorsAux, aux, lo, hi)
		} else {
			st.ErrorsData = dm.sampleDER(st.ErrorsData, data, lo, hi, rnd)
			st.ErrorsAux = dm.sampleDER(st.ErrorsAux, aux, lo, hi, rnd)
		}
	}
	return st
}

// DisturbedMasksInto is DisturbedCellsInto over a plane-resident
// post-write line: it samples which idle cells the write with
// changed-cell masks disturbs, under CountDisturbMasks' exposure walk,
// drawing once per exposed cell in ascending cell order — the cells and
// the draw sequence of DisturbedCellsInto. dst (len(masks) words, and
// not aliasing masks) receives the hit mask, one bit per disturbed
// cell; the return value is the hit count. rnd must be non-nil.
func (dm *DisturbModel) DisturbedMasksInto(dst, newP, masks []uint64, totalCells int, rnd Sampler) int {
	if rnd == nil {
		panic("pcm: DisturbedMasksInto requires a sampler")
	}
	zero := dm.zeroDERSelectors()
	clear(dst)
	n := 0
	for w, nw := 0, exposedWords(masks, totalCells); w < nw; w++ {
		lo, hi := newP[2*w], newP[2*w+1]
		var hit uint64
		for exp := exposed(masks, w, totalCells, lo, hi, &zero); exp != 0; exp &= exp - 1 {
			b := bits.TrailingZeros64(exp)
			if rnd.Bool(dm.DER[PlaneState(lo, hi, b)]) {
				hit |= 1 << uint(b)
			}
		}
		dst[w] = hit
		n += bits.OnesCount64(hit)
	}
	return n
}

// PlaneState reads cell c's state out of one word's (lo, hi) plane
// pair.
func PlaneState(lo, hi uint64, c int) State {
	return State(lo>>uint(c)&1 | hi>>uint(c)<<1&2)
}

// sumDER adds the DER of every cell of exp to acc, in ascending cell
// order: the expected-value accounting of one region of one word.
func (dm *DisturbModel) sumDER(acc float64, exp, lo, hi uint64) float64 {
	for ; exp != 0; exp &= exp - 1 {
		acc += dm.DER[PlaneState(lo, hi, bits.TrailingZeros64(exp))]
	}
	return acc
}

// sampleDER draws once per cell of exp, in ascending cell order, with
// the cell's DER, and adds 1 to acc per hit — the sampled accounting of
// one region of one word.
func (dm *DisturbModel) sampleDER(acc float64, exp, lo, hi uint64, rnd Sampler) float64 {
	for ; exp != 0; exp &= exp - 1 {
		if rnd.Bool(dm.DER[PlaneState(lo, hi, bits.TrailingZeros64(exp))]) {
			acc++
		}
	}
	return acc
}
