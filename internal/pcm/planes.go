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
// integer-valued models.
//
// Disturbance is masked 64 cells at a time and then summed per cell.
// The exposure walk joins two plane words into one chunk and computes
// once per chunk what every exposed cell shares: the neighbour carry
// across chunk boundaries, the tail clip, the zero-DER minterm mask
// (cells in a zero-DER state, S2 under Table II, never reach the
// per-cell loop) and the data/aux split. Its contract is the order of
// the per-cell work: the expected-value sums add one DER per exposed
// cell, and a sampler draws once per exposed cell, both in ascending
// cell order, exactly as CountDisturb does. The order is fixed because
// the draw sequence is the cell order, and because Table II's DERs
// (0.123, 0.276, 0.152) are not dyadic, so grouping the additions by
// state or reordering them would change the rounding of the sums.

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

// zeroDER returns the minterm mask of the cells of one chunk (lo, hi)
// whose state has a zero DER.
func (dm *DisturbModel) zeroDER(lo, hi uint64) (z uint64) {
	if dm.DER[S1] == 0 {
		z |= ^(lo | hi)
	}
	if dm.DER[S2] == 0 {
		z |= lo &^ hi
	}
	if dm.DER[S3] == 0 {
		z |= hi &^ lo
	}
	if dm.DER[S4] == 0 {
		z |= lo & hi
	}
	return z
}

// chunkCells is the step of the exposure walk: two plane words joined
// into one 64-cell chunk, word 2k in bits 0–31 and word 2k+1 in bits
// 32–63.
const chunkCells = 2 * planeWordCells

// exposedChunk returns chunk k of a line: its joined planes and its
// exposure mask — the idle cells next to a changed cell of masks
// (across chunk boundaries too), clipped to the line's totalCells (tail
// bits read as S1, whose DER is nonzero, so they must be masked out
// rather than trusted to skip), with the cells in a zero-DER state
// cleared. Word 2k must exist; a missing word 2k+1 reads as zero.
func (dm *DisturbModel) exposedChunk(newP, masks []uint64, k, totalCells int) (lo, hi, exp uint64) {
	w := 2 * k
	lo, hi = newP[2*w], newP[2*w+1]
	ch := masks[w]
	if w+1 < len(masks) {
		lo |= newP[2*w+2] << planeWordCells
		hi |= newP[2*w+3] << planeWordCells
		ch |= masks[w+1] << planeWordCells
	}
	exp = ch<<1 | ch>>1
	if w > 0 {
		exp |= masks[w-1] >> (planeWordCells - 1) & 1
	}
	if w+2 < len(masks) {
		exp |= masks[w+2] << (chunkCells - 1)
	}
	exp &^= ch
	if rem := totalCells - k*chunkCells; rem < chunkCells {
		exp &= 1<<uint(rem) - 1
	}
	return lo, hi, exp &^ dm.zeroDER(lo, hi)
}

// chunkCount returns how many chunks of masks hold cells of a
// totalCells-cell line: the chunks an exposure walk visits.
func chunkCount(masks []uint64, totalCells int) int {
	return min((len(masks)+1)/2, (totalCells+chunkCells-1)/chunkCells)
}

// CountDisturbMasks is CountDisturb over a plane-resident post-write
// line and its changed-cell masks. Exposure is the same immediate-
// neighbor model: an idle cell next to at least one programmed cell is
// disturbed with probability DER[state]. totalCells bounds the valid
// cells of the final word.
//
// The walk takes the line 64 cells at a time (exposedChunk): each
// chunk's exposure mask, with its zero-DER cells already cleared, is
// split once into its data and aux cells, and each region is walked in
// ascending cell order; data cells precede aux cells, so the whole line
// is still visited in cell order. Each accumulator adds the same DERs
// in the same order as CountDisturb, and a sampler draws for exactly
// the same cells in the same order.
func (dm *DisturbModel) CountDisturbMasks(newP, masks []uint64, totalCells, dataCells int, rnd Sampler) DisturbStats {
	var st DisturbStats
	for k, nc := 0, chunkCount(masks, totalCells); k < nc; k++ {
		lo, hi, exp := dm.exposedChunk(newP, masks, k, totalCells)
		if exp == 0 {
			continue
		}
		var data uint64
		switch d := dataCells - k*chunkCells; {
		case d >= chunkCells:
			data = exp
		case d > 0:
			data = exp & (1<<uint(d) - 1)
		}
		aux := exp &^ data
		if rnd == nil {
			for ; data != 0; data &= data - 1 {
				st.ErrorsData += dm.DER[PlaneState(lo, hi, bits.TrailingZeros64(data))]
			}
			for ; aux != 0; aux &= aux - 1 {
				st.ErrorsAux += dm.DER[PlaneState(lo, hi, bits.TrailingZeros64(aux))]
			}
			continue
		}
		for ; data != 0; data &= data - 1 {
			if rnd.Bool(dm.DER[PlaneState(lo, hi, bits.TrailingZeros64(data))]) {
				st.ErrorsData++
			}
		}
		for ; aux != 0; aux &= aux - 1 {
			if rnd.Bool(dm.DER[PlaneState(lo, hi, bits.TrailingZeros64(aux))]) {
				st.ErrorsAux++
			}
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
	clear(dst)
	n := 0
	for k, nc := 0, chunkCount(masks, totalCells); k < nc; k++ {
		lo, hi, exp := dm.exposedChunk(newP, masks, k, totalCells)
		var hit uint64
		for ; exp != 0; exp &= exp - 1 {
			b := bits.TrailingZeros64(exp)
			if rnd.Bool(dm.DER[PlaneState(lo, hi, b)]) {
				hit |= 1 << uint(b)
			}
		}
		dst[2*k] = hit & (1<<planeWordCells - 1)
		if 2*k+1 < len(dst) {
			dst[2*k+1] = hit >> planeWordCells
		}
		n += bits.OnesCount64(hit)
	}
	return n
}

// PlaneState reads cell c's state out of one word's (lo, hi) plane
// pair.
func PlaneState(lo, hi uint64, c int) State {
	return State(lo>>uint(c)&1 | hi>>uint(c)<<1&2)
}
