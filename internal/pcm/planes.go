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
// integer-valued models. Disturbance stays a per-cell walk in ascending
// cell order: with a sampler each exposed cell draws from the PRNG, so
// the draw sequence is the cell order, and the expected-value sum adds
// non-integer DERs, where regrouping would change the rounding.

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

// CountDisturbMasks is CountDisturb over a plane-resident post-write
// line and its changed-cell masks. Exposure is the same immediate-
// neighbor model: an idle cell next to at least one programmed cell is
// disturbed with probability DER[state]. totalCells bounds the valid
// cells of the final word — tail bits read as S1, whose DER is
// nonzero, so they must be masked out rather than trusted to skip.
func (dm *DisturbModel) CountDisturbMasks(newP, masks []uint64, totalCells, dataCells int, rnd Sampler) DisturbStats {
	var st DisturbStats
	nw := len(masks)
	const wordMask = 1<<planeWordCells - 1
	for w := 0; w < nw; w++ {
		ch := masks[w]
		exp := (ch<<1 | ch>>1) & wordMask
		if w > 0 {
			exp |= masks[w-1] >> (planeWordCells - 1) & 1
		}
		if w+1 < nw {
			exp |= (masks[w+1] & 1) << (planeWordCells - 1)
		}
		exp &^= ch
		base := w * planeWordCells
		if rem := totalCells - base; rem < planeWordCells {
			if rem <= 0 {
				break
			}
			exp &= 1<<uint(rem) - 1
		}
		if exp == 0 {
			continue
		}
		lo, hi := newP[2*w], newP[2*w+1]
		for ; exp != 0; exp &= exp - 1 {
			b := bits.TrailingZeros64(exp)
			p := dm.DER[lo>>uint(b)&1|(hi>>uint(b)&1)<<1]
			if p == 0 {
				continue
			}
			var hit float64
			if rnd == nil {
				hit = p
			} else if rnd.Bool(p) {
				hit = 1
			}
			if base+b < dataCells {
				st.ErrorsData += hit
			} else {
				st.ErrorsAux += hit
			}
		}
	}
	return st
}
