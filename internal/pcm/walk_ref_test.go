package pcm

import "math/bits"

// countDisturbWords is CountDisturbMasks' exposure walk taken one
// 32-cell plane word at a time instead of one 64-cell chunk: the
// reference arm of BenchmarkDisturbPaired, and a second oracle for the
// chunked walk in maskEquivCase. It visits the same cells in the same
// ascending order, so its sums and draws must match bit for bit.
func (dm *DisturbModel) countDisturbWords(newP, masks []uint64, totalCells, dataCells int, rnd Sampler) DisturbStats {
	var zero [NumStates]uint64
	for s, p := range dm.DER {
		if p == 0 {
			zero[s] = ^uint64(0)
		}
	}
	var st DisturbStats
	for w, nw := 0, min(len(masks), (totalCells+planeWordCells-1)/planeWordCells); w < nw; w++ {
		lo, hi := newP[2*w], newP[2*w+1]
		exp := exposedWord(masks, w, totalCells, lo, hi, &zero)
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
			st.ErrorsData = dm.sumDERWord(st.ErrorsData, data, lo, hi)
			st.ErrorsAux = dm.sumDERWord(st.ErrorsAux, aux, lo, hi)
		} else {
			st.ErrorsData = dm.sampleDERWord(st.ErrorsData, data, lo, hi, rnd)
			st.ErrorsAux = dm.sampleDERWord(st.ErrorsAux, aux, lo, hi, rnd)
		}
	}
	return st
}

// exposedWord returns the exposure mask of plane word w: the idle cells
// next to a changed cell (across word boundaries too), clipped to
// totalCells, with the cells whose state has a zero DER (zero[s]
// all-ones) cleared.
func exposedWord(masks []uint64, w, totalCells int, lo, hi uint64, zero *[NumStates]uint64) uint64 {
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
	return exp &^ (^(lo|hi)&zero[S1] | lo&^hi&zero[S2] | hi&^lo&zero[S3] | lo&hi&zero[S4])
}

// sumDERWord adds the DER of every cell of exp to acc, in ascending
// cell order.
func (dm *DisturbModel) sumDERWord(acc float64, exp, lo, hi uint64) float64 {
	for ; exp != 0; exp &= exp - 1 {
		acc += dm.DER[PlaneState(lo, hi, bits.TrailingZeros64(exp))]
	}
	return acc
}

// sampleDERWord draws once per cell of exp, in ascending cell order,
// and adds 1 to acc per hit.
func (dm *DisturbModel) sampleDERWord(acc float64, exp, lo, hi uint64, rnd Sampler) float64 {
	for ; exp != 0; exp &= exp - 1 {
		if rnd.Bool(dm.DER[PlaneState(lo, hi, bits.TrailingZeros64(exp))]) {
			acc++
		}
	}
	return acc
}
