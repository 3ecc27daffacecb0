package fault

import (
	"wlcrc/internal/bch"
	"wlcrc/internal/pcm"
)

// ECC is the per-line error corrector of the repair pipeline: the t=2
// BCH code from internal/bch, interleaved over `ways` independent
// codewords so the per-line correctable budget is 2*ways bits instead
// of 2. Cell c's two MLC bits belong to way c%ways — interleaving by
// cell keeps both bits of a stuck cell in one codeword, so a stuck cell
// costs at most two of its way's budget and the configured budget is a
// true worst-case bit bound.
//
// An ECC is read-only after construction and may be shared by every
// store of an engine; per-call scratch lives in the caller's
// ECCScratch.
type ECC struct {
	code *bch.Code
	ways int
}

// NewECC builds a corrector with at least budgetBits of per-line
// correction (rounded up to whole 2-bit ways; 0 or negative means 4).
func NewECC(budgetBits int) *ECC {
	if budgetBits <= 0 {
		budgetBits = 4
	}
	return &ECC{code: bch.New(), ways: (budgetBits + 1) / 2}
}

// Ways returns the number of interleaved codewords.
func (e *ECC) Ways() int { return e.ways }

// BudgetBits returns the per-line correctable-bit budget, 2 per way.
func (e *ECC) BudgetBits() int { return 2 * e.ways }

// ParityLen returns the per-line parity size in bits: one bch.ParityBits
// block per way.
func (e *ECC) ParityLen() int { return e.ways * bch.ParityBits }

// ECCScratch holds one caller's reusable correction buffers.
type ECCScratch struct {
	msg []uint8 // one way's intended message bits
	cw  []uint8 // one way's codeword: parity then stored message bits
}

// grow sizes the scratch for lines of n cells split over ways.
func (sc *ECCScratch) grow(n, ways int) {
	need := 2 * ((n + ways - 1) / ways)
	if cap(sc.msg) < need {
		sc.msg = make([]uint8, need)
		sc.cw = make([]uint8, bch.ParityBits+need)
	}
}

// wayMsg writes the message bits of one way into dst and returns the
// used prefix: for each cell c with c%ways == w in ascending order, the
// cell's low then high state bit. stuck, when non-nil, overrides cell
// states with their frozen values — the physically stored view.
func (e *ECC) wayMsg(dst []uint8, cells []pcm.State, w int, stuck *LineStuck) []uint8 {
	k := 0
	for c := w; c < len(cells); c += e.ways {
		st := cells[c]
		if stuck != nil {
			if v := stuck.States[c]; v != 0 {
				st = pcm.State(v - 1)
			}
		}
		dst[k] = uint8(st) & 1
		dst[k+1] = uint8(st) >> 1
		k += 2
	}
	return dst[:k]
}

// Correct reports whether a line whose intended content is cells but
// whose stuck cells freeze at the states in ls decodes back to the
// intended content, and how many bits the code corrects doing so. This
// is the write-path classification: parity is computed from the
// intended bits (the controller encodes before storing), the stored
// bits differ from them exactly at the stuck mismatches, and each way
// tolerates two flipped bits.
func (e *ECC) Correct(cells []pcm.State, ls *LineStuck, sc *ECCScratch) (bits int, ok bool) {
	sc.grow(len(cells), e.ways)
	total := 0
	for w := 0; w < e.ways; w++ {
		msg := e.wayMsg(sc.msg, cells, w, nil)
		stored := e.wayMsg(sc.cw[bch.ParityBits:], cells, w, ls)
		diff := 0
		for i := range msg {
			if msg[i] != stored[i] {
				diff++
			}
		}
		if diff == 0 {
			continue
		}
		if diff > 2 {
			return 0, false
		}
		cw := sc.cw[:bch.ParityBits+len(stored)]
		e.code.EncodeTo(msg, cw[:bch.ParityBits])
		n, decOK := e.code.Decode(cw)
		if !decOK {
			return 0, false
		}
		for i := range msg {
			if cw[bch.ParityBits+i] != msg[i] {
				return 0, false
			}
		}
		total += n
	}
	return total, true
}

// ParityInto writes the parity of the intended cell vector into dst
// (length ParityLen), one bch parity block per way.
func (e *ECC) ParityInto(cells []pcm.State, dst []uint8, sc *ECCScratch) {
	sc.grow(len(cells), e.ways)
	for w := 0; w < e.ways; w++ {
		msg := e.wayMsg(sc.msg, cells, w, nil)
		e.code.EncodeTo(msg, dst[w*bch.ParityBits:(w+1)*bch.ParityBits])
	}
}

// Recover corrects a physically stored cell vector in place against the
// parity a write stored via ParityInto. ok=false leaves cells
// unspecified and means the stored states moved beyond the code's
// correction radius.
func (e *ECC) Recover(cells []pcm.State, parity []uint8, sc *ECCScratch) bool {
	sc.grow(len(cells), e.ways)
	for w := 0; w < e.ways; w++ {
		stored := e.wayMsg(sc.cw[bch.ParityBits:], cells, w, nil)
		cw := sc.cw[:bch.ParityBits+len(stored)]
		copy(cw[:bch.ParityBits], parity[w*bch.ParityBits:(w+1)*bch.ParityBits])
		if _, ok := e.code.Decode(cw); !ok {
			return false
		}
		k := 0
		for c := w; c < len(cells); c += e.ways {
			cells[c] = pcm.State(cw[bch.ParityBits+k] | cw[bch.ParityBits+k+1]<<1)
			k += 2
		}
	}
	return true
}
