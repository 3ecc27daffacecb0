// Package memline defines the 512-bit memory line abstraction used by all
// encoders, and the bit / symbol / word accessors the paper's schemes are
// built from.
//
// Conventions:
//   - A line is 64 bytes. Bit i of the line is bit (i&7) of byte (i>>3),
//     i.e. LSB-first within each byte.
//   - Cell c (c in [0,256)) stores the bit pair (2c, 2c+1). Its symbol
//     value is bit(2c+1)<<1 | bit(2c), matching the paper's textual
//     notation: symbol "01" has high bit 0 and low bit 1, value 1.
//   - Word w (w in [0,8)) is the little-endian uint64 of bytes 8w..8w+7,
//     so bit j of the word is line bit 64w+j. This matches Figure 6 where
//     b63..b0 index a word's bits.
package memline

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Constants describing the fixed geometry of a PCM memory line.
const (
	LineBits     = 512 // bits per memory line
	LineBytes    = 64  // bytes per memory line
	LineCells    = 256 // MLC cells (2-bit symbols) per line
	LineWords    = 8   // 64-bit words per line
	WordBits     = 64  // bits per word
	WordCells    = 32  // cells per word
	SymbolValues = 4   // distinct 2-bit symbol values
)

// Line is one 512-bit memory line.
type Line [LineBytes]byte

// Bit returns bit i of the line (0 or 1).
func (l *Line) Bit(i int) int {
	return int(l[i>>3]>>(uint(i)&7)) & 1
}

// SetBit sets bit i of the line to v (0 or 1).
func (l *Line) SetBit(i, v int) {
	if v&1 == 1 {
		l[i>>3] |= 1 << (uint(i) & 7)
	} else {
		l[i>>3] &^= 1 << (uint(i) & 7)
	}
}

// Symbol returns the 2-bit symbol stored in cell c.
func (l *Line) Symbol(c int) uint8 {
	b := l[c>>2] >> ((uint(c) & 3) * 2)
	// b holds (lo, hi) in its two low bits: bit0 = line bit 2c (lo),
	// bit1 = line bit 2c+1 (hi). Symbol value = hi<<1 | lo, which is
	// exactly those two bits.
	return uint8(b & 3)
}

// SetSymbol stores the 2-bit symbol v in cell c.
func (l *Line) SetSymbol(c int, v uint8) {
	shift := (uint(c) & 3) * 2
	l[c>>2] = l[c>>2]&^(3<<shift) | (v&3)<<shift
}

// SymbolsInto extracts all 256 data symbols into dst without
// allocating. Each byte of the line carries four consecutive symbols, so
// the extraction runs four-symbols-per-load instead of the 256
// shift-mask iterations of per-cell Symbol calls.
func (l *Line) SymbolsInto(dst *[LineCells]uint8) {
	for b, v := range l {
		dst[4*b] = v & 3
		dst[4*b+1] = v >> 2 & 3
		dst[4*b+2] = v >> 4 & 3
		dst[4*b+3] = v >> 6
	}
}

// WordSymbols extracts the 32 cell symbols of one 64-bit word into dst:
// symbol c is bits (2c, 2c+1) of the word. Like SymbolsInto it works a
// byte at a time, four symbols per shift, instead of 32 variable-shift
// iterations.
func WordSymbols(word uint64, dst *[WordCells]uint8) {
	for b := 0; b < 8; b++ {
		v := uint8(word >> (8 * b))
		dst[4*b] = v & 3
		dst[4*b+1] = v >> 2 & 3
		dst[4*b+2] = v >> 4 & 3
		dst[4*b+3] = v >> 6
	}
}

// Word returns 64-bit word w of the line.
func (l *Line) Word(w int) uint64 {
	return binary.LittleEndian.Uint64(l[w*8 : w*8+8])
}

// SetWord stores v into 64-bit word w of the line.
func (l *Line) SetWord(w int, v uint64) {
	binary.LittleEndian.PutUint64(l[w*8:w*8+8], v)
}

// Words returns all eight words of the line.
func (l *Line) Words() [LineWords]uint64 {
	var ws [LineWords]uint64
	for i := range ws {
		ws[i] = l.Word(i)
	}
	return ws
}

// FromWords builds a line from eight 64-bit words.
func FromWords(ws [LineWords]uint64) Line {
	var l Line
	for i, w := range ws {
		l.SetWord(i, w)
	}
	return l
}

// Equal reports whether two lines hold identical content.
func (l *Line) Equal(o *Line) bool { return *l == *o }

// String renders the line as 8 hex words, most-significant word last,
// matching the word order used throughout the package.
func (l *Line) String() string {
	s := ""
	for w := 0; w < LineWords; w++ {
		if w > 0 {
			s += " "
		}
		s += fmt.Sprintf("%016x", l.Word(w))
	}
	return s
}

// CountDiffSymbols returns the number of cells whose symbols differ
// between l and o. Under the default mapping this is the number of cells
// a differential write would program. It runs word-parallel: a cell
// differs when either bit of its pair differs, so XOR + pair-OR folds
// each word's 32 cells into one popcount.
func (l *Line) CountDiffSymbols(o *Line) int {
	n := 0
	for w := 0; w < LineWords; w++ {
		x := l.Word(w) ^ o.Word(w)
		n += bits.OnesCount64((x | x>>1) & loPlaneMask)
	}
	return n
}

// histLUT maps one line byte (four 2-bit symbols) to its packed
// per-symbol counts, 16 bits per symbol value. Lane v of the sum over
// all 64 bytes is the line's count of symbol v; each lane peaks at 256,
// well inside 16 bits.
var histLUT = func() (t [256]uint64) {
	for b := 0; b < 256; b++ {
		for s := 0; s < 4; s++ {
			t[b] += 1 << (16 * (b >> (2 * s) & 3))
		}
	}
	return
}()

// SymbolHistogram counts occurrences of each of the four symbol values,
// one table lookup per byte (four cells) instead of a shift-mask per
// cell.
func (l *Line) SymbolHistogram() [SymbolValues]int {
	var packed uint64
	for _, b := range l {
		packed += histLUT[b]
	}
	var h [SymbolValues]int
	for v := range h {
		h[v] = int(packed >> (16 * v) & 0xFFFF)
	}
	return h
}

// BitField extracts bits [lo, lo+width) of word w as a uint64.
// width must be in [0, 64].
func BitField(word uint64, lo, width int) uint64 {
	if width == 64 {
		return word >> uint(lo)
	}
	return (word >> uint(lo)) & (1<<uint(width) - 1)
}

// SetBitField returns word with bits [lo, lo+width) replaced by the low
// bits of v.
func SetBitField(word uint64, lo, width int, v uint64) uint64 {
	if width == 64 {
		return v << uint(lo) // lo must be 0 in this case
	}
	mask := (uint64(1)<<uint(width) - 1) << uint(lo)
	return word&^mask | (v<<uint(lo))&mask
}

// MSBRun returns the length of the run of identical bits starting at the
// most significant bit of word. For example MSBRun(0) = 64 and
// MSBRun(0x4000000000000000) = 1.
//
// Branch-free: XORing against the sign-replicated top bit turns the
// leading run into leading zeros (an all-equal word becomes 0, and
// bits.LeadingZeros64(0) is exactly 64).
func MSBRun(word uint64) int {
	return bits.LeadingZeros64(word ^ uint64(int64(word)>>63))
}

// Bit-plane view -------------------------------------------------------
//
// A 64-bit word interleaves its 32 cell symbols: cell c is the bit pair
// (2c, 2c+1). The SWAR coset engine works on the de-interleaved planes
// instead — the "lo" plane gathers the even bits (each symbol's low
// bit), the "hi" plane the odd bits — so a symbol-wise operation over 32
// cells becomes a handful of boolean ops on two words. Bit c of a plane
// is cell c; planes occupy the low 32 bits.

// loPlaneMask selects the even (symbol low) bits of an interleaved word.
const loPlaneMask = 0x5555555555555555

// compressEven gathers the even bits of x (already masked to even
// positions) into the low 32 bits — the Morton-decode half step.
func compressEven(x uint64) uint64 {
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0F0F0F0F0F0F0F0F
	x = (x | x>>4) & 0x00FF00FF00FF00FF
	x = (x | x>>8) & 0x0000FFFF0000FFFF
	return (x | x>>16) & 0x00000000FFFFFFFF
}

// expandEven spreads the low 32 bits of x onto the even bit positions —
// the inverse of compressEven.
func expandEven(x uint64) uint64 {
	x &= 0x00000000FFFFFFFF
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & 0x00FF00FF00FF00FF
	x = (x | x<<4) & 0x0F0F0F0F0F0F0F0F
	x = (x | x<<2) & 0x3333333333333333
	return (x | x<<1) & loPlaneMask
}

// LoHiPlanes de-interleaves a word into its two symbol bit-planes: bit c
// of lo is data bit 2c (the low bit of cell c's symbol), bit c of hi is
// data bit 2c+1. Both planes occupy the low 32 bits.
func LoHiPlanes(word uint64) (lo, hi uint64) {
	return compressEven(word & loPlaneMask), compressEven(word >> 1 & loPlaneMask)
}

// InterleavePlanes rebuilds a word from its two bit-planes — the inverse
// of LoHiPlanes. Only the low 32 bits of each plane are used.
func InterleavePlanes(lo, hi uint64) uint64 {
	return expandEven(lo) | expandEven(hi)<<1
}

// SignExtend returns v (a value occupying the low `bits` bits) sign
// extended to 64 bits.
func SignExtend(v uint64, bits int) uint64 {
	if bits <= 0 || bits >= 64 {
		return v
	}
	shift := uint(64 - bits)
	return uint64(int64(v<<shift) >> shift)
}

// FitsSigned reports whether the 64-bit two's-complement value v is
// representable in `bits` bits (sign-extended).
func FitsSigned(v uint64, bits int) bool {
	return SignExtend(v, bits) == v
}
