// Package bch implements a binary BCH code correcting up to two bit
// errors with 20 parity bits over GF(2^10), the "20-bit BCH code to
// correct any two write disturbance errors" that DIN [16] attaches to its
// encoded memory lines.
//
// The code is the double-error-correcting narrow-sense BCH code of
// natural length n = 1023, shortened to whatever message length the
// caller uses (DIN messages are at most 492 bits). The generator
// polynomial is g(x) = m1(x) * m3(x), the product of the minimal
// polynomials of alpha and alpha^3, of degree 20.
//
// Parity (msg(x)*x^20 mod g(x)) is computed a 64-bit word at a time
// from eight 256-entry tables, one per byte of the word, built once per
// process (the slicing-by-8 form of a table-driven CRC); syndromes
// evaluate that remainder at alpha and alpha^3. Packed forms take
// little-endian uint64 words; the []uint8 forms pack onto the same
// path. The tests keep the bit-serial LFSR as the reference oracle.
package bch

import (
	"sync"

	"wlcrc/internal/gf2"
)

// ParityBits is the number of parity bits of the t=2, m=10 code.
const ParityBits = 20

// MaxMessageBits is the maximum message length of the shortened code.
const MaxMessageBits = 1023 - ParityBits

// parityMask keeps the low ParityBits bits of a remainder.
const parityMask = 1<<ParityBits - 1

// msgWords is the number of uint64 words of the longest message.
const msgWords = (MaxMessageBits + 63) / 64

// Code is a double-error-correcting BCH codec. It is safe for concurrent
// use after construction.
type Code struct {
	field *gf2.Field
	gen   []uint8 // generator polynomial coefficients, ascending, degree 20
	// rem[k][v] is v(x)*x^(20+8k) mod g(x) for byte v, bit j the
	// coefficient of x^j: the remainder of byte k of a 64-bit word.
	rem [8][256]uint32
}

// shared is the one Code of the process: the code is fixed.
var shared = sync.OnceValue(newCode)

// New returns the t=2 BCH code over GF(2^10).
func New() *Code { return shared() }

func newCode() *Code {
	f := gf2.NewField(10, 0)
	m1 := f.MinimalPoly(1)
	m3 := f.MinimalPoly(3)
	gen := polyMulGF2(m1, m3)
	if len(gen)-1 != ParityBits {
		panic("bch: generator polynomial degree != 20")
	}
	c := &Code{field: f, gen: gen}
	var g uint32 // x^20 mod g(x): the low 20 generator coefficients
	for j, b := range gen[:ParityBits] {
		g |= uint32(b) << j
	}
	for v := range c.rem[0] { // v(x)*x^12, times x eight times mod g(x)
		r := uint32(v) << (ParityBits - 8)
		for i := 0; i < 8; i++ {
			r = r<<1&parityMask ^ g*(r>>(ParityBits-1))
		}
		c.rem[0][v] = r
	}
	for k := 1; k < len(c.rem); k++ { // times x^8 mod g(x) once more
		for v, r := range c.rem[k-1] {
			c.rem[k][v] = r<<8&parityMask ^ c.rem[0][r>>(ParityBits-8)]
		}
	}
	return c
}

func polyMulGF2(a, b []uint8) []uint8 {
	out := make([]uint8, len(a)+len(b)-1)
	for i, ai := range a {
		if ai == 0 {
			continue
		}
		for j, bj := range b {
			out[i+j] ^= bj
		}
	}
	return out
}

// Generator returns a copy of the generator polynomial coefficients in
// ascending degree order.
func (c *Code) Generator() []uint8 {
	out := make([]uint8, len(c.gen))
	copy(out, c.gen)
	return out
}

// Encode computes the ParityBits parity bits for the message bits msg
// (each element 0 or 1, msg[0] is the lowest-degree coefficient). The
// systematic codeword is conceptually msg(x)*x^20 + parity(x): parity
// bits occupy positions 0..19, message bits positions 20..20+len(msg)-1.
func (c *Code) Encode(msg []uint8) []uint8 {
	parity := make([]uint8, ParityBits)
	c.EncodeTo(msg, parity)
	return parity
}

// EncodeTo computes the parity bits into caller storage — the
// allocation-free form of Encode. len(parity) must be ParityBits.
func (c *Code) EncodeTo(msg, parity []uint8) {
	if len(parity) != ParityBits {
		panic("bch: EncodeTo parity length != ParityBits")
	}
	var words [msgWords]uint64
	p := c.ParityWords(packBits(msg, &words), len(msg))
	for j := range parity {
		parity[j] = uint8(p >> j & 1)
	}
}

// ParityWords returns the parity of the nbits-bit message packed
// LSB-first into msg (bit i is bit i%64 of msg[i/64]); bit j of the
// result is parity bit j. Bits at or above nbits are ignored, so the
// last word may hold other data, such as the parity itself. It runs
// Horner's rule in x^64: each word, top word first, folds the
// remainder so far into its top 20 bits and reduces through rem.
func (c *Code) ParityWords(msg []uint64, nbits int) uint32 {
	if nbits > MaxMessageBits {
		panic("bch: message too long for shortened code")
	}
	var r uint32
	for w := (nbits+63)/64 - 1; w >= 0; w-- {
		v := msg[w]
		if n := nbits - 64*w; n < 64 {
			v &= 1<<uint(n) - 1
		}
		v ^= uint64(r) << (64 - ParityBits)
		r = c.rem[0][byte(v)] ^ c.rem[1][byte(v>>8)] ^ c.rem[2][byte(v>>16)] ^ c.rem[3][byte(v>>24)] ^
			c.rem[4][byte(v>>32)] ^ c.rem[5][byte(v>>40)] ^ c.rem[6][byte(v>>48)] ^ c.rem[7][byte(v>>56)]
	}
	return r
}

// Syndromes evaluates the received codeword at alpha and alpha^3.
// codeword[i] is the coefficient of x^i (parity first, then message).
func (c *Code) Syndromes(codeword []uint8) (s1, s3 uint16) {
	np := min(len(codeword), ParityBits)
	var parity, words [msgWords]uint64
	packBits(codeword[:np], &parity)
	msg := codeword[np:]
	return c.SyndromesWords(packBits(msg, &words), len(msg), uint32(parity[0]))
}

// SyndromesWords is Syndromes for the codeword with parity bits parity
// (bit j = coefficient of x^j) and the message msg, packed as for
// ParityWords. Both are zero exactly when parity == ParityWords(msg).
func (c *Code) SyndromesWords(msg []uint64, nbits int, parity uint32) (s1, s3 uint16) {
	r := c.ParityWords(msg, nbits) ^ parity // the word's remainder mod g(x)
	for j := 0; r != 0; j, r = j+1, r>>1 {
		if r&1 == 1 {
			s1 ^= c.field.Exp(j)
			s3 ^= c.field.Exp(3 * j)
		}
	}
	return s1, s3
}

// packBits packs the 0/1 elements of bits LSB-first into words and
// returns the used prefix. It panics when bits exceeds the code.
func packBits(bits []uint8, words *[msgWords]uint64) []uint64 {
	if len(bits) > MaxMessageBits {
		panic("bch: message too long for shortened code")
	}
	for i, b := range bits {
		words[i/64] |= uint64(b&1) << (i % 64)
	}
	return words[:(len(bits)+63)/64]
}

// Decode corrects up to two bit errors in place. codeword is the full
// shortened codeword: parity bits at positions 0..19 followed by message
// bits. It returns the number of corrected bits and ok=false if the
// syndrome pattern is inconsistent with <= 2 errors within the codeword.
func (c *Code) Decode(codeword []uint8) (corrected int, ok bool) {
	f := c.field
	s1, s3 := c.Syndromes(codeword)
	if s1 == 0 && s3 == 0 {
		return 0, true
	}
	if s1 != 0 && s3 == f.Pow(s1, 3) {
		// Single error at position log(s1).
		pos := f.Log(s1)
		if pos >= len(codeword) {
			return 0, false // error located in the shortened (absent) region
		}
		codeword[pos] ^= 1
		return 1, true
	}
	if s1 == 0 {
		// s1 == 0 but s3 != 0 cannot happen with <= 2 errors.
		return 0, false
	}
	// Two errors: error locator sigma(x) = x^2 + s1*x + (s3/s1 + s1^2).
	sigma2 := f.Add(f.Div(s3, s1), f.Pow(s1, 2))
	if sigma2 == 0 {
		return 0, false
	}
	// Chien search for roots x = alpha^i; error positions are the logs of
	// the roots' inverses... For sigma(x) = (x+X1)(x+X2) with error
	// locators X1 = alpha^p1, X2 = alpha^p2, the roots are X1 and X2
	// themselves here because sigma was built from elementary symmetric
	// functions of the locators.
	var positions []int
	for i := 0; i < len(codeword); i++ {
		x := f.Exp(i)
		v := f.Add(f.Add(f.Mul(x, x), f.Mul(s1, x)), sigma2)
		if v == 0 {
			positions = append(positions, i)
			if len(positions) == 2 {
				break
			}
		}
	}
	if len(positions) != 2 {
		return 0, false
	}
	for _, p := range positions {
		codeword[p] ^= 1
	}
	// Verify.
	if v1, v3 := c.Syndromes(codeword); v1 != 0 || v3 != 0 {
		for _, p := range positions {
			codeword[p] ^= 1 // undo
		}
		return 0, false
	}
	return 2, true
}
