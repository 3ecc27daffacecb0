package compress

import "wlcrc/internal/memline"

// COC implements a Coverage-Oriented Compression menu in the spirit of
// Kim et al. [20] (Frugal ECC): 28 variable-length compressors applied
// per 64-bit word, chosen to maximize the fraction of lines that shrink
// at least a little, rather than the compression ratio of the lines that
// shrink a lot. Each word is encoded as a 5-bit compressor tag plus a
// variable payload; the per-word streams are concatenated, so — exactly
// as the paper observes in §VIII.A — bit positions shift between
// consecutive writes and the scheme destroys the bit-level locality that
// differential writes exploit.
//
// The menu (28 entries):
//
//	 0..16  sign-extended value, payload width from cocSEWidths
//	17      repeated byte (8)
//	18      repeated 16-bit halfword (16)
//	19      repeated 32-bit word (32)
//	20..26  signed delta from the previous original word, width from
//	        cocDeltaWidths (word 0 has no previous word and cannot use these)
//	27      raw (64)
var (
	cocSEWidths    = []int{1, 2, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60}
	cocDeltaWidths = []int{4, 8, 16, 24, 32, 40, 48}
)

const (
	cocTagBits  = 5
	cocRepByte  = 17
	cocRep16    = 18
	cocRep32    = 19
	cocDelta0   = 20
	cocRawTag   = 27
	cocNumComps = 28
)

// NumCOCCompressors is the size of the compressor menu, matching the 28
// compressors of [20].
const NumCOCCompressors = cocNumComps

// cocSETag and cocDeltaTag map a value's signed width n (the fewest
// bits that sign-extend to it, 65 - MSBRun) to the tag of the narrowest
// sign-extended or delta compressor that holds it, or -1 when none
// does.
var cocSETag, cocDeltaTag = cocWidthTags(cocSEWidths, 0), cocWidthTags(cocDeltaWidths, cocDelta0)

func cocWidthTags(widths []int, tag0 int) (t [65]int8) {
	for n := range t {
		t[n] = -1
		for i := len(widths) - 1; i >= 0 && widths[i] >= n; i-- {
			t[n] = int8(tag0 + i)
		}
	}
	return t
}

// cocWidth is the payload width of each tag. The 5-bit tag field also
// holds the values 28-31, which name no compressor; the decoder reads
// them, like tag 27, as a raw 64-bit word.
var cocWidth = func() (w [1 << cocTagBits]int) {
	copy(w[:], cocSEWidths)
	w[cocRepByte], w[cocRep16], w[cocRep32] = 8, 16, 32
	copy(w[cocDelta0:], cocDeltaWidths)
	for t := cocRawTag; t < len(w); t++ {
		w[t] = 64
	}
	return w
}()

// cocBest returns the cheapest (tag, payload, payloadBits) for word v
// given the previous original word prev (valid only when hasPrev): the
// narrowest sign-extended width, then a repeated byte, halfword or word
// if strictly narrower, then the narrowest delta if strictly narrower,
// else raw. One MSBRun and a table lookup size each of the SE and delta
// candidates.
func cocBest(v, prev uint64, hasPrev bool) (tag int, payload uint64, bits int) {
	tag = cocRawTag
	if t := cocSETag[65-memline.MSBRun(v)]; t >= 0 {
		tag = int(t)
	}
	bits = cocWidth[tag]
	switch {
	case bits > 8 && v == v&0xFF*0x0101010101010101:
		tag, bits = cocRepByte, 8
	case bits > 16 && v == v&0xFFFF*0x0001000100010001:
		tag, bits = cocRep16, 16
	case bits > 32 && v>>32 == v&0xFFFFFFFF:
		tag, bits = cocRep32, 32
	}
	payload = v
	if hasPrev {
		d := v - prev
		if t := cocDeltaTag[65-memline.MSBRun(d)]; t >= 0 && cocWidth[t] < bits {
			tag, bits, payload = int(t), cocWidth[t], d
		}
	}
	return tag, payload & (1<<uint(bits) - 1), bits
}

// COCMaxBits is the worst-case COC stream length (every word raw plus
// its tag).
const COCMaxBits = memline.LineBits + memline.LineWords*cocTagBits

// COCMaxWords is COCMaxBits in 64-bit words.
const COCMaxWords = (COCMaxBits + 63) / 64

// COCPack encodes the line into 64-bit words: each word's 5-bit tag
// then its payload, LSB first, stream bit i at bit i%64 of out[i/64],
// so out's little-endian bytes are the stream COCDecompress reads.
// Every bit past the stream is zero. It returns the stream length in
// bits.
func COCPack(l *memline.Line, out *[COCMaxWords]uint64) int {
	*out = [COCMaxWords]uint64{}
	n := 0
	var prev uint64
	for i := 0; i < memline.LineWords; i++ {
		v := l.Word(i)
		tag, payload, bits := cocBest(v, prev, i > 0)
		if cocTagBits+bits <= 64 {
			// The tag and payload fit one field.
			n = put(out, n, uint64(tag)|payload<<cocTagBits, cocTagBits+bits)
		} else {
			n = put(out, put(out, n, uint64(tag), cocTagBits), payload, bits)
		}
		prev = v
	}
	return n
}

// put ORs the n-bit field v (n at most 64, no bits above n) into out
// at stream bit pos and returns the bit after it.
func put(out *[COCMaxWords]uint64, pos int, v uint64, n int) int {
	k, off := pos>>6, uint(pos&63)
	out[k] |= v << off
	if off+uint(n) > 64 {
		out[k+1] |= v >> (64 - off)
	}
	return pos + n
}

// COCSize returns only the compressed size in bits.
func COCSize(l *memline.Line) int {
	n := 0
	var prev uint64
	for i := 0; i < memline.LineWords; i++ {
		v := l.Word(i)
		_, _, bits := cocBest(v, prev, i > 0)
		n += cocTagBits + bits
		prev = v
	}
	return n
}

// cocRead is how the decoder turns one tag's payload p into the word
// v, with no branch on the tag: the payload is the mask bits after the
// tag and takes width bits of the stream, and
//
//	v = SignExtend(p, 64-shift)·mul + prev&prevMask
//
// sign-extends the SE and delta payloads (shift 64-width), repeats the
// byte, halfword and word payloads (mul 0x0101..., 0x0001..., 1<<32+1)
// and adds the previous word to the deltas. Tags 28-31 name no
// compressor and read, like tag 27, as a raw 64-bit word.
type cocRead struct {
	width, shift uint
	mask, mul    uint64
	prevMask     uint64
}

var cocReads = func() (t [1 << cocTagBits]cocRead) {
	for tag := range t {
		w := cocWidth[tag]
		c := cocRead{width: uint(w), mask: ^uint64(0) >> uint(64-w), mul: 1}
		switch {
		case tag < cocRepByte:
			c.shift = uint(64 - w)
		case tag == cocRepByte:
			c.mul = 0x0101010101010101
		case tag == cocRep16:
			c.mul = 0x0001000100010001
		case tag == cocRep32:
			c.mul = 1<<32 + 1
		case tag < cocRawTag:
			c.shift, c.prevMask = uint(64-w), ^uint64(0)
		}
		t[tag] = c
	}
	return t
}()

// COCDecompress reconstructs a line from a COC stream held as COCPack
// writes it: stream bit i at bit i%64 of stream[i/64]. Bits past the
// end of stream read as zero.
func COCDecompress(stream []uint64) memline.Line {
	r := wordReader{buf: stream}
	var l memline.Line
	var prev uint64
	for i := 0; i < memline.LineWords; i++ {
		c := &cocReads[r.peek()&(1<<cocTagBits-1)]
		r.pos += cocTagBits
		p := r.peek() & c.mask
		r.pos += int(c.width)
		prev = uint64(int64(p<<c.shift)>>c.shift)*c.mul + prev&c.prevMask
		l.SetWord(i, prev)
	}
	return l
}
