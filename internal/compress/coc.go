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

// cocWidth is the payload width of each tag.
var cocWidth = func() (w [cocNumComps]int) {
	copy(w[:], cocSEWidths)
	w[cocRepByte], w[cocRep16], w[cocRep32] = 8, 16, 32
	copy(w[cocDelta0:], cocDeltaWidths)
	w[cocRawTag] = 64
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

// COCDecompress reconstructs a line from a COC stream.
func COCDecompress(buf []byte) memline.Line {
	r := NewBitReader(buf)
	var l memline.Line
	var prev uint64
	for i := 0; i < memline.LineWords; i++ {
		tag := int(r.ReadBits(cocTagBits))
		var v uint64
		switch {
		case tag < len(cocSEWidths):
			w := cocSEWidths[tag]
			v = memline.SignExtend(r.ReadBits(w), w)
		case tag == cocRepByte:
			b := r.ReadBits(8)
			v = b * 0x0101010101010101
		case tag == cocRep16:
			h := r.ReadBits(16)
			v = h * 0x0001000100010001
		case tag == cocRep32:
			x := r.ReadBits(32)
			v = x | x<<32
		case tag >= cocDelta0 && tag < cocDelta0+len(cocDeltaWidths):
			w := cocDeltaWidths[tag-cocDelta0]
			v = prev + memline.SignExtend(r.ReadBits(w), w)
		default: // cocRawTag
			v = r.ReadBits(64)
		}
		l.SetWord(i, v)
		prev = v
	}
	return l
}
