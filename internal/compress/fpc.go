package compress

import "wlcrc/internal/memline"

// FPC implements Frequent Pattern Compression (Alameldeen & Wood [2]) on
// a 512-bit memory line viewed as sixteen 32-bit words. Each word is
// encoded as a 3-bit prefix plus a variable payload; runs of zero words
// share one code.
//
// Prefixes (payload bits in parentheses):
//
//	000 zero-word run, payload = run length - 1 in 3 bits (up to 8 words)
//	001 4-bit sign-extended (4)
//	010 8-bit sign-extended (8)
//	011 16-bit sign-extended (16)
//	100 halfword padded with a zero halfword: low 16 bits are zero (16)
//	101 two halfwords, each sign-extended from 8 bits (16)
//	110 word with repeated bytes (8)
//	111 uncompressed (32)
const (
	fpcZeroRun = iota
	fpcSE4
	fpcSE8
	fpcSE16
	fpcPadHalf
	fpcTwoHalves
	fpcRepByte
	fpcRaw
)

const fpcWords = 16 // 32-bit words per 512-bit line

// fits32Signed reports whether the 32-bit two's-complement value v is
// representable in `bits` bits.
func fits32Signed(v uint32, bits int) bool {
	return memline.FitsSigned(memline.SignExtend(uint64(v), 32), bits)
}

// fpcClassify picks the cheapest pattern for one non-zero 32-bit word and
// returns (prefix, payload, payloadBits).
func fpcClassify(v uint32) (prefix int, payload uint64, bits int) {
	switch {
	case fits32Signed(v, 4):
		return fpcSE4, uint64(v) & 0xf, 4
	case fits32Signed(v, 8):
		return fpcSE8, uint64(v) & 0xff, 8
	case fits32Signed(v, 16):
		return fpcSE16, uint64(v) & 0xffff, 16
	case v&0xffff == 0:
		return fpcPadHalf, uint64(v >> 16), 16
	case memline.FitsSigned(memline.SignExtend(uint64(v&0xffff), 16), 8) &&
		memline.FitsSigned(memline.SignExtend(uint64(v>>16), 16), 8):
		return fpcTwoHalves, uint64(v>>16&0xff)<<8 | uint64(v&0xff), 16
	case byte(v) == byte(v>>8) && byte(v) == byte(v>>16) && byte(v) == byte(v>>24):
		return fpcRepByte, uint64(v & 0xff), 8
	default:
		return fpcRaw, uint64(v), 32
	}
}

// FPCMaxBits is the worst-case FPC stream length (sixteen raw 32-bit
// words, each behind a 3-bit prefix), sizing fixed scratch buffers for
// FPCCompressTo.
const FPCMaxBits = fpcWords * (3 + 32)

// FPCCompressTo encodes the line into w (back it with at least
// FPCMaxBits of storage) and returns the stream length in bits.
func FPCCompressTo(l *memline.Line, w *BitWriter) int {
	words := fpc32Words(l)
	for i := 0; i < fpcWords; {
		if words[i] == 0 {
			run := 1
			for i+run < fpcWords && words[i+run] == 0 && run < 8 {
				run++
			}
			w.WriteBits(fpcZeroRun, 3)
			w.WriteBits(uint64(run-1), 3)
			i += run
			continue
		}
		prefix, payload, bits := fpcClassify(words[i])
		w.WriteBits(uint64(prefix), 3)
		w.WriteBits(payload, bits)
		i++
	}
	return w.Len()
}

// fpcSize computes the FPC stream length without writing the stream,
// reading the line a 64-bit word at a time; once the running length
// passes limit it returns early with some value above limit.
func fpcSize(l *memline.Line, limit int) int {
	bits, run := 0, 0 // run: zero words in the open zero-run code
	for i := 0; i < memline.LineWords; i++ {
		x := l.Word(i)
		for _, v := range [2]uint32{uint32(x), uint32(x >> 32)} {
			if v == 0 {
				if run%8 == 0 {
					bits += 3 + 3
				}
				run++
				continue
			}
			run = 0
			_, _, n := fpcClassify(v)
			bits += 3 + n
		}
		if bits > limit {
			return bits
		}
	}
	return bits
}

// fpcDecode reads one FPC stream from r.
func fpcDecode(r *wordReader) memline.Line {
	var words [fpcWords]uint32
	for i := 0; i < fpcWords; {
		prefix := int(r.ReadBits(3))
		switch prefix {
		case fpcZeroRun:
			run := int(r.ReadBits(3)) + 1
			i += run
		case fpcSE4:
			words[i] = uint32(memline.SignExtend(r.ReadBits(4), 4))
			i++
		case fpcSE8:
			words[i] = uint32(memline.SignExtend(r.ReadBits(8), 8))
			i++
		case fpcSE16:
			words[i] = uint32(memline.SignExtend(r.ReadBits(16), 16))
			i++
		case fpcPadHalf:
			words[i] = uint32(r.ReadBits(16)) << 16
			i++
		case fpcTwoHalves:
			v := r.ReadBits(16)
			lo := uint32(memline.SignExtend(v&0xff, 8)) & 0xffff
			hi := uint32(memline.SignExtend(v>>8, 8)) & 0xffff
			words[i] = hi<<16 | lo
			i++
		case fpcRepByte:
			b := uint32(r.ReadBits(8))
			words[i] = b | b<<8 | b<<16 | b<<24
			i++
		default: // fpcRaw
			words[i] = uint32(r.ReadBits(32))
			i++
		}
	}
	return fromFPC32Words(words)
}

func fpc32Words(l *memline.Line) [fpcWords]uint32 {
	var out [fpcWords]uint32
	for i := 0; i < fpcWords; i++ {
		w := l.Word(i / 2)
		if i%2 == 1 {
			w >>= 32
		}
		out[i] = uint32(w)
	}
	return out
}

func fromFPC32Words(words [fpcWords]uint32) memline.Line {
	var l memline.Line
	for i := 0; i < memline.LineWords; i++ {
		l.SetWord(i, uint64(words[2*i])|uint64(words[2*i+1])<<32)
	}
	return l
}
