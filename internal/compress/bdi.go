package compress

import "wlcrc/internal/memline"

// BDI implements Base-Delta-Immediate compression (Pekhimenko et al.
// [26]) for a 64-byte line. The line is viewed as segments of 2, 4 or 8
// bytes; each segment is stored either as a small signed delta from an
// implicit zero base or as a delta from one explicit base (the first
// segment that does not fit the zero base). A per-segment mask selects
// the base, which is the "immediate" part of the scheme.
//
// Encodings tried, cheapest wins (tag is 4 bits):
//
//	0  zeros            line of all zero bytes                (4 bits)
//	1  rep8             eight identical 64-bit values         (4+64)
//	2  base8-delta1     8-byte segments, 1-byte deltas        (4+64+8*8 +8)
//	3  base8-delta2                                          (4+64+8*16+8)
//	4  base8-delta4                                          (4+64+8*32+8)
//	5  base4-delta1     4-byte segments, 1-byte deltas        (4+32+16*8+16)
//	6  base4-delta2                                          (4+32+16*16+16)
//	7  base2-delta1     2-byte segments, 1-byte deltas        (4+16+32*8+32)
//	15 raw              uncompressed                          (4+512)
const (
	bdiZeros = iota
	bdiRep8
	bdiB8D1
	bdiB8D2
	bdiB8D4
	bdiB4D1
	bdiB4D2
	bdiB2D1
	bdiRaw = 15
)

type bdiConfig struct {
	tag      int
	segBytes int
	dltBytes int
}

// bdiConfigs lists the base+delta encodings in ascending stream size
// (ties in tag order), so the first one that fits a line is its
// cheapest.
var bdiConfigs = []bdiConfig{
	{bdiB8D1, 8, 1}, // 140 bits
	{bdiB4D1, 4, 1}, // 180
	{bdiB8D2, 8, 2}, // 204
	{bdiB4D2, 4, 2}, // 308
	{bdiB2D1, 2, 1}, // 308
	{bdiB8D4, 8, 4}, // 332
}

// bdiMaxSegs is the largest segment count of any configuration
// (2-byte segments over a 64-byte line), sizing the fixed scratch
// arrays the allocation-free compressor works in.
const bdiMaxSegs = memline.LineBytes / 2

// bdiTry attempts one base+delta configuration on the line, cutting its
// segments from the 64-bit words as it goes and writing the per-segment
// zero-base mask and deltas into caller scratch. It returns the
// explicit base, or ok=false as soon as some segment fits neither base.
func bdiTry(l *memline.Line, cfg bdiConfig, mask *[bdiMaxSegs]bool, deltas *[bdiMaxSegs]uint64) (base uint64, ok bool) {
	segBits := cfg.segBytes * 8
	dltBits := cfg.dltBytes * 8
	segMask := ^uint64(0) >> uint(64-segBits)
	haveBase := false
	i := 0
	for wi := 0; wi < memline.LineWords; wi++ {
		x := l.Word(wi)
		for k := 0; k < 8/cfg.segBytes; k, i = k+1, i+1 {
			s := x & segMask
			x >>= uint(segBits)
			mask[i] = false
			sv := memline.SignExtend(s, segBits)
			if memline.FitsSigned(sv, dltBits) {
				mask[i] = true // zero base
				deltas[i] = s & (1<<uint(dltBits) - 1)
				continue
			}
			if !haveBase {
				base = s
				haveBase = true
			}
			d := (s - base) & segMask
			dv := memline.SignExtend(d, segBits)
			if !memline.FitsSigned(dv, dltBits) {
				return 0, false
			}
			deltas[i] = d & (1<<uint(dltBits) - 1)
		}
	}
	return base, true
}

func bdiConfigSize(segBytes, dltBytes int) int {
	n := memline.LineBytes / segBytes
	return 4 + segBytes*8 + n*dltBytes*8 + n
}

// BDIMaxBits is the worst-case BDI stream length (raw tag plus the
// uncompressed line), sizing fixed scratch buffers for BDICompressTo.
const BDIMaxBits = 4 + memline.LineBits

// bdiChoose returns the cheapest applicable encoding of the line and its
// stream length without writing anything. Only the tag of a zeros, rep8
// or raw encoding is set.
func bdiChoose(l *memline.Line) (bdiConfig, int) {
	var or uint64
	rep := true
	w0 := l.Word(0)
	for i := 0; i < memline.LineWords; i++ {
		x := l.Word(i)
		or |= x
		rep = rep && x == w0
	}
	switch {
	case or == 0:
		return bdiConfig{tag: bdiZeros}, 4
	case rep:
		return bdiConfig{tag: bdiRep8}, 4 + 64
	}
	var deltas [bdiMaxSegs]uint64
	var mask [bdiMaxSegs]bool
	for _, cfg := range bdiConfigs {
		if _, ok := bdiTry(l, cfg, &mask, &deltas); ok {
			return cfg, bdiConfigSize(cfg.segBytes, cfg.dltBytes)
		}
	}
	return bdiConfig{tag: bdiRaw}, BDIMaxBits
}

// bdiWrite writes the line's stream under the encoding bdiChoose picked.
func bdiWrite(l *memline.Line, cfg bdiConfig, w *BitWriter) {
	w.WriteBits(uint64(cfg.tag), 4)
	switch cfg.tag {
	case bdiZeros:
	case bdiRep8:
		w.WriteBits(l.Word(0), 64)
	case bdiRaw:
		for i := 0; i < memline.LineWords; i++ {
			w.WriteBits(l.Word(i), 64)
		}
	default:
		var deltas [bdiMaxSegs]uint64
		var mask [bdiMaxSegs]bool
		n := memline.LineBytes / cfg.segBytes
		base, _ := bdiTry(l, cfg, &mask, &deltas)
		w.WriteBits(base, cfg.segBytes*8)
		for _, m := range mask[:n] {
			if m {
				w.WriteBits(1, 1)
			} else {
				w.WriteBits(0, 1)
			}
		}
		for _, d := range deltas[:n] {
			w.WriteBits(d, cfg.dltBytes*8)
		}
	}
}

// BDICompress encodes the line with the cheapest applicable BDI encoding
// and returns the packed stream and its size in bits.
func BDICompress(l *memline.Line) ([]byte, int) {
	w := NewBitWriter(BDIMaxBits)
	bits := BDICompressTo(l, w)
	return w.Bytes(), bits
}

// BDICompressTo encodes the line into w (back it with at least
// BDIMaxBits of storage) and returns the stream length in bits. All
// working state lives in fixed-size scratch, so the call itself never
// allocates.
func BDICompressTo(l *memline.Line, w *BitWriter) int {
	cfg, _ := bdiChoose(l)
	bdiWrite(l, cfg, w)
	return w.Len()
}

// BDISize returns only the compressed size in bits.
func BDISize(l *memline.Line) int {
	_, n := bdiChoose(l)
	return n
}

// BDIDecompress reconstructs a line from a BDI stream held in words, as
// FPCDecompress reads FPC.
func BDIDecompress(stream []uint64) memline.Line {
	r := wordReader{buf: stream}
	return bdiDecode(&r)
}

// bdiDecode reads one BDI stream from r.
func bdiDecode(r *wordReader) memline.Line {
	tag := int(r.ReadBits(4))
	var l memline.Line
	switch tag {
	case bdiZeros:
		return l
	case bdiRep8:
		v := r.ReadBits(64)
		for i := 0; i < memline.LineWords; i++ {
			l.SetWord(i, v)
		}
		return l
	case bdiRaw:
		for i := 0; i < memline.LineWords; i++ {
			l.SetWord(i, r.ReadBits(64))
		}
		return l
	}
	var cfg bdiConfig
	found := false
	for _, c := range bdiConfigs {
		if c.tag == tag {
			cfg, found = c, true
			break
		}
	}
	if !found {
		return l // corrupt stream decodes to zeros
	}
	segBits := cfg.segBytes * 8
	dltBits := cfg.dltBytes * 8
	n := memline.LineBytes / cfg.segBytes
	base := r.ReadBits(segBits)
	var mask [bdiMaxSegs]bool
	for i := 0; i < n; i++ {
		mask[i] = r.ReadBits(1) == 1
	}
	segMask := ^uint64(0)
	if segBits < 64 {
		segMask = 1<<uint(segBits) - 1
	}
	for i := 0; i < n; i++ {
		d := memline.SignExtend(r.ReadBits(dltBits), dltBits)
		var v uint64
		if mask[i] {
			v = d & segMask
		} else {
			v = (base + d) & segMask
		}
		for b := 0; b < cfg.segBytes; b++ {
			l[i*cfg.segBytes+b] = byte(v >> uint(8*b))
		}
	}
	return l
}

// FPCBDIMaxBits is the worst-case FPC+BDI stream length: the selector
// bit plus the larger of the two substreams' worst cases.
const FPCBDIMaxBits = 1 + FPCMaxBits

// fpcbdiChoose sizes both candidates without writing either: BDI first,
// then FPC, which stops early once it can neither beat BDI nor fit in
// limit bits. It returns the FPC+BDI stream length — exact when at most
// limit, otherwise some value above limit — and whether BDI wins, with
// its encoding.
func fpcbdiChoose(l *memline.Line, limit int) (bits int, useBDI bool, cfg bdiConfig) {
	cfg, b := bdiChoose(l)
	f := fpcSize(l, min(b, limit-1))
	if b < f {
		return b + 1, true, cfg
	}
	return f + 1, false, cfg
}

// FPCBDISize returns the size in bits of the better of FPC and BDI for
// the line, plus one selector bit, which is how DIN [16] and Figure 4
// account for the combined FPC+BDI scheme.
func FPCBDISize(l *memline.Line) int {
	bits, _, _ := fpcbdiChoose(l, FPCBDIMaxBits)
	return bits
}

// FPCBDICompress encodes with the better of FPC and BDI behind a one-bit
// selector (0 = FPC, 1 = BDI).
func FPCBDICompress(l *memline.Line) ([]byte, int) {
	w := NewBitWriter(FPCBDIMaxBits)
	bits := FPCBDICompressTo(l, w)
	return w.Bytes(), bits
}

// FPCBDICompressTo encodes into w (back it with at least FPCBDIMaxBits
// of storage) and returns the stream length in bits. The candidates are
// sized first and only the winner is written, so the call never
// allocates.
func FPCBDICompressTo(l *memline.Line, w *BitWriter) int {
	return FPCBDICompressLimit(l, w, FPCBDIMaxBits)
}

// FPCBDICompressLimit is FPCBDICompressTo for callers that keep only
// streams of at most maxBits, such as DIN's 369-bit gate: it writes the
// stream only when it fits, and otherwise returns some value above
// maxBits having written nothing (w then needs only maxBits of storage).
func FPCBDICompressLimit(l *memline.Line, w *BitWriter, maxBits int) int {
	bits, useBDI, cfg := fpcbdiChoose(l, maxBits)
	if bits > maxBits {
		return bits
	}
	if useBDI {
		w.WriteBits(1, 1)
		bdiWrite(l, cfg, w)
	} else {
		w.WriteBits(0, 1)
		FPCCompressTo(l, w)
	}
	return w.Len()
}

// FPCBDIDecompress inverts FPCBDICompress, reading the stream from
// words as FPCDecompress does.
func FPCBDIDecompress(stream []uint64) memline.Line {
	r := wordReader{buf: stream}
	if r.ReadBits(1) == 1 {
		return bdiDecode(&r)
	}
	return fpcDecode(&r)
}
