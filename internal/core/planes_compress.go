package core

import (
	"wlcrc/internal/compress"
	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
)

// Plane-native codecs of the compression-gated schemes COC+4cosets and
// WLC+Ncosets. The compression front-ends work on the data line; the
// coset encoding prices, applies and decodes through the block kernel
// over pair registers.

// COC+4cosets -----------------------------------------------------------

// CompressedWritePlanes implements PlaneCompressionGate.
func (s *COC4) CompressedWritePlanes(planes []uint64) bool {
	flag := tailFlag(planes)
	return flag == cocFlag16 || flag == cocFlag32
}

// EncodePlanesInto implements PlaneScheme. The copy-from-old becomes an
// 18-word plane copy instead of a 257-byte state copy.
func (s *COC4) EncodePlanesInto(dst, old []uint64, data *memline.Line) {
	copy(dst, old)
	var backing [(compress.COCMaxBits + 7) / 8]byte
	w := compress.WrapBitWriter(backing[:])
	bits := compress.COCCompressTo(data, &w)
	switch {
	case bits <= coc16PayloadBits:
		s.encodeModePlanes(dst, old, w.Bytes(), coc16PayloadCells, coc16Geom)
		setTailFlag(dst, cocFlag16)
	case bits <= coc32PayloadBits:
		s.encodeModePlanes(dst, old, w.Bytes(), coc32PayloadCells, coc32Geom)
		setTailFlag(dst, cocFlag32)
	default:
		rawEncodePlanes(data, dst)
		setTailFlag(dst, cocFlagRaw)
	}
}

// encodeModePlanes coset-encodes the compressed payload, viewed as a
// zero-padded line prefix, over the mode's block geometry (8-cell
// blocks = 16 bits, 16-cell = 32 bits), cheapest Table I candidate per
// block. The aux region — cells [payloadCells, payloadCells+nblocks),
// always inside word 7 — is two candidate-index bit vectors merged in
// with one masked RMW per plane; the cells above it keep the old states
// the initial copy brought in.
func (s *COC4) encodeModePlanes(dst, old []uint64, buf []byte, payloadCells int, g *coset.Blocks) {
	var payload memline.Line
	copy(payload[:], buf)
	var p coset.Regs
	p.Load(&payload, old)
	var idx [coc16Blocks]uint8
	nblocks := g.Len()
	coset.BestBlocks(s.swar, &p, g, idx[:nblocks])
	var lo, hi [coset.MaxRegs]uint64
	coset.ApplyBlocks(s.swar, &p, g, idx[:nblocks], &lo, &hi)
	coset.StoreRegs(dst, &lo, &hi, payloadCells)
	var auxLo, auxHi uint64
	for b, i := range idx[:nblocks] {
		auxLo |= uint64(i&1) << uint(b)
		auxHi |= uint64(i>>1) << uint(b)
	}
	wa := payloadCells / memline.WordCells
	shift := uint(payloadCells & (memline.WordCells - 1))
	mask := coset.CellMask(int(shift), nblocks)
	dst[2*wa] = dst[2*wa]&^mask | auxLo<<shift
	dst[2*wa+1] = dst[2*wa+1]&^mask | auxHi<<shift
}

// DecodePlanesInto implements PlaneScheme.
func (s *COC4) DecodePlanesInto(planes []uint64, dst *memline.Line) {
	switch tailFlag(planes) {
	case cocFlag16:
		*dst = s.decodeModePlanes(planes, coc16PayloadCells, coc16Geom)
	case cocFlag32:
		*dst = s.decodeModePlanes(planes, coc32PayloadCells, coc32Geom)
	default:
		rawDecodePlanes(planes, dst)
	}
}

func (s *COC4) decodeModePlanes(planes []uint64, payloadCells int, g *coset.Blocks) memline.Line {
	wa := payloadCells / memline.WordCells
	shift := uint(payloadCells & (memline.WordCells - 1))
	auxLo := planes[2*wa] >> shift
	auxHi := planes[2*wa+1] >> shift
	var idx [coc16Blocks]uint8
	for b := 0; b < g.Len(); b++ {
		idx[b] = uint8(auxLo>>uint(b)&1) | uint8(auxHi>>uint(b)&1)<<1
	}
	payload := memline.FromWords(decodeRegs(planes, s.swar, g, idx[:g.Len()]))
	return compress.COCDecompress(payload[:])
}

// WLC+Ncosets -----------------------------------------------------------

// CompressedWritePlanes implements PlaneCompressionGate.
func (s *WLCCosets) CompressedWritePlanes(planes []uint64) bool {
	return tailFlag(planes) == flagCompressed
}

// EncodePlanesInto implements PlaneScheme.
func (s *WLCCosets) EncodePlanesInto(dst, old []uint64, data *memline.Line) {
	if !s.wlc.LineCompressible(data) {
		rawEncodePlanes(data, dst)
		setTailFlag(dst, flagUncompressed)
		return
	}
	var p coset.Regs
	p.Load(data, old)
	var idx [wlcMaxLineBlocks]uint8
	n := s.geom.Len()
	coset.BestBlocks(s.swar, &p, s.geom, idx[:n])
	var lo, hi [coset.MaxRegs]uint64
	coset.ApplyBlocks(s.swar, &p, s.geom, idx[:n], &lo, &hi)
	coset.StoreRegs(dst, &lo, &hi, memline.LineCells)
	// Aux cell j of a word stores its block j's index directly (low bit
	// to the low plane), the identity AuxPack layout; reclaimed cells
	// beyond the block count come out S1.
	nb := len(s.blocks)
	for w := 0; w < memline.LineWords; w++ {
		var auxLo, auxHi uint64
		for b, i := range idx[w*nb : (w+1)*nb] {
			auxLo |= uint64(i&1) << uint(b)
			auxHi |= uint64(i>>1) << uint(b)
		}
		dst[2*w] |= auxLo << uint(s.dataCells)
		dst[2*w+1] |= auxHi << uint(s.dataCells)
	}
	setTailFlag(dst, flagCompressed)
}

// DecodePlanesInto implements PlaneScheme.
func (s *WLCCosets) DecodePlanesInto(planes []uint64, dst *memline.Line) {
	if tailFlag(planes) != flagCompressed {
		rawDecodePlanes(planes, dst)
		return
	}
	var idx [wlcMaxLineBlocks]uint8
	nb := len(s.blocks)
	for w := 0; w < memline.LineWords; w++ {
		auxLo := planes[2*w] >> uint(s.dataCells)
		auxHi := planes[2*w+1] >> uint(s.dataCells)
		for b := 0; b < nb; b++ {
			i := uint8(auxLo>>uint(b)&1) | uint8(auxHi>>uint(b)&1)<<1
			if int(i) >= len(s.cands) {
				i = 0
			}
			idx[w*nb+b] = i
		}
	}
	words := decodeRegs(planes, s.swar, s.geom, idx[:s.geom.Len()])
	for w, word := range words {
		dst.SetWord(w, s.wlc.DecompressWord(word))
	}
}
