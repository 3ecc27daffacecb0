package core

import (
	"wlcrc/internal/compress"
	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
)

// Plane-native codecs of the compression-gated schemes COC+4cosets and
// WLC+Ncosets. The compression front-ends work on the data line; the
// coset-state plumbing works on planes.

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
		s.encodeModePlanes(dst, old, w.Bytes(), coc16PayloadCells, 8, coc16Blocks)
		setTailFlag(dst, cocFlag16)
	case bits <= coc32PayloadBits:
		s.encodeModePlanes(dst, old, w.Bytes(), coc32PayloadCells, 16, coc32Blocks)
		setTailFlag(dst, cocFlag32)
	default:
		rawEncodePlanes(data, dst)
		setTailFlag(dst, cocFlagRaw)
	}
}

// encodeModePlanes coset-encodes the compressed payload, viewed as a
// zero-padded line prefix, at blockCells-cell granularity (8 = 16 bits,
// 16 = 32 bits), cheapest Table I candidate per block. The aux region —
// cells [payloadCells, payloadCells+nblocks), always inside word 7 —
// is two candidate-index bit vectors merged in with one masked RMW per
// plane; the cells above it keep the old states the initial copy
// brought in.
func (s *COC4) encodeModePlanes(dst, old []uint64, buf []byte, payloadCells, blockCells, nblocks int) {
	var payload memline.Line
	copy(payload[:], buf)
	var lp linePlanes
	lp.initWordsPlanes(&payload, old, (payloadCells+memline.WordCells-1)/memline.WordCells)
	var ns newStates
	var auxLo, auxHi uint64
	for b := 0; b < nblocks; b++ {
		lo := b * blockCells
		hi := lo + blockCells
		idx, _ := lp.bestBlock(s.swar, lo, hi)
		ns.applyBlock(&s.swar[idx], &lp, lo, hi)
		auxLo |= uint64(idx&1) << uint(b)
		auxHi |= uint64(idx>>1) << uint(b)
	}
	ns.writePlanes(dst, payloadCells)
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
		*dst = s.decodeModePlanes(planes, coc16PayloadCells, 8, coc16Blocks)
	case cocFlag32:
		*dst = s.decodeModePlanes(planes, coc32PayloadCells, 16, coc32Blocks)
	default:
		rawDecodePlanes(planes, dst)
	}
}

func (s *COC4) decodeModePlanes(planes []uint64, payloadCells, blockCells, nblocks int) memline.Line {
	wa := payloadCells / memline.WordCells
	shift := uint(payloadCells & (memline.WordCells - 1))
	auxLo := planes[2*wa] >> shift
	auxHi := planes[2*wa+1] >> shift
	var sp lineStatePlanes
	sp.fromPlanes(planes, (payloadCells+memline.WordCells-1)/memline.WordCells)
	var dw dataWords
	for b := 0; b < nblocks; b++ {
		lo := b * blockCells
		idx := int(auxLo>>uint(b)&1) | int(auxHi>>uint(b)&1)<<1
		dw.decodeBlock(&s.swar[idx], &sp, lo, lo+blockCells)
	}
	var payload memline.Line
	for w := 0; w*memline.WordCells < payloadCells; w++ {
		payload.SetWord(w, dw.word(w))
	}
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
	for w := 0; w < memline.LineWords; w++ {
		dst[2*w], dst[2*w+1] = s.encodeWordPlanes(data.Word(w), old[2*w], old[2*w+1])
	}
	setTailFlag(dst, flagCompressed)
}

// encodeWordPlanes picks each block's cheapest candidate over the
// word's plane-resident old states and assembles the result — data
// cells plus the reclaimed-field candidate indices — as one plane pair.
// Aux cell j stores block j's index directly (low bit to the low
// plane), the identity AuxPack layout; reclaimed cells beyond the block
// count come out S1.
func (s *WLCCosets) encodeWordPlanes(word, oldLo, oldHi uint64) (uint64, uint64) {
	var p coset.WordPlanes
	p.SetData(word)
	p.SetOldPlanes(oldLo, oldHi)
	var nlo, nhi, auxLo, auxHi uint64
	for b, rng := range s.blocks {
		mask := coset.CellMask(rng[0], rng[1]-rng[0])
		idx, _ := coset.BestSWAR(s.swar, &p, mask)
		lo, hi := s.swar[idx].Apply(&p)
		nlo |= lo & mask
		nhi |= hi & mask
		auxLo |= uint64(idx&1) << uint(b)
		auxHi |= uint64(idx>>1) << uint(b)
	}
	shift := uint(s.dataCells)
	return nlo | auxLo<<shift, nhi | auxHi<<shift
}

// DecodePlanesInto implements PlaneScheme.
func (s *WLCCosets) DecodePlanesInto(planes []uint64, dst *memline.Line) {
	if tailFlag(planes) != flagCompressed {
		rawDecodePlanes(planes, dst)
		return
	}
	for w := 0; w < memline.LineWords; w++ {
		dst.SetWord(w, s.decodeWordPlanes(planes[2*w], planes[2*w+1]))
	}
}

func (s *WLCCosets) decodeWordPlanes(slo, shi uint64) uint64 {
	auxLo := slo >> uint(s.dataCells)
	auxHi := shi >> uint(s.dataCells)
	var dlo, dhi uint64
	for b, rng := range s.blocks {
		idx := int(auxLo>>uint(b)&1) | int(auxHi>>uint(b)&1)<<1
		if idx >= len(s.cands) {
			idx = 0
		}
		lo, hi := s.swar[idx].ApplyInvPlanes(slo, shi)
		mask := coset.CellMask(rng[0], rng[1]-rng[0])
		dlo |= lo & mask
		dhi |= hi & mask
	}
	return s.wlc.DecompressWord(memline.InterleavePlanes(dlo, dhi))
}
