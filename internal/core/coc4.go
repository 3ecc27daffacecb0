package core

import (
	"wlcrc/internal/compress"
	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
)

// COC4 is the COC+4cosets scheme of §VIII: the line is compressed with
// the coverage-oriented menu, and the freed space holds per-block
// candidate indices for the four Table I cosets. Lines compressing to at
// most 448 bits are encoded at 16-bit granularity, lines at most 480
// bits at 32-bit granularity, and everything else is written raw.
//
// The stored layout is fixed per mode so the decoder can locate the
// auxiliary bits before it knows any block's mapping:
//
//	16-bit mode: payload cells 0..223 (448 bits), 28 blocks, aux bits in
//	             cells 224..251 (two bits per block through C1).
//	32-bit mode: payload cells 0..239 (480 bits), 15 blocks, aux bits in
//	             cells 240..254.
//
// Cells beyond the aux region are left untouched. The flag cell
// disambiguates the three modes; per the paper the overwhelmingly common
// 16-bit mode gets the lowest-energy state.
type COC4 struct {
	swar []coset.SWARTable // word-parallel pricing/apply of the Table I candidates
}

const (
	coc16PayloadBits  = 448
	coc16PayloadCells = coc16PayloadBits / 2
	coc16Blocks       = coc16PayloadBits / 16
	coc32PayloadBits  = 480
	coc32PayloadCells = coc32PayloadBits / 2
	coc32Blocks       = coc32PayloadBits / 32

	cocFlag16  = pcm.S1
	cocFlag32  = pcm.S2
	cocFlagRaw = pcm.S3
)

// coc16Geom and coc32Geom are the payload block geometries of the two
// encoded modes, and coc16Aux and coc32Aux their blocks' aux bits: one
// cell per block, right after the payload.
var (
	coc16Geom = coset.UniformBlocks(coc16PayloadCells, coc16PayloadCells/coc16Blocks)
	coc32Geom = coset.UniformBlocks(coc32PayloadCells, coc32PayloadCells/coc32Blocks)
	coc16Aux  = uniformAux(2*coc16PayloadCells, 2, coc16Blocks)
	coc32Aux  = uniformAux(2*coc32PayloadCells, 2, coc32Blocks)
	cocField  = identityGroup(2, len(coset.Table1))
)

// NewCOC4 returns the COC+4cosets scheme.
func NewCOC4(cfg Config) *COC4 {
	return &COC4{
		swar: coset.SWARTables(&cfg.Energy, coset.Table1[:]),
	}
}

// Name implements Scheme.
func (*COC4) Name() string { return "COC+4cosets" }

// TotalCells implements Scheme.
func (*COC4) TotalCells() int { return memline.LineCells + 1 }

// DataCells implements Scheme.
func (*COC4) DataCells() int { return memline.LineCells }

// Compressible reports whether the line fits one of the two encoded
// modes (the paper: COC compresses more than 90% of lines).
func (s *COC4) Compressible(data *memline.Line) bool {
	return compress.COCSize(data) <= coc32PayloadBits
}

// CompressedWritePlanes implements PlaneCompressionGate.
func (s *COC4) CompressedWritePlanes(planes []uint64) bool {
	flag := tailFlag(planes)
	return flag == cocFlag16 || flag == cocFlag32
}

// EncodePlanesInto implements PlaneScheme. The copy-from-old becomes an
// 18-word plane copy instead of a 257-byte state copy.
func (s *COC4) EncodePlanesInto(dst, old []uint64, data *memline.Line) {
	copy(dst, old)
	var stream [compress.COCMaxWords]uint64
	bits := compress.COCPack(data, &stream)
	switch {
	case bits <= coc16PayloadBits:
		s.encodeModePlanes(dst, old, &stream, coc16PayloadCells, coc16Geom, coc16Aux)
		setTailFlag(dst, cocFlag16)
	case bits <= coc32PayloadBits:
		s.encodeModePlanes(dst, old, &stream, coc32PayloadCells, coc32Geom, coc32Aux)
		setTailFlag(dst, cocFlag32)
	default:
		rawEncodePlanes(data, dst)
		setTailFlag(dst, cocFlagRaw)
	}
}

// encodeModePlanes coset-encodes the compressed payload, the stream's
// first line of words (zero past the stream), over the mode's block
// geometry (8-cell blocks = 16 bits, 16-cell = 32 bits), cheapest
// Table I candidate per block. The aux region — cells [payloadCells, payloadCells+nblocks),
// always inside word 7 — holds each block's candidate index as the
// state of one cell, written through the shared aux-bit writer; the
// cells above it keep the old states the initial copy brought in.
func (s *COC4) encodeModePlanes(dst, old []uint64, stream *[compress.COCMaxWords]uint64, payloadCells int, g *coset.Blocks, aux []int) {
	payload := memline.FromWords([memline.LineWords]uint64(stream[:memline.LineWords]))
	var p coset.Regs
	p.Load(&payload, old)
	var idx [coc16Blocks]uint8
	nblocks := g.Len()
	coset.BestBlocks(s.swar, &p, g, idx[:nblocks])
	var lo, hi [coset.MaxRegs]uint64
	coset.ApplyBlocks(s.swar, &p, g, idx[:nblocks], &lo, &hi)
	coset.StoreRegs(dst, &lo, &hi, payloadCells)
	wa := payloadCells / memline.WordCells
	mask := coset.CellMask(payloadCells%memline.WordCells, nblocks)
	dst[2*wa] &^= mask
	dst[2*wa+1] &^= mask
	writeAux(dst, aux, idx[:nblocks], &cocField)
}

// DecodePlanesInto implements PlaneScheme.
func (s *COC4) DecodePlanesInto(planes []uint64, dst *memline.Line) {
	switch tailFlag(planes) {
	case cocFlag16:
		*dst = s.decodeModePlanes(planes, coc16Geom, coc16Aux)
	case cocFlag32:
		*dst = s.decodeModePlanes(planes, coc32Geom, coc32Aux)
	default:
		rawDecodePlanes(planes, dst)
	}
}

func (s *COC4) decodeModePlanes(planes []uint64, g *coset.Blocks, aux []int) memline.Line {
	var idx [coc16Blocks]uint8
	readAux(planes, aux, &cocField, idx[:len(aux)])
	payload := memline.FromWords(decodeRegs(planes, s.swar, g, idx[:len(aux)]))
	return compress.COCDecompress(payload[:])
}
