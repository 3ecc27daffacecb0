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

// cocMode is the layout of one encoded mode: its payload cells, and the
// payload's blocks, one aux cell each right after the payload, holding
// the block's Table I candidate index as its state. A pair register
// holds regBlocks blocks, and spread[v] is the cells of those whose
// bits v sets (block j of the register at bit j).
type cocMode struct {
	payloadCells int
	geom         *coset.Blocks
	aux          []int
	regBlocks    uint
	spread       []uint64
}

func newCOCMode(payloadCells, blocks int) *cocMode {
	blockCells := payloadCells / blocks
	m := &cocMode{
		payloadCells: payloadCells,
		geom:         coset.UniformBlocks(payloadCells, blockCells),
		aux:          uniformAux(2*payloadCells, 2, blocks),
		regBlocks:    uint(coset.RegCells / blockCells),
	}
	m.spread = make([]uint64, 1<<m.regBlocks)
	for v := range m.spread {
		for j := 0; j < int(m.regBlocks); j++ {
			if v>>j&1 == 1 {
				m.spread[v] |= coset.CellMask(j*blockCells, blockCells)
			}
		}
	}
	return m
}

var (
	coc16    = newCOCMode(coc16PayloadCells, coc16Blocks)
	coc32    = newCOCMode(coc32PayloadCells, coc32Blocks)
	cocField = identityGroup(2, len(coset.Table1))
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
		s.encodeModePlanes(dst, old, &stream, coc16)
		setTailFlag(dst, cocFlag16)
	case bits <= coc32PayloadBits:
		s.encodeModePlanes(dst, old, &stream, coc32)
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
func (s *COC4) encodeModePlanes(dst, old []uint64, stream *[compress.COCMaxWords]uint64, m *cocMode) {
	payloadCells, g := m.payloadCells, m.geom
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
	writeAux(dst, m.aux, idx[:nblocks], &cocField)
}

// DecodePlanesInto implements PlaneScheme.
func (s *COC4) DecodePlanesInto(planes []uint64, dst *memline.Line) {
	switch tailFlag(planes) {
	case cocFlag16:
		*dst = s.decodeModePlanes(planes, coc16)
	case cocFlag32:
		*dst = s.decodeModePlanes(planes, coc32)
	default:
		rawDecodePlanes(planes, dst)
	}
}

// decodeModePlanes decodes the payload registers, each block through
// the candidate its aux cell's state names, and decompresses the
// payload words as the COC stream they hold. The aux cells' four state
// minterms, spread over the blocks' cells, are the candidates' cell
// masks.
func (s *COC4) decodeModePlanes(planes []uint64, m *cocMode) memline.Line {
	w, sh := m.payloadCells/memline.WordCells, uint(m.payloadCells%memline.WordCells)
	alo, ahi := planes[2*w]>>sh, planes[2*w+1]>>sh
	in := coset.CellMask(0, m.geom.Len())
	held := [4]uint64{^(alo | ahi) & in, alo &^ ahi & in, ahi &^ alo & in, alo & ahi & in}
	var payload [memline.LineWords]uint64 // zero past the payload's words
	for r := 0; 2*r*memline.WordCells < m.payloadCells; r++ {
		lo := coset.Pair(planes[4*r], planes[4*r+2])
		hi := coset.Pair(planes[4*r+1], planes[4*r+3])
		var dlo, dhi uint64
		for c := range held {
			sel := m.spread[held[c]>>(m.regBlocks*uint(r))&(1<<m.regBlocks-1)]
			l, h := s.swar[c].ApplyInvReg(lo, hi)
			dlo |= l & sel
			dhi |= h & sel
		}
		payload[2*r] = memline.InterleavePlanes(dlo, dhi)
		if (2*r+1)*memline.WordCells < m.payloadCells {
			payload[2*r+1] = memline.InterleavePlanes(dlo>>32, dhi>>32)
		}
	}
	return compress.COCDecompress(payload[:])
}
