package core

import (
	"encoding/binary"

	"wlcrc/internal/bch"
	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/vcc"
)

// Reference decoders: the per-block plane decoders over byte-stream
// readers, the reference of the decode equivalence tests
// (decode_equiv_test.go) and the reference arm of BenchmarkDecodePaired.
// Each is the replaced production code verbatim, except where it
// reached into another package's internals: the per-block inverse
// mapping of coset.DecodeBlocks runs here on tables derived from the
// exported SWARTable.Inv and Blocks.Span, and the byte-at-a-time stream
// readers of package compress are copied below with their tables.

// refDecodeFunc is one scheme's reference decoder.
type refDecodeFunc func(planes []uint64, dst *memline.Line)

// refDecoder returns the reference decoder of s, for every scheme this
// package decodes — each counter-blind scheme and Enc(...) of one — and
// false for the VCC-n schemes, whose decoders live in internal/vcc.
func refDecoder(s Scheme) (refDecodeFunc, bool) {
	switch v := s.(type) {
	case Baseline:
		return refRawDecodePlanes, true
	case *FlipMin:
		return v.refDecode, true
	case *DIN:
		return v.refDecode, true
	case *COC4:
		return newRefCOC4Decoder(v).decode, true
	case *WLCRC:
		return (&refWLCRCDecoder{v, refInvs(v.swar)}).decode, true
	case *FNW:
		return newRefBlockCode(&v.blockCode).decode, true
	case *LineCosets:
		return newRefBlockCode(&v.blockCode).decode, true
	case *RestrictedLineCosets:
		return newRefBlockCode(&v.blockCode).decode, true
	case *WLCCosets:
		return newRefBlockCode(&v.blockCode).decode, true
	case *vcc.Encrypted:
		inner := v.Inner()
		dec, ok := refDecoder(inner.(Scheme))
		if !ok {
			return nil, false
		}
		e := vcc.NewEncrypted(refInner{inner, dec}, 0)
		return func(planes []uint64, dst *memline.Line) {
			e.DecodeCtrPlanesInto(planes, refAddr, refCtr, dst)
		}, true
	}
	return nil, false
}

// refAddr and refCtr key the Enc(...) schemes' reference decodes; the
// equivalence tests decode the production side under the same key.
const refAddr, refCtr = 0x5A5A, 3

// refInner is an Enc(...) scheme's inner scheme with its decoder
// replaced by the reference.
type refInner struct {
	vcc.Inner
	dec refDecodeFunc
}

func (r refInner) DecodePlanesInto(planes []uint64, dst *memline.Line) { r.dec(planes, dst) }

// refRawDecodePlanes is the raw C1 decoder through the SWAR inverse.
func refRawDecodePlanes(planes []uint64, l *memline.Line) {
	for w := 0; w < memline.LineWords; w++ {
		l.SetWord(w, memline.InterleavePlanes(refC1.ApplyInvPlanes(planes[2*w], planes[2*w+1])))
	}
}

// refC1 is C1's inverse as the reference decoders apply it.
var refC1 = refInvs([]coset.SWARTable{coset.C1SWAR})[0]

// FlipMin ---------------------------------------------------------------

func (f *FlipMin) refDecode(planes []uint64, dst *memline.Line) {
	idx := int(tailBits4(planes))
	refRawDecodePlanes(planes, dst)
	for w := 0; w < memline.LineWords; w++ {
		dst.SetWord(w, dst.Word(w)^f.maskWords[idx][w])
	}
}

// WLCRC -----------------------------------------------------------------

// refWLCRCDecoder is WLCRC's reference decoder and its candidates' inverses.
type refWLCRCDecoder struct {
	*WLCRC
	swar []refInv
}

func (s *refWLCRCDecoder) decode(planes []uint64, dst *memline.Line) {
	if tailFlag(planes) != flagCompressed {
		refRawDecodePlanes(planes, dst)
		return
	}
	for w := 0; w < memline.LineWords; w++ {
		dst.SetWord(w, s.decodeWordPlanes(planes[2*w], planes[2*w+1]))
	}
}

func (s *refWLCRCDecoder) decodeWordPlanes(slo, shi uint64) uint64 {
	g := &s.geom
	top := uint64(c1InvTop[slo>>28&0xF|shi>>28&0xF<<4]) << 56 // word bits 56-63
	if s.gran == 64 {
		idx := top >> 62
		if idx > 2 {
			idx = 0
		}
		lo, hi := s.swar[idx].ApplyInvPlanes(slo, shi)
		mask := coset.CellMask(0, g.dataCells)
		return s.wlc.DecompressWord(memline.InterleavePlanes(lo&mask, hi&mask))
	}
	aw := top & (^uint64(0) << uint(2*g.dataCells))
	alt := &s.swar[1+aw>>wlcrcGroupBit]
	var dlo, dhi uint64
	for b, rng := range g.blocks {
		t := &s.swar[0]
		if aw>>g.candBit[b]&1 == 1 {
			t = alt
		}
		lo, hi := t.ApplyInvPlanes(slo, shi)
		mask := coset.CellMask(rng[0], rng[1]-rng[0])
		dlo |= lo & mask
		dhi |= hi & mask
	}
	return s.wlc.DecompressWord(memline.InterleavePlanes(dlo, dhi) | aw)
}

// Block codes -----------------------------------------------------------

// refInv is a candidate's inverse as the two state minterms OR-ed into
// each data plane (SWARTable's invLo/invHi).
type refInv struct{ lo, hi [2]uint8 }

func refInvs(tabs []coset.SWARTable) []refInv {
	out := make([]refInv, len(tabs))
	for i := range tabs {
		var nlo, nhi int
		for st, sym := range tabs[i].Inv {
			if sym&1 != 0 {
				out[i].lo[nlo] = uint8(st)
				nlo++
			}
			if sym&2 != 0 {
				out[i].hi[nhi] = uint8(st)
				nhi++
			}
		}
	}
	return out
}

func (t *refInv) applyInvSyms(is *[4]uint64) (dlo, dhi uint64) {
	return is[t.lo[0]&3] | is[t.lo[1]&3], is[t.hi[0]&3] | is[t.hi[1]&3]
}

// ApplyInvPlanes is SWARTable.ApplyInvPlanes: one plane word's
// minterms, inverted.
func (t *refInv) ApplyInvPlanes(lo, hi uint64) (dlo, dhi uint64) {
	is := [4]uint64{^(hi | lo) & coset.AllCells, lo &^ hi, hi &^ lo, hi & lo}
	return t.applyInvSyms(&is)
}

// refBlocks is coset.Blocks' decode geometry, rebuilt from Span.
type refBlocks struct {
	regs, per int
	first     [coset.MaxRegs + 1]int
	mask      []uint64
}

func newRefBlocks(g *coset.Blocks) *refBlocks {
	rb := &refBlocks{}
	for b := 0; b < g.Len(); b++ {
		r0, r1, mask := g.Span(b)
		if r1-r0 > 1 {
			rb.per = r1 - r0
		}
		for rb.regs < r1 {
			rb.regs++
			rb.first[rb.regs] = b
		}
		rb.first[rb.regs] = b + 1
		rb.mask = append(rb.mask, mask)
	}
	return rb
}

func refMinterms64(lo, hi uint64) [4]uint64 {
	return [4]uint64{^(hi | lo), lo &^ hi, hi &^ lo, hi & lo}
}

// refDecodeBlocks is the per-block coset.DecodeBlocks.
func refDecodeBlocks(tabs []refInv, g *refBlocks, idx []uint8, lo, hi *[coset.MaxRegs]uint64) {
	for r := 0; r < g.regs; r++ {
		is := refMinterms64(lo[r], hi[r])
		if g.per > 0 {
			lo[r], hi[r] = tabs[idx[r/g.per]].applyInvSyms(&is)
			continue
		}
		var dlo, dhi uint64
		for b := g.first[r]; b < g.first[r+1]; b++ {
			l, h := tabs[idx[b]].applyInvSyms(&is)
			dlo |= l & g.mask[b]
			dhi |= h & g.mask[b]
		}
		lo[r], hi[r] = dlo, dhi
	}
}

func refDecodeRegs(planes []uint64, tabs []refInv, g *refBlocks, idx []uint8) (words [memline.LineWords]uint64) {
	var lo, hi [coset.MaxRegs]uint64
	coset.LoadRegs(planes, &lo, &hi)
	refDecodeBlocks(tabs, g, idx, &lo, &hi)
	for r := range lo {
		words[2*r], words[2*r+1] = coset.RegWords(lo[r], hi[r])
	}
	return words
}

// refReadAux is readAux.
func refReadAux(planes []uint64, ks []int, g *auxGroup, out []uint8) {
	for i, k := range ks {
		c := k >> 1
		w, sh := c>>5<<1, uint(c&31)
		out[i] = g.get[k&1][planes[w]>>sh&3|planes[w+1]>>sh&3<<2]
	}
}

// refBlockCode is a row's reference decoder and the tables it reads.
type refBlockCode struct {
	c    *blockCode
	tabs []refInv
	geom *refBlocks
}

func newRefBlockCode(c *blockCode) *refBlockCode {
	return &refBlockCode{c: c, tabs: refInvs(c.tabs), geom: newRefBlocks(c.geom)}
}

func (r *refBlockCode) decode(planes []uint64, dst *memline.Line) {
	c := r.c
	if !c.CompressedWritePlanes(planes) {
		refRawDecodePlanes(planes, dst)
		return
	}
	grp := &c.groups[0]
	if len(c.groups) > 1 {
		var g [1]uint8
		refReadAux(planes, []int{c.groupBit}, &c.groupField, g[:])
		grp = &c.groups[g[0]]
	}
	var idx [maxBlocks]uint8
	n := c.geom.Len()
	refReadAux(planes, c.auxBit, grp, idx[:n])
	words := refDecodeRegs(planes, r.tabs, r.geom, idx[:n])
	if c.wlc == nil {
		*dst = memline.FromWords(words)
		return
	}
	for w, word := range words {
		dst.SetWord(w, c.wlc.DecompressWord(word))
	}
}

// COC+4cosets -----------------------------------------------------------

type refCOC4Decoder struct {
	tabs                 []refInv
	coc16Geom, coc32Geom *refBlocks
}

func newRefCOC4Decoder(s *COC4) *refCOC4Decoder {
	return &refCOC4Decoder{
		tabs:      refInvs(s.swar),
		coc16Geom: newRefBlocks(coc16.geom),
		coc32Geom: newRefBlocks(coc32.geom),
	}
}

func (s *refCOC4Decoder) decode(planes []uint64, dst *memline.Line) {
	switch tailFlag(planes) {
	case cocFlag16:
		*dst = s.decodeModePlanes(planes, s.coc16Geom, coc16.aux)
	case cocFlag32:
		*dst = s.decodeModePlanes(planes, s.coc32Geom, coc32.aux)
	default:
		refRawDecodePlanes(planes, dst)
	}
}

func (s *refCOC4Decoder) decodeModePlanes(planes []uint64, g *refBlocks, aux []int) memline.Line {
	var idx [coc16Blocks]uint8
	refReadAux(planes, aux, &cocField, idx[:len(aux)])
	payload := memline.FromWords(refDecodeRegs(planes, s.tabs, g, idx[:len(aux)]))
	return refCOCDecompress(payload[:])
}

// DIN -------------------------------------------------------------------

func (d *DIN) refDecode(planes []uint64, dst *memline.Line) {
	refRawDecodePlanes(planes, dst)
	if tailFlag(planes) == flagCompressed {
		*dst = d.refDecodeStored(dst)
	}
}

func (d *DIN) refDecodeStored(stored *memline.Line) memline.Line {
	d.refCorrect(stored)
	words := stored.Words()
	words[7] &= 1<<dinParityShift - 1 // so the stream past bit 369 reads zero
	var stream memline.Line
	for j, x := range words {
		var v uint64
		for k := 0; k < 8; k++ {
			v |= uint64(dinContract[byte(x>>(8*k))]) << (6 * k)
		}
		binary.LittleEndian.PutUint64(stream[6*j:], v)
	}
	return refFPCBDIDecompress(stream[:(dinMaxCompressed+7)/8])
}

func (d *DIN) refCorrect(stored *memline.Line) (n int, ok bool) {
	words := stored.Words()
	if d.codec.ParityWords(words[:], dinPayloadBits) == uint32(words[7]>>dinParityShift) {
		return 0, true
	}
	var cw [bch.ParityBits + dinPayloadBits]uint8 // bit k is line bit k-20 mod 512
	for k := range cw {
		cw[k] = uint8(stored.Bit((k + dinPayloadBits) % memline.LineBits))
	}
	n, ok = d.codec.Decode(cw[:])
	for k, b := range cw {
		stored.SetBit((k+dinPayloadBits)%memline.LineBits, int(b))
	}
	return n, ok
}

// Byte-stream decompressors of package compress ------------------------

type refBitReader struct {
	buf []byte
	pos int
}

func (r *refBitReader) ReadBits(n int) uint64 {
	if n <= 0 {
		return 0
	}
	idx := r.pos >> 3
	off := uint(r.pos) & 7
	r.pos += n
	var v uint64
	if idx < len(r.buf) {
		v = uint64(r.buf[idx] >> off)
	}
	got := 8 - int(off)
	for idx++; got < n; idx++ {
		if idx < len(r.buf) {
			v |= uint64(r.buf[idx]) << uint(got)
		}
		got += 8
	}
	if n < 64 {
		v &= 1<<uint(n) - 1
	}
	return v
}

var (
	refCOCSEWidths    = []int{1, 2, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60}
	refCOCDeltaWidths = []int{4, 8, 16, 24, 32, 40, 48}
)

func refCOCDecompress(buf []byte) memline.Line {
	const (
		cocTagBits = 5
		cocRepByte = 17
		cocRep16   = 18
		cocRep32   = 19
		cocDelta0  = 20
	)
	r := &refBitReader{buf: buf}
	var l memline.Line
	var prev uint64
	for i := 0; i < memline.LineWords; i++ {
		tag := int(r.ReadBits(cocTagBits))
		var v uint64
		switch {
		case tag < len(refCOCSEWidths):
			w := refCOCSEWidths[tag]
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
		case tag >= cocDelta0 && tag < cocDelta0+len(refCOCDeltaWidths):
			w := refCOCDeltaWidths[tag-cocDelta0]
			v = prev + memline.SignExtend(r.ReadBits(w), w)
		default: // cocRawTag
			v = r.ReadBits(64)
		}
		l.SetWord(i, v)
		prev = v
	}
	return l
}

func refFPCBDIDecompress(buf []byte) memline.Line {
	r := &refBitReader{buf: buf}
	if r.ReadBits(1) == 1 {
		return refBDIDecode(r)
	}
	return refFPCDecode(r)
}

func refFPCDecode(r *refBitReader) memline.Line {
	var words [16]uint32
	for i := 0; i < 16; {
		prefix := int(r.ReadBits(3))
		switch prefix {
		case 0: // zero run
			run := int(r.ReadBits(3)) + 1
			i += run
		case 1:
			words[i] = uint32(memline.SignExtend(r.ReadBits(4), 4))
			i++
		case 2:
			words[i] = uint32(memline.SignExtend(r.ReadBits(8), 8))
			i++
		case 3:
			words[i] = uint32(memline.SignExtend(r.ReadBits(16), 16))
			i++
		case 4: // padded halfword
			words[i] = uint32(r.ReadBits(16)) << 16
			i++
		case 5: // two halves
			v := r.ReadBits(16)
			lo := uint32(memline.SignExtend(v&0xff, 8)) & 0xffff
			hi := uint32(memline.SignExtend(v>>8, 8)) & 0xffff
			words[i] = hi<<16 | lo
			i++
		case 6: // repeated byte
			b := uint32(r.ReadBits(8))
			words[i] = b | b<<8 | b<<16 | b<<24
			i++
		default: // raw
			words[i] = uint32(r.ReadBits(32))
			i++
		}
	}
	var l memline.Line
	for i := 0; i < memline.LineWords; i++ {
		l.SetWord(i, uint64(words[2*i])|uint64(words[2*i+1])<<32)
	}
	return l
}

// refBDIConfigs maps a base+delta tag to its segment and delta bytes.
var refBDIConfigs = []struct{ tag, segBytes, dltBytes int }{
	{2, 8, 1}, {5, 4, 1}, {3, 8, 2}, {6, 4, 2}, {7, 2, 1}, {4, 8, 4},
}

func refBDIDecode(r *refBitReader) memline.Line {
	const bdiZeros, bdiRep8, bdiRaw = 0, 1, 15
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
	segBytes, dltBytes := 0, 0
	for _, c := range refBDIConfigs {
		if c.tag == tag {
			segBytes, dltBytes = c.segBytes, c.dltBytes
			break
		}
	}
	if segBytes == 0 {
		return l // corrupt stream decodes to zeros
	}
	segBits := segBytes * 8
	dltBits := dltBytes * 8
	n := memline.LineBytes / segBytes
	base := r.ReadBits(segBits)
	var mask [memline.LineBytes / 2]bool
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
		for b := 0; b < segBytes; b++ {
			l[i*segBytes+b] = byte(v >> uint(8*b))
		}
	}
	return l
}
