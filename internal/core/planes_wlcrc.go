package core

import (
	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
)

// Plane-native WLCRC codec, the scheme's only encoder. The per-word
// pipeline — block evals, the §XI risk, the two group plans, the
// multi-objective tie-breaks — reads the word's old states as a plane
// pair and emits the committed states as one. The handful of cells the
// planner reads individually (the mixed cell and the pure-aux tail) are
// extracted from the old planes into a stack array of states.

// CompressedWritePlanes implements PlaneCompressionGate.
func (s *WLCRC) CompressedWritePlanes(planes []uint64) bool {
	return tailFlag(planes) == flagCompressed
}

// EncodePlanesInto implements PlaneScheme.
func (s *WLCRC) EncodePlanesInto(dst, old []uint64, data *memline.Line) {
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

// encodeWordPlanes encodes one word over plane-resident old state,
// returning the committed state planes. Both groups share C1, so every
// block's three candidate tables are priced once and the two group
// plans read the cached evals.
func (s *WLCRC) encodeWordPlanes(word, oldLo, oldHi uint64) (uint64, uint64) {
	var p coset.WordPlanes
	p.SetData(word)
	p.SetOldPlanes(oldLo, oldHi)
	g := &s.geom

	if s.gran == 64 {
		rng := g.blocks[0]
		mask := coset.CellMask(rng[0], rng[1]-rng[0])
		idx, _ := coset.BestSWAR(s.swar64, &p, mask)
		lo, hi := s.swar64[idx].Apply(&p)
		st := coset.C1[uint8(idx)]
		return lo&mask | uint64(st&1)<<31, hi&mask | uint64(st>>1)<<31
	}

	// The planner reads individual old states only at the mixed cell and
	// the pure-aux tail — all at or beyond dataCells.
	var oldC [memline.WordCells]pcm.State
	for c := g.dataCells; c < memline.WordCells; c++ {
		oldC[c] = pcm.PlaneState(oldLo, oldHi, c)
	}

	last := len(g.blocks) - 1
	var ev [wlcrcMaxBlocks]blockEval
	for b, rng := range g.blocks {
		mask := coset.CellMask(rng[0], rng[1]-rng[0])
		e := &ev[b]
		e.cost[0], e.upd[0] = s.swar1.CostCount(&p, mask)
		e.cost[1], e.upd[1] = s.swarAlt[0].CostCount(&p, mask)
		e.cost[2], e.upd[2] = s.swarAlt[1].CostCount(&p, mask)
		if b == last && g.auxCell > g.dataCells {
			// The mixed cell: the block's last data bit under its
			// candidate bit, through C1.
			cell := g.dataCells
			st := oldC[cell]
			dataBit := uint8(word >> uint(2*cell) & 1)
			e.cost[0] += s.tab1.Cost[st][dataBit]
			e.upd[0] += int(s.tab1.Update[st][dataBit])
			caCost := s.tab1.Cost[st][2|dataBit]
			caUpd := int(s.tab1.Update[st][2|dataBit])
			e.cost[1] += caCost
			e.upd[1] += caUpd
			e.cost[2] += caCost
			e.upd[2] += caUpd
		}
		if s.wdLambda > 0 {
			for i, t := range [3]*coset.SWARTable{&s.swar1, &s.swarAlt[0], &s.swarAlt[1]} {
				lo, hi := t.Apply(&p)
				e.cost[i] += s.wdLambda * s.disturbRisk(lo, hi, oldLo, oldHi, mask)
			}
		}
	}
	plan := s.planFromEvals(0, &ev, &oldC)
	if p13 := s.planFromEvals(1, &ev, &oldC); beats(plan.cost, plan.updates, p13.cost, p13.updates, s.multiT) {
		plan = p13
	}

	// Commit: masked plane selection per block.
	alt := &s.swarAlt[plan.aux>>wlcrcGroupBit]
	var nlo, nhi uint64
	for b, rng := range g.blocks {
		t := &s.swar1
		if plan.aux>>g.candBit[b]&1 == 1 {
			t = alt
		}
		lo, hi := t.Apply(&p)
		mask := coset.CellMask(rng[0], rng[1]-rng[0])
		nlo |= lo & mask
		nhi |= hi & mask
	}
	// The tail, every cell from dataCells on, stores through C1 the
	// word's payload bits there (the mixed cell's data bit) under the
	// plan's aux bits.
	aw := word&(^uint64(0)>>uint(g.reclaim)) | plan.aux
	top := uint64(c1Top[aw>>56])
	tail := coset.AllCells &^ coset.CellMask(0, g.dataCells)
	return nlo | top&0xF<<28&tail, nhi | top>>4<<28&tail
}

// c1Top and c1InvTop map the word's top four cells (28-31), which hold
// every granularity's tail, through C1 and back: c1Top from their
// symbols, word bits 56-63, to their states as a lo-plane nibble under
// a hi-plane nibble; c1InvTop the reverse.
var c1Top, c1InvTop = func() (fwd, inv [256]uint8) {
	for v := 0; v < 256; v++ {
		var planes uint8
		for c := 0; c < 4; c++ {
			st := uint8(coset.C1[v>>(2*c)&3])
			planes |= st&1<<c | st>>1<<(4+c)
		}
		fwd[v], inv[planes] = planes, uint8(v)
	}
	return fwd, inv
}()

// DecodePlanesInto implements PlaneScheme.
func (s *WLCRC) DecodePlanesInto(planes []uint64, dst *memline.Line) {
	if tailFlag(planes) != flagCompressed {
		rawDecodePlanes(planes, dst)
		return
	}
	for w := 0; w < memline.LineWords; w++ {
		dst.SetWord(w, s.decodeWordPlanes(planes[2*w], planes[2*w+1]))
	}
}

// decodeWordPlanes inverts encodeWordPlanes: the cells from dataCells on
// decode through C1 to the word's bits there (aux bits included), which
// name each block's mapping.
func (s *WLCRC) decodeWordPlanes(slo, shi uint64) uint64 {
	g := &s.geom
	top := uint64(c1InvTop[slo>>28&0xF|shi>>28&0xF<<4]) << 56 // word bits 56-63
	if s.gran == 64 {
		idx := top >> 62
		if idx > 2 {
			idx = 0
		}
		lo, hi := s.swar64[idx].ApplyInvPlanes(slo, shi)
		mask := coset.CellMask(0, g.dataCells)
		return s.wlc.DecompressWord(memline.InterleavePlanes(lo&mask, hi&mask))
	}
	aw := top & (^uint64(0) << uint(2*g.dataCells))
	alt := &s.swarAlt[aw>>wlcrcGroupBit]
	var dlo, dhi uint64
	for b, rng := range g.blocks {
		t := &s.swar1
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
