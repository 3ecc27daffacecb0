package core

import (
	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
)

// Plane-native WLCRC codec. The per-word pipeline — block evals, the
// two group plans, the multi-objective tie-breaks — reads the word's old
// states as a plane pair and emits the committed states as one. The
// handful of cells the planner reads individually (the mixed cell and
// the pure-aux tail) are extracted from the old planes into a stack
// array of states, which planFromEvals reads.

// wordState reads cell c's state out of one word's (lo, hi) plane pair.
func wordState(lo, hi uint64, c int) pcm.State {
	return pcm.State((lo>>uint(c))&1 | ((hi>>uint(c))&1)<<1)
}

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
	if s.wdLambda > 0 {
		s.encodeLineScalar(dst, old, data)
		return
	}
	for w := 0; w < memline.LineWords; w++ {
		dst[2*w], dst[2*w+1] = s.encodeWordPlanes(data.Word(w), old[2*w], old[2*w+1])
	}
	setTailFlag(dst, flagCompressed)
}

// encodeLineScalar encodes a compressible line on the per-cell path:
// the §XI disturbance-aware pricing reads neighbor exposure cell by
// cell, so the line is unpacked once, each word planned by
// encodeWordScalar, and the result repacked.
func (s *WLCRC) encodeLineScalar(dst, old []uint64, data *memline.Line) {
	var oldC, newC [memline.LineCells + 1]pcm.State
	coset.UnpackLine(old, oldC[:])
	for w := 0; w < memline.LineWords; w++ {
		lo, hi := w*memline.WordCells, (w+1)*memline.WordCells
		s.encodeWordScalar(data.Word(w), oldC[lo:hi], newC[lo:hi])
	}
	newC[memline.LineCells] = flagCompressed
	coset.PackLine(newC[:], dst)
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
		oldC[c] = wordState(oldLo, oldHi, c)
	}

	var ev [wlcrcMaxBlocks]blockEval
	for b, rng := range g.blocks {
		mask := coset.CellMask(rng[0], rng[1]-rng[0])
		e := &ev[b]
		e.cost[0], e.upd[0] = s.swar1.CostCount(&p, mask)
		e.cost[1], e.upd[1] = s.swarAlt[0].CostCount(&p, mask)
		e.cost[2], e.upd[2] = s.swarAlt[1].CostCount(&p, mask)
		if g.mixed && b == len(g.blocks)-1 {
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
	}
	p12 := s.planFromEvals(0, &ev, oldC[:])
	p13 := s.planFromEvals(1, &ev, oldC[:])
	plan := s.pickPlan(&p12, &p13)

	// Commit: masked plane selection per block, then the mixed and aux
	// cells OR their C1-mapped symbols into the (still zero) tail bits.
	alt := &s.swarAlt[plan.group]
	var nlo, nhi uint64
	for b, rng := range g.blocks {
		t := &s.swar1
		if plan.cands[b] == 1 {
			t = alt
		}
		lo, hi := t.Apply(&p)
		mask := coset.CellMask(rng[0], rng[1]-rng[0])
		nlo |= lo & mask
		nhi |= hi & mask
	}
	if g.mixed {
		cell := g.dataCells
		st := coset.C1[plan.cands[len(g.blocks)-1]<<1|uint8(word>>uint(2*cell))&1]
		nlo |= uint64(st&1) << uint(cell)
		nhi |= uint64(st>>1) << uint(cell)
	}
	var aux [wlcrcMaxAux]uint8
	nAux := s.auxSymbols(&plan.cands, plan.group, &aux)
	first := s.firstAuxCell()
	for i := 0; i < nAux; i++ {
		st := coset.C1[aux[i]]
		nlo |= uint64(st&1) << uint(first+i)
		nhi |= uint64(st>>1) << uint(first+i)
	}
	return nlo, nhi
}

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

func (s *WLCRC) decodeWordPlanes(slo, shi uint64) uint64 {
	g := &s.geom

	if s.gran == 64 {
		idx := int(coset.C1Inv[wordState(slo, shi, 31)])
		if idx > 2 {
			idx = 0
		}
		lo, hi := s.swar64[idx].ApplyInvPlanes(slo, shi)
		mask := coset.CellMask(0, g.dataCells)
		return s.wlc.DecompressWord(memline.InterleavePlanes(lo&mask, hi&mask))
	}

	var cands [wlcrcMaxBlocks]uint8
	group, mixedData := s.readAuxPlanes(slo, shi, &cands)
	alt := &s.swarAlt[group]
	var dlo, dhi uint64
	for b, rng := range g.blocks {
		t := &s.swar1
		if cands[b] == 1 {
			t = alt
		}
		lo, hi := t.ApplyInvPlanes(slo, shi)
		mask := coset.CellMask(rng[0], rng[1]-rng[0])
		dlo |= lo & mask
		dhi |= hi & mask
	}
	word := memline.InterleavePlanes(dlo, dhi)
	if g.mixed {
		word |= uint64(mixedData) << (uint(g.dataCells) * 2)
	}
	return s.wlc.DecompressWord(word)
}

// readAuxPlanes recovers the candidate bits, group bit, and (for mixed
// layouts) the mixed cell's data bit from the C1-mapped auxiliary cells
// of the word's plane pair.
func (s *WLCRC) readAuxPlanes(slo, shi uint64, cands *[wlcrcMaxBlocks]uint8) (group, mixedData uint8) {
	inv := &coset.C1Inv
	switch s.gran {
	case 8:
		a := [4]uint8{
			inv[wordState(slo, shi, 28)], inv[wordState(slo, shi, 29)],
			inv[wordState(slo, shi, 30)], inv[wordState(slo, shi, 31)],
		}
		cands[0], cands[1] = a[0]&1, a[0]>>1
		cands[2], cands[3] = a[1]&1, a[1]>>1
		cands[4], cands[5] = a[2]&1, a[2]>>1
		cands[6], group = a[3]&1, a[3]>>1
	case 16:
		mixedSym := inv[wordState(slo, shi, 29)]
		mixedData = mixedSym & 1
		cands[3] = mixedSym >> 1
		a30, a31 := inv[wordState(slo, shi, 30)], inv[wordState(slo, shi, 31)]
		cands[2], cands[1] = a30&1, a30>>1
		cands[0], group = a31&1, a31>>1
	case 32:
		mixedSym := inv[wordState(slo, shi, 30)]
		mixedData = mixedSym & 1
		cands[1] = mixedSym >> 1
		a31 := inv[wordState(slo, shi, 31)]
		cands[0], group = a31&1, a31>>1
	}
	return group, mixedData
}
