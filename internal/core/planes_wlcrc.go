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
	if s.lanes != nil {
		s.encodeLanes(dst, old, data)
	} else {
		for w := 0; w < memline.LineWords; w++ {
			dst[2*w], dst[2*w+1] = s.encodeWordPlanes(data.Word(w), old[2*w], old[2*w+1])
		}
	}
	setTailFlag(dst, flagCompressed)
}

// encodeLanes encodes the words of a compressible line two to a pair
// register under λ = T = 0 and an integer model, the software form of
// the paper's parallel comparator tree (§VI.B). The lane kernel prices
// C1, C2 and C3 over every block of the register; the mixed cell's C1
// cost joins its word's last block lane; each block takes the group's
// alternate where that is strictly cheaper than C1 (a lane compare);
// each word takes group {C1,C3} where its block minima plus the
// pure-aux cells' cost are strictly cheaper than {C1,C2}'s. The
// integer costs equal the float planner's sums exactly, so the plans
// are the ones encodeWordPlanes makes.
func (s *WLCRC) encodeLanes(dst, old []uint64, data *memline.Line) {
	g, geo := s.lanes, &s.geom
	nb := len(geo.blocks)
	mixed := geo.auxCell > geo.dataCells
	dataMask := coset.CellMask(0, geo.dataCells)
	var p coset.Regs
	p.Load(data, old)
	for r := 0; r < coset.MaxRegs; r++ {
		var c [3]coset.LaneCosts
		for i := range c {
			g.LaneCosts(&c[i], &s.swar[i], &p, r)
		}
		if mixed {
			// The mixed cell stores the word's last data bit under the
			// last block's candidate bit, through C1.
			cell := uint(geo.dataCells)
			for h := 0; h < 2; h++ {
				w := 2*r + h
				st := old[2*w]>>cell&1 | old[2*w+1]>>cell&1<<1
				bit := data.Word(w) >> (2 * cell) & 1
				b := (w+1)*nb - 1
				g.AddLane(&c[0], b, s.c1Int[st][bit])
				g.AddLane(&c[1], b, s.c1Int[st][2|bit])
				g.AddLane(&c[2], b, s.c1Int[st][2|bit])
			}
		}
		var lo, hi [3]uint64 // the register's data through C1, C2, C3
		for i := range lo {
			lo[i], hi[i] = s.swar[i].ApplySyms(&p.Sym[r])
		}
		// Per group and word: the block minima's sum and which blocks
		// take the alternate.
		var sum [2][2]int
		var pick [2][2]uint8
		for grp := range sum {
			lt := g.LaneLess(&c[grp+1], &c[0])
			var mn coset.LaneCosts
			for k := range mn {
				mn[k] = c[0][k] ^ (c[0][k]^c[grp+1][k])&lt[k]
			}
			sum[grp][0], sum[grp][1] = g.WordSums(&mn)
			pick[grp][0], pick[grp][1] = g.WordPicks(&lt)
		}
		for h := 0; h < 2; h++ {
			w := 2*r + h
			olo, ohi := old[2*w], old[2*w+1]
			var cost [2]int
			var aux [2]uint64
			for grp := range cost {
				aux[grp] = s.auxOf[pick[grp][h]] | uint64(grp)<<wlcrcGroupBit
				cost[grp] = sum[grp][h]
				for cell := geo.auxCell; cell < memline.WordCells; cell++ {
					st := olo>>uint(cell)&1 | ohi>>uint(cell)&1<<1
					cost[grp] += s.c1Int[st][aux[grp]>>uint(2*cell)&3]
				}
			}
			grp := 0
			if cost[1] < cost[0] {
				grp = 1
			}
			sh := uint(32 * h)
			m := s.maskOf[pick[grp][h]]
			nlo := (lo[0]>>sh&^m | lo[1+grp]>>sh&m) & dataMask
			nhi := (hi[0]>>sh&^m | hi[1+grp]>>sh&m) & dataMask
			tlo, thi := s.tailPlanes(data.Word(w), aux[grp])
			dst[2*w], dst[2*w+1] = nlo|tlo, nhi|thi
		}
	}
}

// tailPlanes returns the state planes of a word's tail, every cell from
// dataCells on, which store through C1 the word's payload bits there
// (the mixed cell's data bit) under the plan's aux bits.
func (s *WLCRC) tailPlanes(word, aux uint64) (lo, hi uint64) {
	g := &s.geom
	aw := word&(^uint64(0)>>uint(g.reclaim)) | aux
	top := uint64(c1Top[aw>>56])
	tail := coset.AllCells &^ coset.CellMask(0, g.dataCells)
	return top & 0xF << 28 & tail, top >> 4 << 28 & tail
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
		idx, _ := coset.BestSWAR(s.swar, &p, mask)
		lo, hi := s.swar[idx].Apply(&p)
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
		e.cost[0], e.upd[0] = s.swar[0].CostCount(&p, mask)
		e.cost[1], e.upd[1] = s.swar[1].CostCount(&p, mask)
		e.cost[2], e.upd[2] = s.swar[2].CostCount(&p, mask)
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
			for i := range s.swar {
				lo, hi := s.swar[i].Apply(&p)
				e.cost[i] += float64(s.wdLambda * s.disturbRisk(lo, hi, oldLo, oldHi, mask))
			}
		}
	}
	plan := s.planFromEvals(0, &ev, &oldC)
	if p13 := s.planFromEvals(1, &ev, &oldC); beats(plan.cost, plan.updates, p13.cost, p13.updates, s.multiT) {
		plan = p13
	}

	// Commit: masked plane selection per block.
	alt := &s.swar[1+plan.aux>>wlcrcGroupBit]
	var nlo, nhi uint64
	for b, rng := range g.blocks {
		t := &s.swar[0]
		if plan.aux>>g.candBit[b]&1 == 1 {
			t = alt
		}
		lo, hi := t.Apply(&p)
		mask := coset.CellMask(rng[0], rng[1]-rng[0])
		nlo |= lo & mask
		nhi |= hi & mask
	}
	tlo, thi := s.tailPlanes(word, plan.aux)
	return nlo | tlo, nhi | thi
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
// name each block's mapping. Every cell is inverted through C1 (closed
// form) and through the word's group alternate once; the candidate bits
// then select, through altCells, which cells take the alternate.
func (s *WLCRC) decodeWordPlanes(slo, shi uint64) uint64 {
	g := &s.geom
	top := uint64(c1InvTop[slo>>28&0xF|shi>>28&0xF<<4]) << 56 // word bits 56-63
	mask := coset.CellMask(0, g.dataCells)
	var aw, m uint64
	alt := 1
	if s.gran == 64 {
		if idx := int(top >> 62); idx == 1 || idx == 2 {
			alt, m = idx, mask
		}
	} else {
		aw = top & (^uint64(0) << uint(2*g.dataCells))
		alt += int(aw >> wlcrcGroupBit)
		m = s.altCells[aw>>56&0x7F]
	}
	alo, ahi := s.swar[alt].ApplyInvPlanes(slo, shi)
	dlo := (shi&^m | alo&m) & mask
	dhi := ((slo^shi)&^m | ahi&m) & mask
	return s.wlc.DecompressWord(memline.InterleavePlanes(dlo, dhi) | aw)
}
