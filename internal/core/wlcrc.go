package core

import (
	"fmt"

	"wlcrc/internal/compress"
	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
)

// WLCRC is the paper's contribution (§VI): Word-Level Compression
// integrated with Restricted Coset coding. When every 64-bit word of the
// line is WLC-compressible, each word is encoded independently: its data
// blocks all use candidates from one per-word group — {C1,C2} or {C1,C3}
// — selected by Algorithm 1, with one candidate bit per block and one
// group bit stored in the word's reclaimed field. Incompressible lines
// (fewer than 9% of writes on the paper's workloads) are written raw; a
// global flag cell tells the two cases apart.
//
// Per-word layout by granularity (DESIGN.md §3). Cells that carry
// auxiliary bits are always stored through the fixed C1 mapping so the
// decoder can read them before it knows any block's mapping:
//
//	WLCRC-16 (reclaim r=5, WLC k=6):
//	    blocks: cells 0-7, 8-15, 16-23, 24-28 (+ data bit b58 in cell 29)
//	    b59=cand3 b60=cand2 b61=cand1 b62=cand0 b63=group
//	    cell29=(b59,b58) mixed; cells 30,31 pure aux
//	WLCRC-32 (r=3, k=4):
//	    blocks: cells 0-15, 16-29 (+ data bit b60 in cell 30)
//	    b61=cand1 b62=cand0 b63=group
//	WLCRC-8 (r=8, k=9):
//	    blocks: 7 x 4 cells (bits b0..b55); b56..b62=cand0..6, b63=group
//	WLCRC-64 (r=2, k=3): identical to unrestricted 3cosets on the word:
//	    one block, cells 0-30 (bits b0..b61); b62,b63 = candidate index
type WLCRC struct {
	displayName string
	em          pcm.EnergyModel
	gran        int
	wlc         compress.WLC
	multiT      float64
	wdLambda    float64
	dm          pcm.DisturbModel
	geom        wlcrcGeom
	// tab1 prices the fixed C1 mapping (data blocks and every aux
	// cell); tabAlt[0] and tabAlt[1] price the group alternates C2 and
	// C3. tab64 holds the three unrestricted candidates of the
	// granularity-64 degenerate case. The swar* fields are their
	// word-parallel bit-plane counterparts; the scalar tables remain the
	// single-cell path (mixed cell, aux cells) and the per-cell §XI
	// disturbance-aware path.
	tab1   coset.CostTable
	tabAlt [2]coset.CostTable
	tab64  []coset.CostTable

	swar1   coset.SWARTable
	swarAlt [2]coset.SWARTable
	swar64  []coset.SWARTable
}

// wlcrcMaxBlocks bounds the per-word block count (7 at granularity 8)
// for the fixed-size plan scratch.
const wlcrcMaxBlocks = 7

// wlcrcMaxAux bounds the pure-aux cells per word (4 at granularity 8).
const wlcrcMaxAux = 4

// wlcrcGeom captures the per-word layout of one granularity.
type wlcrcGeom struct {
	reclaim   int      // bits reclaimed by WLC (k-1)
	dataCells int      // count of cells that are pure data (0..dataCells-1)
	mixed     bool     // cell dataCells carries one data bit (lo) + one aux bit (hi)
	blocks    [][2]int // [lo,hi) pure-data cell ranges per block
	// When mixed, the owning block is the last one; its candidate bit is
	// the aux (hi) bit of the mixed cell.
}

var wlcrcGeoms = map[int]wlcrcGeom{
	8: {
		reclaim:   8,
		dataCells: 28,
		blocks:    [][2]int{{0, 4}, {4, 8}, {8, 12}, {12, 16}, {16, 20}, {20, 24}, {24, 28}},
	},
	16: {
		reclaim:   5,
		dataCells: 29,
		mixed:     true,
		blocks:    [][2]int{{0, 8}, {8, 16}, {16, 24}, {24, 29}},
	},
	32: {
		reclaim:   3,
		dataCells: 30,
		mixed:     true,
		blocks:    [][2]int{{0, 16}, {16, 30}},
	},
	64: {
		reclaim:   2,
		dataCells: 31,
		blocks:    [][2]int{{0, 31}},
	},
}

// NewWLCRC builds a WLCRC scheme at block granularity 8, 16, 32 or 64
// bits. The default evaluation configuration is 16 (WLCRC-16). If
// cfg.MultiObjectiveT is nonzero, the §VIII.D multi-objective group
// selection is enabled and reflected in the scheme name.
func NewWLCRC(cfg Config, gran int) (*WLCRC, error) {
	geom, ok := wlcrcGeoms[gran]
	if !ok {
		return nil, fmt.Errorf("core: WLCRC granularity %d not in {8,16,32,64}", gran)
	}
	name := fmt.Sprintf("WLCRC-%d", gran)
	if cfg.MultiObjectiveT > 0 {
		name = fmt.Sprintf("WLCRC-%d(T=%g%%)", gran, cfg.MultiObjectiveT*100)
	}
	if cfg.DisturbAwareLambda > 0 {
		name = fmt.Sprintf("WLCRC-%d(WD)", gran)
	}
	dm := cfg.Disturb
	if dm.DER == ([pcm.NumStates]float64{}) {
		dm = pcm.DefaultDisturb()
	}
	return &WLCRC{
		displayName: name,
		em:          cfg.Energy,
		gran:        gran,
		wlc:         compress.WLC{K: geom.reclaim + 1},
		multiT:      cfg.MultiObjectiveT,
		wdLambda:    cfg.DisturbAwareLambda,
		dm:          dm,
		geom:        geom,
		tab1:        coset.C1.CostTable(&cfg.Energy),
		tabAlt:      [2]coset.CostTable{coset.C2.CostTable(&cfg.Energy), coset.C3.CostTable(&cfg.Energy)},
		tab64:       coset.CostTables(&cfg.Energy, coset.Table1[:3]),
		swar1:       coset.C1.SWAR(&cfg.Energy),
		swarAlt:     [2]coset.SWARTable{coset.C2.SWAR(&cfg.Energy), coset.C3.SWAR(&cfg.Energy)},
		swar64:      coset.SWARTables(&cfg.Energy, coset.Table1[:3]),
	}, nil
}

// Name implements Scheme.
func (s *WLCRC) Name() string { return s.displayName }

// Compressible reports whether WLC can reclaim this granularity's
// auxiliary field in every word of the line.
func (s *WLCRC) Compressible(data *memline.Line) bool {
	return s.wlc.LineCompressible(data)
}

// TotalCells implements Scheme: auxiliary bits live inside the words;
// only the compression flag cell is extra (<0.4% overhead, §VI.A).
func (s *WLCRC) TotalCells() int { return memline.LineCells + 1 }

// DataCells implements Scheme.
func (s *WLCRC) DataCells() int { return memline.LineCells }

// AuxCellsPerWord returns how many trailing cells of each word hold only
// auxiliary bits when the line is compressed (the mixed cell counts as
// data).
func (s *WLCRC) AuxCellsPerWord() int {
	n := memline.WordCells - s.geom.dataCells
	if s.geom.mixed {
		n--
	}
	return n
}

// wordPlan is a fully-evaluated encoding of one word under one group.
type wordPlan struct {
	cost    float64
	updates int
	cands   [wlcrcMaxBlocks]uint8 // candidate bit per block
	group   uint8
}

// blockEval caches one block's cost/updates under C1, C2 and C3 (the
// candidate-bit contribution of a mixed cell folded in).
type blockEval struct {
	cost [3]float64
	upd  [3]int
}

// planFromEvals assembles Algorithm 1's plan for one coset group
// (0 = {C1,C2}, 1 = {C1,C3}) from the cached block evals, with the same
// per-block pick and §VIII.D multi-objective tie-break as planGroup.
func (s *WLCRC) planFromEvals(group uint8, ev *[wlcrcMaxBlocks]blockEval, old []pcm.State) wordPlan {
	plan := wordPlan{group: group}
	alt := int(group) + 1
	for b := range s.geom.blocks {
		c1Cost, c1Upd := ev[b].cost[0], ev[b].upd[0]
		caCost, caUpd := ev[b].cost[alt], ev[b].upd[alt]
		pickAlt := caCost < c1Cost
		if s.multiT > 0 {
			hi := c1Cost
			if caCost > hi {
				hi = caCost
			}
			diff := c1Cost - caCost
			if diff < 0 {
				diff = -diff
			}
			if hi > 0 && diff <= s.multiT*hi {
				pickAlt = caUpd < c1Upd || (caUpd == c1Upd && caCost < c1Cost)
			}
		}
		if pickAlt {
			plan.cands[b] = 1
			plan.cost += caCost
			plan.updates += caUpd
		} else {
			plan.cost += c1Cost
			plan.updates += c1Upd
		}
	}
	// Pure auxiliary cells.
	var aux [wlcrcMaxAux]uint8
	nAux := s.auxSymbols(&plan.cands, plan.group, &aux)
	first := s.firstAuxCell()
	for i := 0; i < nAux; i++ {
		cell := first + i
		st := old[cell]
		plan.cost += s.tab1.Cost[st][aux[i]]
		plan.updates += int(s.tab1.Update[st][aux[i]])
	}
	return plan
}

// encodeWordScalar is the per-cell path the §XI disturbance-aware
// pricing runs on (and the behavioral reference the plane path is
// tested against).
func (s *WLCRC) encodeWordScalar(word uint64, old, out []pcm.State) {
	var syms [memline.WordCells]uint8
	memline.WordSymbols(word, &syms)
	if s.gran == 64 {
		s.encodeWord64Scalar(syms[:], old, out)
		return
	}
	p12 := s.planGroup(0, syms[:], old)
	p13 := s.planGroup(1, syms[:], old)
	s.commit(s.pickPlan(&p12, &p13), syms[:], out)
}

// pickPlan chooses between the two group plans: cheapest wins, except in
// §VIII.D multi-objective mode where near-ties go to the plan that
// programs fewer cells.
func (s *WLCRC) pickPlan(p12, p13 *wordPlan) *wordPlan {
	best := p12
	if p13.cost < best.cost {
		best = p13
	}
	if s.multiT > 0 {
		// §VIII.D: when the two group costs are within T of each other,
		// choose the group that programs fewer cells.
		hi := p12.cost
		if p13.cost > hi {
			hi = p13.cost
		}
		diff := p12.cost - p13.cost
		if diff < 0 {
			diff = -diff
		}
		if hi > 0 && diff <= s.multiT*hi {
			best = p12
			if p13.updates < p12.updates ||
				(p13.updates == p12.updates && p13.cost < p12.cost) {
				best = p13
			}
		}
	}
	return best
}

// planGroup evaluates Algorithm 1 for one coset group (0 = {C1,C2},
// 1 = {C1,C3}): every block picks the cheaper of C1 and the alternate;
// the plan cost includes the auxiliary cells. In multi-objective mode
// (§VIII.D), a block whose two candidate costs are within T of each
// other is decided by updated-cell count instead — the source of the
// paper's endurance gain at negligible energy cost.
func (s *WLCRC) planGroup(group uint8, syms []uint8, old []pcm.State) wordPlan {
	g := &s.geom
	alt := &s.tabAlt[group]
	plan := wordPlan{group: group}
	for b, rng := range g.blocks {
		mixedHere := g.mixed && b == len(g.blocks)-1
		c1Cost, c1Upd := s.blockCost(&s.tab1, 0, mixedHere, syms, old, rng)
		caCost, caUpd := s.blockCost(alt, 1, mixedHere, syms, old, rng)
		pickAlt := caCost < c1Cost
		if s.multiT > 0 {
			hi := c1Cost
			if caCost > hi {
				hi = caCost
			}
			diff := c1Cost - caCost
			if diff < 0 {
				diff = -diff
			}
			if hi > 0 && diff <= s.multiT*hi {
				pickAlt = caUpd < c1Upd || (caUpd == c1Upd && caCost < c1Cost)
			}
		}
		if pickAlt {
			plan.cands[b] = 1
			plan.cost += caCost
			plan.updates += caUpd
		} else {
			plan.cost += c1Cost
			plan.updates += c1Upd
		}
	}
	// Pure auxiliary cells.
	var aux [wlcrcMaxAux]uint8
	nAux := s.auxSymbols(&plan.cands, plan.group, &aux)
	first := s.firstAuxCell()
	for i := 0; i < nAux; i++ {
		cell := first + i
		st := old[cell]
		plan.cost += s.tab1.Cost[st][aux[i]]
		plan.updates += int(s.tab1.Update[st][aux[i]])
	}
	return plan
}

// blockCost prices one block under the candidate table t whose candidate
// bit is candBit, as pure table lookups. When the block owns the mixed
// cell, that cell's C1-mapped symbol (aux hi bit = candBit, lo bit = the
// block's last data bit) is included — this is how the "11-bit most
// significant block" of §VI.A is accounted. With the §XI
// write-disturbance-aware extension enabled, the cost also includes
// wdLambda pJ per expected disturbance error the block's write pattern
// would induce on its idle cells.
func (s *WLCRC) blockCost(t *coset.CostTable, candBit uint8, mixedHere bool, syms []uint8, old []pcm.State, rng [2]int) (float64, int) {
	var cost float64
	updates := 0
	for c := rng[0]; c < rng[1]; c++ {
		st := old[c]
		cost += t.Cost[st][syms[c]]
		updates += int(t.Update[st][syms[c]])
	}
	if mixedHere {
		cell := s.geom.dataCells
		sym := candBit<<1 | syms[cell]&1
		st := old[cell]
		cost += s.tab1.Cost[st][sym]
		updates += int(s.tab1.Update[st][sym])
	}
	if s.wdLambda > 0 {
		var changed [memline.WordCells]bool
		for c := rng[0]; c < rng[1]; c++ {
			changed[c-rng[0]] = t.Update[old[c]][syms[c]] == 1
		}
		cost += s.wdLambda * s.blockDisturbRisk(t.States, syms, old, rng, changed[:rng[1]-rng[0]])
	}
	return cost, updates
}

// blockDisturbRisk estimates the expected disturbance errors within a
// block for a candidate mapping: each idle cell adjacent to a written
// cell contributes DER of the state it will hold, plus a future-
// vulnerability term for written cells left in disturbance-prone states.
func (s *WLCRC) blockDisturbRisk(m coset.Mapping, syms []uint8, old []pcm.State, rng [2]int, changed []bool) float64 {
	var risk float64
	n := rng[1] - rng[0]
	for i := 0; i < n; i++ {
		c := rng[0] + i
		if changed[i] {
			// The written cell's final state determines how vulnerable
			// it is to later neighboring writes.
			risk += 0.5 * s.dm.DER[m[syms[c]]]
			continue
		}
		exposed := (i > 0 && changed[i-1]) || (i < n-1 && changed[i+1])
		if exposed {
			risk += s.dm.DER[old[c]]
		}
	}
	return risk
}

// firstAuxCell returns the index of the first pure-aux cell in a word.
func (s *WLCRC) firstAuxCell() int {
	if s.geom.mixed {
		return s.geom.dataCells + 1
	}
	return s.geom.dataCells
}

// auxSymbols derives the symbols of the pure-aux cells from the
// candidate bits and group bit (layouts in the type comment), writing
// them into dst and returning the count. The mixed cell is handled in
// blockCost.
func (s *WLCRC) auxSymbols(cands *[wlcrcMaxBlocks]uint8, group uint8, dst *[wlcrcMaxAux]uint8) int {
	switch s.gran {
	case 8: // cells 28..31: (c1,c0) (c3,c2) (c5,c4) (group,c6)
		dst[0] = cands[1]<<1 | cands[0]
		dst[1] = cands[3]<<1 | cands[2]
		dst[2] = cands[5]<<1 | cands[4]
		dst[3] = group<<1 | cands[6]
		return 4
	case 16: // cells 30,31: (c1,c2) (group,c0); c3 is in the mixed cell
		dst[0] = cands[1]<<1 | cands[2]
		dst[1] = group<<1 | cands[0]
		return 2
	case 32: // cell 31: (group,c0); c1 is in the mixed cell
		dst[0] = group<<1 | cands[0]
		return 1
	}
	panic("core: auxSymbols on unrestricted granularity")
}

// commit writes the chosen plan's states.
func (s *WLCRC) commit(plan *wordPlan, syms []uint8, out []pcm.State) {
	alt := &s.tabAlt[plan.group]
	g := &s.geom
	for b, rng := range g.blocks {
		m := &s.tab1.States
		if plan.cands[b] == 1 {
			m = &alt.States
		}
		for c := rng[0]; c < rng[1]; c++ {
			out[c] = m[syms[c]]
		}
		if g.mixed && b == len(g.blocks)-1 {
			cell := g.dataCells
			out[cell] = coset.C1[plan.cands[b]<<1|syms[cell]&1]
		}
	}
	var aux [wlcrcMaxAux]uint8
	nAux := s.auxSymbols(&plan.cands, plan.group, &aux)
	first := s.firstAuxCell()
	for i := 0; i < nAux; i++ {
		out[first+i] = coset.C1[aux[i]]
	}
}

// encodeWord64Scalar is the degenerate granularity-64 case on the
// per-cell path: one block per word, unrestricted choice among C1, C2,
// C3, two-bit index in cell 31.
func (s *WLCRC) encodeWord64Scalar(syms []uint8, old, out []pcm.State) {
	rng := s.geom.blocks[0]
	idx, _ := coset.BestTable(s.tab64, syms[rng[0]:rng[1]], old[rng[0]:rng[1]])
	s.tab64[idx].Encode(syms[rng[0]:rng[1]], out[rng[0]:rng[1]])
	out[31] = coset.C1[uint8(idx)]
}
