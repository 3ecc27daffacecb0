package core

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

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
// Per-word layout by granularity (wlcrcGeoms holds it as data). Cells
// that carry auxiliary bits are always stored through the fixed C1
// mapping so the decoder can read them before it knows any block's
// mapping:
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
//
// One plane codec (planes_wlcrc.go) encodes every configuration. The
// §VIII.D threshold (Config.MultiObjectiveT) changes how near-ties are
// broken (beats), and the §XI weight (Config.DisturbAwareLambda) adds
// each candidate's disturbance risk to its block cost (disturbRisk);
// WLCRC-64 has no group choice and ignores both.
type WLCRC struct {
	displayName string
	gran        int
	wlc         compress.WLC
	multiT      float64
	wdLambda    float64
	dm          pcm.DisturbModel
	geom        wlcrcGeom
	// swar[0] prices and applies the fixed C1 mapping, swar[1] and
	// swar[2] the group alternates C2 and C3; the three are also the
	// unrestricted candidates of the granularity-64 degenerate case.
	// tab1 prices C1 one cell at a time, for the mixed cell and the
	// pure-aux cells.
	tab1 coset.CostTable
	swar []coset.SWARTable
	// lanes is the line's block geometry, every word's blocks, when the
	// lane kernel plans the words (encodeLanes): λ = T = 0 and an
	// integer model that fits the lanes; nil otherwise. For that path,
	// c1Int is tab1's cost in integers, and for a bitmap of a word's
	// blocks that take the group's alternate (block j at bit j, which is
	// also its lane), auxOf holds their candidate bits and maskOf their
	// cells.
	lanes  *coset.Blocks
	c1Int  [pcm.NumStates][4]int
	auxOf  [1 << wlcrcMaxBlocks]uint64
	maskOf [1 << wlcrcMaxBlocks]uint64
	// altCells maps a stored word's bits 56-62 — every restricted
	// granularity's candidate bits — to the cells of the blocks whose
	// bit names the group's alternate, for the decoder.
	altCells [1 << wlcrcMaxBlocks]uint64
}

// wlcrcMaxBlocks bounds the per-word block count (7 at granularity 8)
// for the fixed-size eval scratch.
const wlcrcMaxBlocks = 7

// wlcrcGroupBit is the bit of the stored word that holds the group (0 =
// {C1,C2}, 1 = {C1,C3}) at every restricted granularity.
const wlcrcGroupBit = 63

// wlcrcGeom captures the per-word layout of one granularity. Bits of the
// word from 64-reclaim up are auxiliary; from dataCells on, the cells
// hold the word's bits through C1, so the decoder reads the aux bits
// (and the mixed cell's data bit) from them directly.
type wlcrcGeom struct {
	reclaim   int      // bits reclaimed by WLC (k-1)
	dataCells int      // count of cells that are pure data (0..dataCells-1)
	auxCell   int      // first cell holding aux bits only; a cell before it, from dataCells on, is mixed
	blocks    [][2]int // [lo,hi) pure-data cell ranges per block
	// candBit[b] is the bit of the word holding block b's candidate bit
	// (0 = C1, 1 = the group's alternate). A mixed cell's aux bit is the
	// last block's.
	candBit []uint
}

var wlcrcGeoms = map[int]wlcrcGeom{
	8: {
		reclaim:   8,
		dataCells: 28,
		auxCell:   28,
		blocks:    [][2]int{{0, 4}, {4, 8}, {8, 12}, {12, 16}, {16, 20}, {20, 24}, {24, 28}},
		candBit:   []uint{56, 57, 58, 59, 60, 61, 62},
	},
	16: {
		reclaim:   5,
		dataCells: 29,
		auxCell:   30,
		blocks:    [][2]int{{0, 8}, {8, 16}, {16, 24}, {24, 29}},
		candBit:   []uint{62, 61, 60, 59},
	},
	32: {
		reclaim:   3,
		dataCells: 30,
		auxCell:   31,
		blocks:    [][2]int{{0, 16}, {16, 30}},
		candBit:   []uint{62, 61},
	},
	64: { // bits 62, 63: the index of the unrestricted candidate
		reclaim:   2,
		dataCells: 31,
		auxCell:   31,
		blocks:    [][2]int{{0, 31}},
	},
}

// NewWLCRC builds a WLCRC scheme at block granularity 8, 16, 32 or 64
// bits. The default evaluation configuration is 16 (WLCRC-16). A
// nonzero cfg.MultiObjectiveT enables the §VIII.D multi-objective
// tie-break and a nonzero cfg.DisturbAwareLambda the §XI disturbance
// pricing. Both are reflected in the scheme name, e.g.
// WLCRC-16(T=1%,WD=500), so two configurations that encode differently
// never share a name; WLCRC-64 ignores both (its one block has no
// restricted choice to tie-break or price) and is always WLCRC-64.
func NewWLCRC(cfg Config, gran int) (*WLCRC, error) {
	geom, ok := wlcrcGeoms[gran]
	if !ok {
		return nil, fmt.Errorf("core: WLCRC granularity %d not in {8,16,32,64}", gran)
	}
	var opts []string
	if gran != 64 {
		if cfg.MultiObjectiveT > 0 {
			opts = append(opts, fmt.Sprintf("T=%g%%", cfg.MultiObjectiveT*100))
		}
		if cfg.DisturbAwareLambda > 0 {
			opts = append(opts, fmt.Sprintf("WD=%g", cfg.DisturbAwareLambda))
		}
	}
	name := fmt.Sprintf("WLCRC-%d", gran)
	if len(opts) > 0 {
		name += "(" + strings.Join(opts, ",") + ")"
	}
	dm := cfg.Disturb
	if dm.DER == ([pcm.NumStates]float64{}) {
		dm = pcm.DefaultDisturb()
	}
	s := &WLCRC{
		displayName: name,
		gran:        gran,
		wlc:         compress.WLC{K: geom.reclaim + 1},
		multiT:      cfg.MultiObjectiveT,
		wdLambda:    cfg.DisturbAwareLambda,
		dm:          dm,
		geom:        geom,
		tab1:        coset.C1.CostTable(&cfg.Energy),
		swar:        coset.SWARTables(&cfg.Energy, coset.Table1[:3]),
	}
	for v := range s.altCells {
		for j, bit := range geom.candBit {
			if uint64(v)<<56>>bit&1 == 1 {
				rng := geom.blocks[j]
				s.altCells[v] |= coset.CellMask(rng[0], rng[1]-rng[0])
			}
		}
	}
	if gran == 64 || cfg.MultiObjectiveT > 0 || cfg.DisturbAwareLambda > 0 {
		return s, nil
	}
	var ranges [][2]int
	for w := 0; w < memline.LineWords; w++ {
		for _, rng := range geom.blocks {
			ranges = append(ranges, [2]int{w*memline.WordCells + rng[0], w*memline.WordCells + rng[1]})
		}
	}
	if g := coset.NewBlocks(ranges); g.LanesFit(s.swar) {
		s.lanes = g
		for st := range s.c1Int {
			for v := range s.c1Int[st] {
				s.c1Int[st][v] = int(s.tab1.Cost[st][v])
			}
		}
		for set := 0; set < 1<<len(geom.blocks); set++ {
			for j, rng := range geom.blocks {
				if set>>j&1 == 1 {
					s.auxOf[set] |= 1 << geom.candBit[j]
					s.maskOf[set] |= coset.CellMask(rng[0], rng[1]-rng[0])
				}
			}
		}
	}
	return s, nil
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

// wordPlan is a fully-evaluated encoding of one word under one group:
// its aux bits (candidate bits and group bit, at their word positions),
// cost and programmed cells.
type wordPlan struct {
	cost    float64
	updates int
	aux     uint64
}

// blockEval caches one block's cost/updates under C1, C2 and C3 (the
// candidate-bit contribution of a mixed cell and the §XI risk folded
// in).
type blockEval struct {
	cost [3]float64
	upd  [3]int
}

// beats reports whether the encoding priced (bCost, bUpd) — energy and
// programmed cells — beats the one priced (aCost, aUpd): the cheaper
// wins and a wins ties, except that under the §VIII.D threshold T a
// near-tie (costs within T of the larger) goes to fewer programmed
// cells, then to the cheaper.
func beats(aCost float64, aUpd int, bCost float64, bUpd int, T float64) bool {
	if T > 0 {
		hi := max(aCost, bCost)
		if hi > 0 && math.Abs(aCost-bCost) <= T*hi {
			return bUpd < aUpd || (bUpd == aUpd && bCost < aCost)
		}
	}
	return bCost < aCost
}

// planFromEvals is Algorithm 1 for one coset group (0 = {C1,C2},
// 1 = {C1,C3}) over the cached block evals: every block picks C1 or the
// group's alternate by beats, and the plan cost adds the pure-aux cells
// its aux bits program over their old states (oldC, cells auxCell on).
func (s *WLCRC) planFromEvals(group uint8, ev *[wlcrcMaxBlocks]blockEval, oldC *[memline.WordCells]pcm.State) wordPlan {
	g := &s.geom
	plan := wordPlan{aux: uint64(group) << wlcrcGroupBit}
	alt := int(group) + 1
	for b := range g.blocks {
		e := &ev[b]
		if beats(e.cost[0], e.upd[0], e.cost[alt], e.upd[alt], s.multiT) {
			plan.aux |= 1 << g.candBit[b]
			plan.cost += e.cost[alt]
			plan.updates += e.upd[alt]
		} else {
			plan.cost += e.cost[0]
			plan.updates += e.upd[0]
		}
	}
	for c := g.auxCell; c < memline.WordCells; c++ {
		st, sym := oldC[c], plan.aux>>uint(2*c)&3
		plan.cost += s.tab1.Cost[st][sym]
		plan.updates += int(s.tab1.Update[st][sym])
	}
	return plan
}

// disturbRisk is the §XI estimate of the disturbance errors a block's
// write invites, for new state planes (nlo, nhi) over old (olo, ohi)
// within block mask m: a programmed cell adds half the DER of the state
// it is left in (its exposure to later neighbouring writes), and an
// idle cell next to a programmed one in the block adds the DER of the
// state it holds. Terms add in ascending cell order.
func (s *WLCRC) disturbRisk(nlo, nhi, olo, ohi, m uint64) float64 {
	ch := ((nlo ^ olo) | (nhi ^ ohi)) & m
	ex := (ch<<1 | ch>>1) & m &^ ch
	var risk float64
	for set := ch | ex; set != 0; set &= set - 1 {
		c := uint(bits.TrailingZeros64(set))
		if ch>>c&1 == 1 {
			risk += float64(0.5 * s.dm.DER[nlo>>c&1|nhi>>c&1<<1])
		} else {
			risk += s.dm.DER[olo>>c&1|ohi>>c&1<<1]
		}
	}
	return risk
}
