// Package fault models stuck-at cell failures and the controller-side
// repair pipeline that tolerates them: PCM cells wear out after a
// bounded number of program cycles and freeze at their last-programmed
// state (stuck-at faults), and a production controller layers recourses
// — re-encode retries, ECC correction, line retirement to a spare pool —
// before giving up on a line. The package provides the per-unit fault
// state (Map), the per-line stuck view schemes and ECC consume
// (LineStuck), the interleaved BCH corrector (ECC), and the mergeable
// Stats the replay engine folds into its metrics.
//
// Everything here is deterministic by construction: endurance thresholds
// are drawn by hashing (seed, line, cell, incarnation) rather than by
// consuming a stream, so the draw order — which depends on worker
// scheduling — never affects the values, and a replay's fault history is
// bit-identical for every worker count.
package fault

import (
	"sort"

	"wlcrc/internal/pcm"
	"wlcrc/internal/prng"
)

// defaultCellEndurance mirrors wear.DefaultCellEndurance (1e7 program
// cycles, a representative MLC PCM figure). Kept as a local constant so
// the fault package stays import-cycle-free with internal/wear, whose
// external tests exercise schemes that depend on this package.
const defaultCellEndurance = 1e7

// StuckCell names one stuck-at fault: cell Cell of line Addr reads back
// State regardless of what is programmed. Used to pre-seed manufacturing
// defects into a Map.
type StuckCell struct {
	Addr  uint64
	Cell  int
	State pcm.State
}

// Config enables and parameterizes the stuck-at fault model.
type Config struct {
	// Enabled turns the fault model on. All other fields are ignored
	// (and the replay hot path carries no fault overhead) when false.
	Enabled bool

	// CellEndurance is the mean program-cycle endurance of a cell: once
	// a cell's wear count crosses its drawn threshold it sticks at its
	// last-programmed state. 0 means defaultCellEndurance (1e7).
	CellEndurance uint32
	// EnduranceSpread is the relative half-width of the per-cell
	// threshold draw: thresholds are uniform over
	// [E*(1-spread), E*(1+spread)]. 0 gives every cell exactly
	// CellEndurance cycles.
	EnduranceSpread float64

	// Static pre-seeds stuck-at faults (manufacturing defects) before
	// any write replays. Cells outside a scheme's cell range are
	// ignored for that scheme.
	Static []StuckCell

	// ECCBits is the per-line correctable-bit budget (ECP-style). It is
	// rounded up to whole interleaved ways of the t=2 BCH code, so the
	// effective budget is the next even number. 0 means 4.
	ECCBits int

	// SpareLines is each routing unit's spare-line pool: lines whose stuck
	// cells exceed the ECC budget are retired and remapped to a spare
	// until the pool is empty. 0 means 16.
	SpareLines int

	// MaxRetiredFraction is the graceful-degradation threshold: when a
	// scheme's retired lines exceed this fraction of its touched lines,
	// the run ends with a DegradedError. 0 means 0.25.
	MaxRetiredFraction float64
}

// WithDefaults resolves zero fields to their documented defaults.
func (c Config) WithDefaults() Config {
	if c.CellEndurance == 0 {
		c.CellEndurance = uint32(defaultCellEndurance)
	}
	if c.ECCBits <= 0 {
		c.ECCBits = 4
	}
	if c.SpareLines <= 0 {
		c.SpareLines = 16
	}
	if c.MaxRetiredFraction <= 0 {
		c.MaxRetiredFraction = 0.25
	}
	return c
}

// Stats is the mergeable fault/repair digest of one routing unit (or,
// after merging, one scheme). All counters are monotonic adds except
// FirstRetireSeq, which merges by minimum.
type Stats struct {
	// StuckCells counts cells that ever became stuck, from any source;
	// WearStuck and InjectedStuck are the wear-onset and VnR-injected
	// subsets (the remainder is static pre-seeded faults).
	StuckCells    uint64
	WearStuck     uint64
	InjectedStuck uint64

	// LinesTouched counts distinct lines written under the fault model —
	// the denominator of the retired-line fraction.
	LinesTouched uint64

	// Detected counts writes whose write-verify found at least one
	// stuck cell disagreeing with the intended encode.
	Detected uint64
	// Retries / RetriedOK count stuck-aware re-encode attempts and the
	// ones that found a candidate matching every stuck cell.
	Retries   uint64
	RetriedOK uint64
	// CorrectedWrites / CorrectedBits count writes salvaged by ECC and
	// the total bits the code corrected for them.
	CorrectedWrites uint64
	CorrectedBits   uint64

	// RetiredLines counts lines remapped to the spare pool; RemapHits
	// counts writes that landed on a remapped line (including the
	// retiring write's own replay onto the spare).
	RetiredLines uint64
	RemapHits    uint64

	// Uncorrectable counts writes whose stuck cells exceeded the ECC
	// budget with no spare line left (or VnR residuals beyond the
	// budget) — reads of such lines return corrupted data.
	Uncorrectable uint64

	// FirstRetireSeq is the 1-based global trace sequence number of the
	// first line retirement (0 = none): the unit's writes-to-first-
	// retirement lifetime figure.
	FirstRetireSeq uint64
}

// Merge folds another unit's stats into s.
func (s *Stats) Merge(o Stats) {
	s.StuckCells += o.StuckCells
	s.WearStuck += o.WearStuck
	s.InjectedStuck += o.InjectedStuck
	s.LinesTouched += o.LinesTouched
	s.Detected += o.Detected
	s.Retries += o.Retries
	s.RetriedOK += o.RetriedOK
	s.CorrectedWrites += o.CorrectedWrites
	s.CorrectedBits += o.CorrectedBits
	s.RetiredLines += o.RetiredLines
	s.RemapHits += o.RemapHits
	s.Uncorrectable += o.Uncorrectable
	if o.FirstRetireSeq != 0 && (s.FirstRetireSeq == 0 || o.FirstRetireSeq < s.FirstRetireSeq) {
		s.FirstRetireSeq = o.FirstRetireSeq
	}
}

// RetiredFraction returns retired lines over touched lines (0 when
// nothing was written).
func (s Stats) RetiredFraction() float64 {
	if s.LinesTouched == 0 {
		return 0
	}
	return float64(s.RetiredLines) / float64(s.LinesTouched)
}

// LineStuck is one line's stuck-cell view: States[c] holds cell c's
// frozen state plus one, or 0 when the cell is healthy. The encoding
// keeps the zero value meaningful and the whole view scannable without
// a second presence structure.
type LineStuck struct {
	States []uint8
	N      int
}

// StateOf returns cell c's stuck state, if it is stuck.
func (ls *LineStuck) StateOf(c int) (pcm.State, bool) {
	if v := ls.States[c]; v != 0 {
		return pcm.State(v - 1), true
	}
	return 0, false
}

// set freezes cell c at st; it reports whether the cell was healthy
// before (false = already stuck, state unchanged: a stuck cell never
// re-freezes).
func (ls *LineStuck) set(c int, st pcm.State) bool {
	if ls.States[c] != 0 {
		return false
	}
	ls.States[c] = uint8(st) + 1
	ls.N++
	return true
}

// MismatchCount returns how many stuck cells disagree with the intended
// cell vector — the write-verify result against this stuck map.
func (ls *LineStuck) MismatchCount(cells []pcm.State) int {
	n := 0
	for c, v := range ls.States {
		if v != 0 && pcm.State(v-1) != cells[c] {
			n++
		}
	}
	return n
}

// Overlay forces every stuck cell's frozen state into cells, turning an
// intended vector into the physically stored one.
func (ls *LineStuck) Overlay(cells []pcm.State) {
	for c, v := range ls.States {
		if v != 0 {
			cells[c] = pcm.State(v - 1)
		}
	}
}

// WordPlanes returns the stuck cells of one 32-cell word as SWAR bit
// planes: mask has a bit per stuck cell, lo/hi carry the frozen state's
// low/high bit on those positions — the operand shape the coset tables'
// stuck-aware candidate pricing consumes. Cells beyond the view's
// length are healthy.
func (ls *LineStuck) WordPlanes(w int) (mask, lo, hi uint64) {
	base := w * 32
	if base >= len(ls.States) {
		return 0, 0, 0
	}
	end := base + 32
	if end > len(ls.States) {
		end = len(ls.States)
	}
	for c := base; c < end; c++ {
		v := ls.States[c]
		if v == 0 {
			continue
		}
		bit := uint64(1) << uint(c-base)
		mask |= bit
		st := uint64(v - 1)
		lo |= (st & 1) * bit
		hi |= (st >> 1) * bit
	}
	return mask, lo, hi
}

// lineRec is one line's fault state inside a Map.
type lineRec struct {
	LineStuck
	// thr holds the absolute per-cell endurance thresholds of the
	// line's current incarnation, drawn lazily on first write.
	thr []uint32
	// gen counts retirements: each remap re-draws thresholds with a new
	// salt so the spare line gets fresh endurance.
	gen uint32
	// remapped marks lines whose traffic now lands on a spare.
	remapped bool
	// touched marks lines that have been written at least once.
	touched bool
	// parity holds the interleaved ECC parity of the last write's
	// intended content (ways * bch.ParityBits bits), maintained for
	// every write to a line with stuck cells so reads can correct the
	// physically stored states back to the intended ones.
	parity []uint8
}

// Map is one routing unit's stuck-at fault state: per-line stuck
// cells, endurance thresholds, the spare-line pool, and the unit's
// fault stats. Like the store that holds its unit, a Map is
// single-goroutine.
type Map struct {
	cfg   Config
	seed  uint64
	cells int
	ecc   *ECC
	lines map[uint64]*lineRec
	// static remembers the seeded manufacturing defects so Reset can
	// replay them.
	static []StuckCell
	spares int

	// Stats is the unit's live fault digest. The repair pipeline in
	// the owning store updates the recourse counters directly.
	Stats Stats
}

// NewMap builds a fault map for lines of cellsPerLine cells. seed
// decorrelates this unit's threshold draws from every other unit's;
// ecc may be shared across units (it is read-only after construction).
// cfg should already have defaults resolved.
func NewMap(cfg Config, seed uint64, cellsPerLine int, ecc *ECC) *Map {
	cfg = cfg.WithDefaults()
	return &Map{
		cfg:    cfg,
		seed:   seed,
		cells:  cellsPerLine,
		ecc:    ecc,
		lines:  make(map[uint64]*lineRec),
		spares: cfg.SpareLines,
	}
}

// ECC returns the corrector the map was built with.
func (m *Map) ECC() *ECC { return m.ecc }

// rec returns addr's fault record, creating it on first use.
func (m *Map) rec(addr uint64) *lineRec {
	r, ok := m.lines[addr]
	if !ok {
		r = &lineRec{LineStuck: LineStuck{States: make([]uint8, m.cells)}}
		m.lines[addr] = r
	}
	return r
}

// SeedStatic pre-seeds one manufacturing defect. Cells outside the
// map's cell range are ignored (schemes differ in total cell count);
// seeding the same cell twice keeps the first state.
func (m *Map) SeedStatic(sc StuckCell) {
	if sc.Cell < 0 || sc.Cell >= m.cells {
		return
	}
	if m.rec(sc.Addr).set(sc.Cell, sc.State) {
		m.Stats.StuckCells++
		m.static = append(m.static, sc)
	}
}

// Stuck returns addr's stuck-cell view, or nil when every cell of the
// line is healthy.
func (m *Map) Stuck(addr uint64) *LineStuck {
	if r, ok := m.lines[addr]; ok && r.N > 0 {
		return &r.LineStuck
	}
	return nil
}

// InjectStuck freezes one cell at st (the VnR-residual feed): a
// disturbance error that survived the restore iteration cap is treated
// as a cell stuck at the disturbed SET state. It reports whether the
// cell was newly frozen.
func (m *Map) InjectStuck(addr uint64, cell int, st pcm.State) bool {
	if cell < 0 || cell >= m.cells {
		return false
	}
	if !m.rec(addr).set(cell, st) {
		return false
	}
	m.Stats.StuckCells++
	m.Stats.InjectedStuck++
	return true
}

// drawThreshold returns the endurance threshold of (addr, cell) in
// incarnation gen — a pure hash of the coordinates, so the value never
// depends on the order units or workers evaluate it.
func (m *Map) drawThreshold(addr uint64, cell int, gen uint32) uint32 {
	e := m.cfg.CellEndurance
	sp := m.cfg.EnduranceSpread
	if sp <= 0 {
		return e
	}
	h := prng.NewSplitMix64(m.seed ^ (addr*0x9e3779b97f4a7c15 + uint64(cell)<<32 + uint64(gen) + 1)).Uint64()
	lo := uint32(float64(e) * (1 - sp))
	hi := uint32(float64(e) * (1 + sp))
	if hi <= lo {
		return e
	}
	return lo + uint32(h%uint64(hi-lo+1))
}

// OnWrite advances the wear-driven fault model for one settled write:
// counts remap-pool hits, marks the line touched, and freezes every
// cell whose program count crossed its endurance threshold at the state
// this write just programmed (its last-programmed state — the write
// succeeded, the cell dies holding it). counts is the line's live
// per-cell wear from the store's recorder, already including this
// write; nil disables wear onset (no recorder).
func (m *Map) OnWrite(addr uint64, changed []bool, states []pcm.State, counts []uint32) {
	r := m.rec(addr)
	if !r.touched {
		r.touched = true
		m.Stats.LinesTouched++
	}
	if r.remapped {
		m.Stats.RemapHits++
	}
	if counts == nil {
		return
	}
	if r.thr == nil {
		r.thr = make([]uint32, m.cells)
		for c := range r.thr {
			r.thr[c] = m.drawThreshold(addr, c, r.gen)
		}
	}
	for c, ch := range changed {
		if ch && counts[c] >= r.thr[c] && r.set(c, states[c]) {
			m.Stats.StuckCells++
			m.Stats.WearStuck++
		}
	}
}

// Retire remaps addr to a spare line: its stuck cells are dropped (the
// spare is healthy), its endurance thresholds re-drawn above the wear
// the address has already accumulated (the recorder keeps counting the
// address; the spare's cells start fresh), and the spare pool shrinks
// by one. It reports false — leaving the line as it was — when the pool
// is empty. seq is the retiring write's global trace sequence number.
func (m *Map) Retire(addr uint64, counts []uint32, seq uint64) bool {
	if m.spares == 0 {
		return false
	}
	m.spares--
	r := m.rec(addr)
	for c := range r.States {
		r.States[c] = 0
	}
	r.N = 0
	r.gen++
	r.remapped = true
	r.parity = r.parity[:0]
	if r.thr == nil {
		r.thr = make([]uint32, m.cells)
	}
	for c := range r.thr {
		base := uint32(0)
		if counts != nil {
			base = counts[c]
		}
		r.thr[c] = base + m.drawThreshold(addr, c, r.gen)
	}
	m.Stats.RetiredLines++
	if m.Stats.FirstRetireSeq == 0 || seq+1 < m.Stats.FirstRetireSeq {
		m.Stats.FirstRetireSeq = seq + 1
	}
	return true
}

// SpareLinesLeft returns the remaining spare-line pool.
func (m *Map) SpareLinesLeft() int { return m.spares }

// Correct asks the ECC whether the stuck cells of ls can be corrected
// for the intended vector, returning the corrected bit count. It is the
// write-path classification; StoreParity persists the parity a read
// needs.
func (m *Map) Correct(intended []pcm.State, ls *LineStuck, sc *ECCScratch) (bits int, ok bool) {
	return m.ecc.Correct(intended, ls, sc)
}

// StoreParity records the ECC parity of addr's intended content,
// overwriting the previous write's. Called for every write to a line
// with stuck cells, so Recover always corrects against the latest
// content.
func (m *Map) StoreParity(addr uint64, intended []pcm.State, sc *ECCScratch) {
	r := m.rec(addr)
	need := m.ecc.ParityLen()
	if cap(r.parity) < need {
		r.parity = make([]uint8, need)
	}
	r.parity = r.parity[:need]
	m.ecc.ParityInto(intended, r.parity, sc)
}

// Recover reconstructs the intended content of addr from its physically
// stored states: healthy lines pass through, stuck lines are corrected
// way-by-way against the stored parity into dst. ok=false means the
// line is uncorrectable (stuck beyond the ECC budget and never
// retired) — deterministically so, for every worker count.
func (m *Map) Recover(addr uint64, phys, dst []pcm.State, sc *ECCScratch) (cells []pcm.State, ok bool) {
	r, present := m.lines[addr]
	if !present || r.N == 0 || len(r.parity) == 0 {
		return phys, true
	}
	copy(dst, phys)
	if !m.ecc.Recover(dst, r.parity, sc) {
		return nil, false
	}
	return dst, true
}

// Retired returns the sorted addresses of every retired line.
func (m *Map) Retired() []uint64 {
	var out []uint64
	for addr, r := range m.lines {
		if r.remapped {
			out = append(out, addr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ResetStats clears the flow counters (detections, retries,
// corrections, remap hits, uncorrectables) but keeps the structural
// state counters — stuck cells, retired lines, touched lines, the
// first-retirement mark — which describe accumulated array state rather
// than per-window activity. Mirrors the simulator's metrics reset after
// warm-up.
func (m *Map) ResetStats() {
	s := m.Stats
	m.Stats = Stats{
		StuckCells:     s.StuckCells,
		WearStuck:      s.WearStuck,
		InjectedStuck:  s.InjectedStuck,
		LinesTouched:   s.LinesTouched,
		RetiredLines:   s.RetiredLines,
		FirstRetireSeq: s.FirstRetireSeq,
	}
}

// Reset drops all fault state, restores the spare pool and re-seeds the
// static defects.
func (m *Map) Reset() {
	m.lines = make(map[uint64]*lineRec)
	m.spares = m.cfg.SpareLines
	m.Stats = Stats{}
	static := m.static
	m.static = nil
	for _, sc := range static {
		m.SeedStatic(sc)
	}
}

// RandomStatic draws n distinct manufacturing defects over line
// addresses [0, maxAddr) and the universally-valid data-cell range — a
// deterministic helper for CLI flags and tests. States are drawn over
// all four MLC states.
func RandomStatic(seed uint64, n int, maxAddr uint64) []StuckCell {
	if n <= 0 || maxAddr == 0 {
		return nil
	}
	sm := prng.NewSplitMix64(seed ^ 0xfa0175f01d4a5c3b)
	out := make([]StuckCell, 0, n)
	seen := make(map[[2]uint64]bool, n)
	for len(out) < n {
		a := sm.Uint64() % maxAddr
		c := int(sm.Uint64() % 256)
		if seen[[2]uint64{a, uint64(c)}] {
			continue
		}
		seen[[2]uint64{a, uint64(c)}] = true
		out = append(out, StuckCell{Addr: a, Cell: c, State: pcm.State(sm.Uint64() % 4)})
	}
	return out
}
