// Package pcm models a multi-level-cell (MLC) phase change memory at the
// level of detail the paper's evaluation needs: four resistance states per
// cell, per-state programming energies (Table II), differential write,
// endurance accounting (number of programmed cells) and the write
// disturbance model (per-state disturbance error rates when a neighboring
// cell is RESET).
package pcm

import "fmt"

// State is one of the four programmable resistance states of a 4-level
// cell. States are numbered in order of programming energy: S1 cheapest
// (a single RESET pulse), S4 most expensive (RESET plus many partial SET
// iterations). See paper §III and Table I/II.
type State uint8

// The four MLC states.
const (
	S1 State = iota // RESET state, highest resistance
	S2              // SET state, lowest resistance (immune to disturbance)
	S3              // intermediate, high programming energy
	S4              // intermediate, highest programming energy
)

// NumStates is the number of programmable states of a 4-level cell.
const NumStates = 4

// String implements fmt.Stringer.
func (s State) String() string {
	if s < NumStates {
		return [NumStates]string{"S1", "S2", "S3", "S4"}[s]
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// EnergyModel holds the programming-energy parameters of the device.
// Writing a cell always starts with a RESET pulse (Reset pJ) followed by
// the per-state iterative SET energy (Set[s] pJ). These default to the
// 90nm MLC PCM prototype values the paper uses (Table II), and the Fig 14
// sensitivity study swaps in reduced intermediate-state energies.
type EnergyModel struct {
	Reset float64            // pJ for the initial RESET pulse
	Set   [NumStates]float64 // additional pJ of SET iterations per target state
}

// DefaultEnergy is the Table II energy model: 36 pJ RESET; SET energies
// 0, 20, 307 and 547 pJ for S1..S4.
func DefaultEnergy() EnergyModel {
	return EnergyModel{Reset: 36, Set: [NumStates]float64{0, 20, 307, 547}}
}

// ScaledEnergy returns the Table II model with the intermediate state
// energies (S3, S4) replaced, as in the Figure 14 sensitivity study.
func ScaledEnergy(s3, s4 float64) EnergyModel {
	m := DefaultEnergy()
	m.Set[S3] = s3
	m.Set[S4] = s4
	return m
}

// WriteEnergy returns the energy in pJ to program a cell into state s
// (RESET plus iterative SET).
func (m *EnergyModel) WriteEnergy(s State) float64 { return m.Reset + m.Set[s] }

// DisturbModel holds the per-state write disturbance error rates: the
// probability that an idle cell currently in state s is disturbed when an
// adjacent cell undergoes a RESET. S2 (minimum resistance) is immune.
// Values are the 20nm measurements from Table II.
type DisturbModel struct {
	DER [NumStates]float64
}

// DefaultDisturb returns the Table II disturbance rates:
// S1 12.3%, S2 0%, S3 27.6%, S4 15.2%.
func DefaultDisturb() DisturbModel {
	return DisturbModel{DER: [NumStates]float64{0.123, 0, 0.276, 0.152}}
}

// WriteStats aggregates the cost of one differential write of a cell
// vector, split into the data-cell region and the auxiliary region the
// way the paper's figures report them (blk vs aux).
type WriteStats struct {
	EnergyData  float64 // pJ spent programming data cells
	EnergyAux   float64 // pJ spent programming auxiliary cells
	UpdatedData int     // number of data cells programmed
	UpdatedAux  int     // number of auxiliary cells programmed
}

// Energy returns the total programming energy.
func (w WriteStats) Energy() float64 { return w.EnergyData + w.EnergyAux }

// Updated returns the total number of programmed cells.
func (w WriteStats) Updated() int { return w.UpdatedData + w.UpdatedAux }

// Add accumulates o into w.
func (w *WriteStats) Add(o WriteStats) {
	w.EnergyData += o.EnergyData
	w.EnergyAux += o.EnergyAux
	w.UpdatedData += o.UpdatedData
	w.UpdatedAux += o.UpdatedAux
}

// writeCounts tallies the cells one write programs by target state,
// split into the data and aux regions.
type writeCounts struct {
	data, aux [NumStates]int
}

// price is the one write-energy formula every accounting path uses: each
// region's energy is Σ_s count[s]·WriteEnergy(s), summed over s in
// ascending order. Grouping the per-cell additions by target state is
// exact for integer-valued energy models (Table II and every Fig. 14
// level), where every partial sum is an exactly representable integer,
// so the result equals the per-cell sum in any order bit for bit. For
// other models it is still the same on every path, because every path
// counts and then prices here. Each product is rounded on its own
// (float64 conversion), so no platform fuses it into the sum.
func (m *EnergyModel) price(c *writeCounts) WriteStats {
	var st WriteStats
	for s := 0; s < NumStates; s++ {
		e := m.Reset + m.Set[s]
		st.EnergyData += float64(float64(c.data[s]) * e)
		st.EnergyAux += float64(float64(c.aux[s]) * e)
		st.UpdatedData += c.data[s]
		st.UpdatedAux += c.aux[s]
	}
	return st
}

// DiffWrite computes the differential-write cost of programming the cell
// vector old into new. Only cells whose state changes are programmed
// (Zhou et al. [37]); each programmed cell costs Reset + Set[new state].
// Cells with index < dataCells are accounted as data, the rest as aux.
// The two slices must have equal length.
func (m *EnergyModel) DiffWrite(old, new []State, dataCells int) WriteStats {
	if len(old) != len(new) {
		panic("pcm: DiffWrite on cell vectors of different length")
	}
	var c writeCounts
	for i, n := range new {
		if old[i] == n {
			continue
		}
		if i < dataCells {
			c.data[n]++
		} else {
			c.aux[n]++
		}
	}
	return m.price(&c)
}

// DiffWriteMask is DiffWrite fused with ChangedMaskInto: one pass over
// the cell vectors counts the write and fills changed with the
// programmed-cell mask. The scalar store calls this instead of the two
// separate sweeps; changed is reused when large enough.
func (m *EnergyModel) DiffWriteMask(old, new []State, dataCells int, changed []bool) (WriteStats, []bool) {
	if len(old) != len(new) {
		panic("pcm: DiffWriteMask on cell vectors of different length")
	}
	if cap(changed) < len(old) {
		changed = make([]bool, len(old))
	}
	changed = changed[:len(old)]
	var c writeCounts
	for i, n := range new {
		ch := old[i] != n
		changed[i] = ch
		if !ch {
			continue
		}
		if i < dataCells {
			c.data[n]++
		} else {
			c.aux[n]++
		}
	}
	return m.price(&c), changed
}

// ChangedMask returns a bitmask-style bool slice marking cells whose state
// differs between old and new (the cells a differential write programs).
func ChangedMask(old, new []State) []bool {
	return ChangedMaskInto(make([]bool, len(old)), old, new)
}

// ChangedMaskInto fills dst with the changed-cell mask, reusing dst's
// backing when it is large enough — the allocation-free form replay hot
// paths use with a per-shard scratch buffer.
func ChangedMaskInto(dst []bool, old, new []State) []bool {
	if len(old) != len(new) {
		panic("pcm: ChangedMask on cell vectors of different length")
	}
	if cap(dst) < len(old) {
		dst = make([]bool, len(old))
	}
	dst = dst[:len(old)]
	for i := range old {
		dst[i] = old[i] != new[i]
	}
	return dst
}

// Sampler abstracts the randomness used by the disturbance model so tests
// can use deterministic expected-value accounting.
type Sampler interface {
	// Bool returns true with probability p.
	Bool(p float64) bool
}

// DisturbStats counts write disturbance errors for one write request,
// split by region like WriteStats.
type DisturbStats struct {
	ErrorsData float64 // disturbance errors among idle data cells
	ErrorsAux  float64 // disturbance errors among idle aux cells
}

// Errors returns the total disturbance errors.
func (d DisturbStats) Errors() float64 { return d.ErrorsData + d.ErrorsAux }

// Add accumulates o into d.
func (d *DisturbStats) Add(o DisturbStats) {
	d.ErrorsData += o.ErrorsData
	d.ErrorsAux += o.ErrorsAux
}

// CountDisturb simulates write disturbance for one write request.
// changed marks the cells programmed by this request (each programmed
// cell undergoes a RESET whose heat may disturb its immediate physical
// neighbors). An idle neighbor in state s is disturbed with probability
// DER[s]; S2 is immune. Disturbed cells are counted but not corrupted:
// the paper assumes Verify-and-Restore repairs them before they become
// visible (§VIII.C).
//
// If rnd is nil the expected number of errors is accumulated instead of
// sampling, which is deterministic and is what the unit tests and the
// default experiment configuration use. states holds the post-write cell
// states; cells with index < dataCells count toward ErrorsData.
func (dm *DisturbModel) CountDisturb(states []State, changed []bool, dataCells int, rnd Sampler) DisturbStats {
	if len(states) != len(changed) {
		panic("pcm: CountDisturb length mismatch")
	}
	var st DisturbStats
	n := len(states)
	for i, ch := range changed {
		if ch {
			continue // programmed cells are not idle; they cannot be disturbed
		}
		// A cell is exposed once if at least one neighbor is RESET this
		// request. (Modeling per-neighbor independent exposure instead
		// changes magnitudes slightly but not orderings; the paper counts
		// "idle cells disturbed by neighboring cells".)
		exposed := (i > 0 && changed[i-1]) || (i < n-1 && changed[i+1])
		if !exposed {
			continue
		}
		p := dm.DER[states[i]]
		if p == 0 {
			continue
		}
		var hit float64
		if rnd == nil {
			hit = p
		} else if rnd.Bool(p) {
			hit = 1
		}
		if i < dataCells {
			st.ErrorsData += hit
		} else {
			st.ErrorsAux += hit
		}
	}
	return st
}

// DisturbedCells samples which idle cells are disturbed by this write
// (same exposure model as CountDisturb, always sampled — rnd must be
// non-nil). Disturbance is unidirectional: it drives a cell toward the
// minimum-resistance SET state, so a disturbed cell's content becomes
// S2. The returned indices let a fault-injection simulator corrupt and
// then Verify-and-Restore the array (§VIII.C).
func (dm *DisturbModel) DisturbedCells(states []State, changed []bool, rnd Sampler) []int {
	return dm.DisturbedCellsInto(nil, states, changed, rnd)
}

// DisturbedCellsInto is DisturbedCells appending into dst[:0], so a
// caller with a reusable buffer samples without allocating.
func (dm *DisturbModel) DisturbedCellsInto(dst []int, states []State, changed []bool, rnd Sampler) []int {
	if rnd == nil {
		panic("pcm: DisturbedCells requires a sampler")
	}
	if len(states) != len(changed) {
		panic("pcm: DisturbedCells length mismatch")
	}
	hits := dst[:0]
	n := len(states)
	for i, ch := range changed {
		if ch {
			continue
		}
		exposed := (i > 0 && changed[i-1]) || (i < n-1 && changed[i+1])
		if !exposed {
			continue
		}
		if p := dm.DER[states[i]]; p > 0 && rnd.Bool(p) {
			hits = append(hits, i)
		}
	}
	return hits
}
