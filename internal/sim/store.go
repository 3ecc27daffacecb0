package sim

import (
	"fmt"
	"slices"
	"sync"

	"wlcrc/internal/arena"
	"wlcrc/internal/core"
	"wlcrc/internal/coset"
	"wlcrc/internal/fault"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
	"wlcrc/internal/prng"
	"wlcrc/internal/wear"
)

// store is one scheme's per-worker replay state: the line store and
// every hot-path buffer of the routing units one worker owns. The
// Engine keeps one store per (scheme, worker) pair; worker w's store
// holds the lines of units u ≡ w (mod workers). Units are the
// determinism contract (see unit), stores are the per-worker state: a
// store's size follows the lines and the worker count, not the
// routing-unit count.
//
// A store is single-threaded by construction: exactly one goroutine
// ever calls applyRun on it, and the requests of each of its units
// arrive in trace order. The store owns the reusable encode/decode
// buffers of its hot path — schemes are shared across stores and hold
// no per-call state — so steady-state replay of a warmed address
// performs zero heap allocations per request.
type store struct {
	opts   *Options
	scheme core.Scheme
	// Line store: lines live in the arena as bit-plane words — 128
	// contiguous data bytes per line instead of 256 scattered cell
	// bytes — addressed by the arena's open slot index, and every
	// encode, diff, wear, disturb and fault step below runs on planes.
	// A line's slot depends on the order the store first saw it, which
	// differs between worker counts; nothing that reaches the results
	// depends on a slot. planeEnc is the keyed plane codec resolved by
	// core.CtrPlaneCodec: counter-keyed schemes (VCC, Enc) get the
	// per-line write counter, everything else ignores it.
	planeEnc  core.CounterPlaneScheme
	planeGate func([]uint64) bool
	arena     *arena.Lines
	stride    int // plane words per line
	// lineCtrs is the per-line write-counter store (the store's slice
	// of an encryption engine's counter cache), indexed by arena slot;
	// nil unless core.UsesCounters(scheme). Requests to one address
	// always replay in trace order on one store, so counters are
	// deterministic for every worker count.
	lineCtrs []uint64
	// scratch is the encode target: each write encodes into it, and
	// settle commits it into the arena slot with one copy. Fault-path
	// reads pack their recovered line into it too.
	scratch []uint64
	// masks is the reusable changed-cell mask (one word per 32 cells).
	masks []uint64
	// touched keeps the sum of touch's loads, so they are not dead.
	touched uint64
	// cellsOld/cellsNew are the cell materialization scratch of the
	// fault.ECC boundary: the ECC classification of fault repair and of
	// VnR residuals, parity stores and recovery reads unpack into them.
	// Allocated only when the fault model is on.
	cellsOld, cellsNew []pcm.State
	// decodeBuf is the Verify path's reusable decode target (a stack
	// Line would escape through the Scheme interface call).
	decodeBuf memline.Line
	// vnrHits / vnrRestore are the fault-injection loop's hit and
	// restore masks, laid out like masks (allocated only when
	// Options.InjectFaults is set).
	vnrHits, vnrRestore []uint64
	// m holds the store's integer and maximum metrics: counters add and
	// maxima compare, so they merge the same whatever units a store
	// holds. Its float sums are on loan: applyRun moves the running
	// unit's unitSums in and back out (unitSums.lend, take), so outside
	// applyRun they are zero.
	m Metrics
	// wear records dense per-cell program counts when Options.TrackWear
	// is set or the fault model is enabled (wear onset needs the
	// counts); nil otherwise. Owned by the store's single goroutine;
	// only its fixed-size Summary ever leaves, folded into the metrics
	// view — and only when TrackWear asked for it. Its digest is
	// additive over cells, so one recorder per store merges like one
	// per unit.
	wear *wear.Dense
	// encodeStuck is the scheme's optional stuck-aware re-encode, the
	// fault repair pipeline's first recourse; eccSc is the reusable ECC
	// scratch of the second. Both are set only under the fault model.
	encodeStuck func(dst, old []uint64, data *memline.Line, stuck *fault.LineStuck) bool
	eccSc       fault.ECCScratch
	// units holds the records of the routing units this store's worker
	// owns, in unit order: units[k] is unit k*workers + w.
	units []unit

	// pub and pubSums are the last published copy of this store's
	// metrics and of its units' float sums, the half that makes
	// Engine.Snapshot safe during Run: the owning worker writes them
	// under pubMu (publish), and Snapshot readers copy them back out
	// under the same lock, never touching the live accumulators.
	// pubWrites is the Writes value at the last publish, the owner's
	// cheap dirty check; it is only ever accessed by the owning worker.
	pubMu     sync.Mutex
	pub       Metrics
	pubSums   []unitSums
	pubWrites int
}

// unit is the per-(scheme, routing unit) record: only the state that
// makes results independent of the worker count. A routing unit's
// requests always land on one store in trace order, whichever worker
// owns it, so its float sums, PRNG draws and fault state evolve exactly
// the same for every worker count.
type unit struct {
	// sums are the unit's float accumulators, summed in trace order and
	// merged across units in unit order (Engine.Metrics).
	sums unitSums
	// rnd is nil under deterministic expected-value accounting;
	// otherwise it is the unit's own PRNG substream, so sampled results
	// do not depend on scheduling.
	rnd *prng.Xoshiro256
	// fm is the unit's stuck-at fault state — stuck map, endurance
	// thresholds, spare pool and repair stats — when
	// Options.Faults.Enabled (nil otherwise — the fault-free settle path
	// carries exactly one nil check).
	fm *fault.Map
	// err records the unit's first verification failure; errSeq is the
	// global sequence number of the request that caused it. The Engine
	// freezes an erred unit so the reported error is deterministic.
	err    error
	errSeq uint64
}

// unitSums are the seven float accumulators of Metrics. Float addition
// does not associate, so their merge order is part of the results:
// each is summed per unit in trace order and merged over the units in
// unit order from zero, exactly as Metrics.Merge folds them, whatever
// the worker count.
type unitSums struct {
	energyData, energyAux float64 // Energy.EnergyData, EnergyAux
	errorsData, errorsAux float64 // Disturb.ErrorsData, ErrorsAux
	restorePJ             float64 // VnR.RestoreEnergyPJ
	energySum, updatedSum float64 // EnergyHist.Sum, UpdatedHist.Sum
}

// lend moves the sums into m's float fields, whose previous values it
// overwrites, so settle code accumulates into them.
func (s *unitSums) lend(m *Metrics) {
	m.Energy.EnergyData, m.Energy.EnergyAux = s.energyData, s.energyAux
	m.Disturb.ErrorsData, m.Disturb.ErrorsAux = s.errorsData, s.errorsAux
	m.VnR.RestoreEnergyPJ = s.restorePJ
	m.EnergyHist.Sum, m.UpdatedHist.Sum = s.energySum, s.updatedSum
}

// take moves m's float fields back into s and zeroes them in m.
func (s *unitSums) take(m *Metrics) {
	*s = unitSums{
		energyData: m.Energy.EnergyData, energyAux: m.Energy.EnergyAux,
		errorsData: m.Disturb.ErrorsData, errorsAux: m.Disturb.ErrorsAux,
		restorePJ: m.VnR.RestoreEnergyPJ,
		energySum: m.EnergyHist.Sum, updatedSum: m.UpdatedHist.Sum,
	}
	(&unitSums{}).lend(m)
}

// addTo adds the sums into m's float fields: one step of the unit-order
// merge.
func (s *unitSums) addTo(m *Metrics) {
	m.Energy.EnergyData += s.energyData
	m.Energy.EnergyAux += s.energyAux
	m.Disturb.ErrorsData += s.errorsData
	m.Disturb.ErrorsAux += s.errorsAux
	m.VnR.RestoreEnergyPJ += s.restorePJ
	m.EnergyHist.Sum += s.energySum
	m.UpdatedHist.Sum += s.updatedSum
}

// newStore builds a store for sch holding the given unit records,
// whose PRNG substreams and fault maps the caller has set. opts must
// outlive the store. A fault map implies a wear recorder: wear onset
// compares live program counts against the drawn endurance thresholds.
func newStore(opts *Options, sch core.Scheme, units []unit) *store {
	n := sch.TotalCells()
	s := &store{
		opts:    opts,
		scheme:  sch,
		m:       newMetrics(sch.Name()),
		pub:     newMetrics(sch.Name()),
		units:   units,
		pubSums: make([]unitSums, len(units)),
	}
	faults := slices.ContainsFunc(units, func(un unit) bool { return un.fm != nil })
	if opts.TrackWear || faults {
		s.wear = wear.NewDense(n)
	}
	if faults {
		s.encodeStuck = core.EncodeStuckFunc(sch)
		s.cellsOld = make([]pcm.State, n)
		s.cellsNew = make([]pcm.State, n)
	}
	s.planeEnc = core.CtrPlaneCodec(sch)
	s.planeGate = core.CompressedWritePlanesFunc(sch)
	s.stride = coset.PlaneWords(n)
	s.arena = arena.New(s.stride, 0)
	s.scratch = make([]uint64, s.stride)
	s.masks = make([]uint64, s.stride/2)
	if opts.InjectFaults {
		s.vnrHits = make([]uint64, s.stride/2)
		s.vnrRestore = make([]uint64, s.stride/2)
	}
	if core.UsesCounters(sch) {
		s.lineCtrs = []uint64{}
	}
	return s
}

// reserve preallocates the line store for the expected number of
// distinct lines (a trace Count()-derived hint; see Engine.reserveLines).
func (s *store) reserve(lines int) { s.arena.Reserve(lines) }

// nextCtr advances the write counter of the line in slot (fresh: just
// inserted by Ensure) and returns the value this write is keyed by; 0
// for schemes without counters. Arena slots are first-touch ordered, so
// a fresh slot is always the next counter index.
func (s *store) nextCtr(slot int, fresh bool) uint64 {
	if s.lineCtrs == nil {
		return 0
	}
	if fresh {
		s.lineCtrs = append(s.lineCtrs, 0)
	}
	s.lineCtrs[slot]++
	return s.lineCtrs[slot]
}

// ctrOf returns the write counter the line in slot was last written
// under; 0 for schemes without counters.
func (s *store) ctrOf(slot int) uint64 {
	if s.lineCtrs == nil {
		return 0
	}
	return s.lineCtrs[slot]
}

// settlePlanes charges the accounting models for one encoded write of
// unit un and commits it, in a fixed order: fault repair,
// energy+endurance, wear, disturbance, compression classification,
// fault injection, Verify, stuck overlay, commit. Requests of one unit
// settle strictly in trace order, and the PRNG draws of the sampled
// models happen here, on the unit's substream. The XOR diff of the
// stored and encoded planes doubles as the changed-cell mask for wear,
// disturbance exposure, fault injection and the fault model, and the
// commit is a single 144-byte copy into the arena slot. The float sums
// settle charges are the unit's, lent to s.m by applyRun.
//
// Under the fault model, newP is the intended encode throughout the
// accounting (the controller attempts to program it, so energy and wear
// charge the attempt); the stuck cells' frozen states are overlaid just
// before the commit, so the stored line is the physical view future
// writes diff against, while Verify checks the intended content — whose
// recoverability from the physical states the ECC classification has
// already established.
//
// Results are bit-identical to the cell-vector reference store kept in
// the tests (scalar_oracle_test.go): energy is grouped by target state
// on both (exact for integer models, see package pcm). The disturbance
// count (CountDisturbMasks) and the VnR hit sampler (runVnR, through
// DisturbedMasksInto) share one exposure walk, which masks 64 cells at
// a time but still adds and draws once per exposed cell in the
// ascending order of CountDisturb, because the draws and the
// non-integer DER sums follow cell order.
func (s *store) settlePlanes(un *unit, newP []uint64, slot int, addr, ctr, seq uint64, data *memline.Line) error {
	sch := s.scheme
	m := &s.m
	m.Writes++
	oldP := s.arena.Planes(slot)
	var faultErr error
	if un.fm != nil {
		faultErr = s.repairFaultsPlanes(un.fm, newP, oldP, slot, addr, ctr, seq, data)
	}
	st := s.opts.Energy.DiffWriteMasks(oldP, newP, s.masks, sch.DataCells())
	m.Energy.Add(st)
	m.EnergyHist.Observe(st.Energy())
	m.UpdatedHist.Observe(float64(st.Updated()))
	if s.wear != nil {
		s.wear.RecordSlotMasks(slot, s.masks)
	}
	var sampler pcm.Sampler
	if un.rnd != nil {
		sampler = un.rnd
	}
	d := s.opts.Disturb.CountDisturbMasks(newP, s.masks, sch.TotalCells(), sch.DataCells(), sampler)
	m.Disturb.Add(d)
	if e := d.Errors(); e > m.MaxDisturb {
		m.MaxDisturb = e
	}
	if s.planeGate(newP) {
		m.CompressedWrites++
	}
	if s.opts.InjectFaults {
		s.runVnR(un, newP, addr)
	}
	var verifyErr error
	if s.opts.Verify {
		got := &s.decodeBuf
		s.planeEnc.DecodeCtrPlanesInto(newP, addr, ctr, got)
		if !got.Equal(data) {
			m.DecodeErrors++
			verifyErr = fmt.Errorf("sim: %s: decode mismatch at addr %#x", sch.Name(), addr)
		}
	}
	if fm := un.fm; fm != nil {
		fm.OnWriteMasks(addr, s.masks, newP, s.wear.SlotCounts(slot))
		if ls := fm.Stuck(addr); ls != nil {
			cells := s.cellsNew[:sch.TotalCells()]
			coset.UnpackLine(newP, cells)
			fm.StoreParity(addr, cells, &s.eccSc)
			ls.OverlayPlanes(newP)
		}
	}
	// Commit: the encoded planes overwrite the stored line in place —
	// the arena slot stays put, so no pointer swap and no map store.
	copy(oldP, newP)
	if verifyErr != nil {
		return verifyErr
	}
	return faultErr
}

// repairFaultsPlanes is the per-write detection and repair pipeline of
// the fault model, run against the writing unit's fault map fm before
// the write's accounting so the models charge what the controller
// actually programs. Write-verify against the stuck map detects
// intended states that disagree with frozen cells; the recourses, in
// order:
//
//  1. stuck-aware re-encode — coset schemes search for a candidate
//     assignment matching every stuck cell (free if one exists);
//  2. ECC classification — the interleaved BCH budget covers the
//     mismatches, so reads will correct the stored line back to the
//     intended content;
//  3. line retirement — the address remaps to a healthy spare line and
//     the write re-encodes against a fresh initial line;
//  4. uncorrectable — counted, and fatal only under Options.FailFast.
//
// Every step is a pure function of the unit's own trace-ordered
// history, so the outcome is bit-identical for every worker count.
//
// The no-mismatch fast path — every write on a healthy line, and most
// writes on stuck ones — costs one stuck-map lookup and a plane scan.
// The whole pipeline runs on planes; only the ECC classification, at
// the fault.ECC boundary, unpacks the intended line to cells. ctr is
// the write's counter: the retry-failure and retirement re-encodes run
// under the same keystream as the write itself. Retirement zeroes oldP,
// the slot's stored planes, to the all-S1 line of a pristine spare,
// and re-draws its endurance thresholds above the slot's live wear.
func (s *store) repairFaultsPlanes(fm *fault.Map, newP, oldP []uint64, slot int, addr, ctr, seq uint64, data *memline.Line) error {
	ls := fm.Stuck(addr)
	if ls == nil || ls.MismatchCountPlanes(newP) == 0 {
		return nil
	}
	st := &fm.Stats
	st.Detected++
	if s.encodeStuck != nil {
		st.Retries++
		if s.encodeStuck(newP, oldP, data, ls) {
			st.RetriedOK++
			return nil
		}
		// The failed retry may have partially filled newP; restore the
		// canonical encode before pricing it against the ECC.
		s.planeEnc.EncodeCtrPlanesInto(newP, oldP, addr, ctr, data)
	}
	cells := s.cellsNew[:s.scheme.TotalCells()]
	coset.UnpackLine(newP, cells)
	if bits, ok := fm.Correct(cells, ls, &s.eccSc); ok {
		st.CorrectedBits += uint64(bits)
		st.CorrectedWrites++
		return nil
	}
	if fm.Retire(addr, s.wear.SlotCounts(slot), seq) {
		// The address keeps its write counter — counters are address
		// metadata and survive the remap.
		clear(oldP)
		s.planeEnc.EncodeCtrPlanesInto(newP, oldP, addr, ctr, data)
		return nil
	}
	st.Uncorrectable++
	if s.opts.FailFast {
		return fmt.Errorf("sim: %s: uncorrectable stuck-at fault at addr %#x (%d stuck cells exceed the %d-bit ECC budget, spare pool empty)",
			s.scheme.Name(), addr, ls.N, fm.ECC().BudgetBits())
	}
	return nil
}

// applyRun replays one routing unit's run of requests through this
// store one request at a time, in trace order: each write is encoded
// against its line's stored planes into the scratch buffer and settled
// before the next is encoded, so a repeated address always encodes
// against its previous write. un is the run's unit record, whose float
// sums are lent to s.m for the run. On a verification failure (or,
// under FailFast, an uncorrectable stuck line) it stops and returns the
// failing request's global sequence number with the error; the
// remaining requests of the run are not applied (the Engine freezes the
// unit), so an erred unit's state covers exactly its trace prefix up to
// and including the failing request.
func (s *store) applyRun(un *unit, rs []routedReq) (errSeq uint64, err error) {
	un.sums.lend(&s.m)
	for j := range rs {
		rr := &rs[j]
		addr, data := rr.addr, &rr.data
		slot, fresh := s.arena.Ensure(addr)
		ctr := s.nextCtr(slot, fresh)
		s.planeEnc.EncodeCtrPlanesInto(s.scratch, s.arena.Planes(slot), addr, ctr, data)
		if err = s.settlePlanes(un, s.scratch, slot, addr, ctr, rr.seq, data); err != nil {
			errSeq = rr.seq
			break
		}
	}
	un.sums.take(&s.m)
	return errSeq, err
}

// touch is the read-only pass the Engine runs over every run a worker
// owns in a chunk before applying any of them: it looks up every
// address and, for each resident line, loads the first, middle and last
// plane word of its slot (a 128- or 144-byte slot spans at most three
// cache lines, one under each), folding them into s.touched so the
// loads are kept. The lookups and loads of different requests do not
// depend on each other, so the processor overlaps their misses; Go has
// no prefetch intrinsic, so plain loads stand in for one. Fresh
// addresses have no line to load yet and are skipped.
func (s *store) touch(rs []routedReq) {
	var sum uint64
	for j := range rs {
		if slot, ok := s.arena.Lookup(rs[j].addr); ok {
			p := s.arena.Planes(slot)
			sum += p[0] + p[len(p)/2] + p[len(p)-1]
		}
	}
	s.touched += sum
}

// viewInto writes the store's current metrics into m, copying them
// once: the integer and maximum metrics, the wear digest and the merged
// fault stats of its units. The float sums are zero (they live in the
// units). Only the owning goroutine (or a post-run caller) may use it;
// concurrent readers go through the published copy instead.
func (s *store) viewInto(m *Metrics) {
	*m = s.m
	if s.wear != nil && s.opts.TrackWear {
		m.Wear = s.wear.Summary()
	}
	for k := range s.units {
		if fm := s.units[k].fm; fm != nil {
			m.Faults.Merge(fm.Stats)
		}
	}
}

// publish copies the live metrics and unit sums into the snapshot
// buffers, once, under the lock. Called by the owning worker between
// chunks (see Engine.publishOwned), so Snapshot readers lag a store by
// a bounded number of chunks.
func (s *store) publish() {
	s.pubMu.Lock()
	s.viewInto(&s.pub)
	for k := range s.units {
		s.pubSums[k] = s.units[k].sums
	}
	s.pubMu.Unlock()
}

// publishIfDirty publishes only when writes landed since the last
// publish, keeping the publish sweep cheap for untouched stores.
// Owner-only, like publish.
func (s *store) publishIfDirty() {
	if s.m.Writes == s.pubWrites {
		return
	}
	s.pubWrites = s.m.Writes
	s.publish()
}

// snapshot returns the last published metrics and a copy of the last
// published unit sums. Safe to call from any goroutine at any time.
func (s *store) snapshot() (Metrics, []unitSums) {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	return s.pub, slices.Clone(s.pubSums)
}

// resetMetrics clears the accumulated metrics of the store and its
// units (including wear counts — the footprint stays) but keeps the
// memory state (used after warm-up).
func (s *store) resetMetrics() {
	s.m = newMetrics(s.scheme.Name())
	if s.wear != nil {
		s.wear.Reset()
	}
	for k := range s.units {
		un := &s.units[k]
		un.sums = unitSums{}
		if un.fm != nil {
			un.fm.ResetStats()
		}
		un.err = nil
		un.errSeq = 0
	}
	s.pubWrites = 0
	s.publish()
}

// reset clears metrics and memory state while keeping every allocation
// warm: the arena keeps its slab and index, the slot counters keep
// their array, and the wear recorder keeps its count array — a
// reset-and-rerun (warm-up flows, repeated experiment phases) re-fills
// storage without rebuilding it.
func (s *store) reset() {
	s.lineCtrs = s.lineCtrs[:0]
	s.arena.Reset()
	if s.wear != nil {
		s.wear.Clear()
	}
	for k := range s.units {
		if fm := s.units[k].fm; fm != nil {
			fm.Reset()
		}
	}
	s.resetMetrics()
}
