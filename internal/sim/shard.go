package sim

import (
	"fmt"
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

// shard is the unit of simulation state: one scheme's view of one slice
// of the address space. The Engine keeps one shard per (scheme, bank,
// sub-shard) triple so independent lines replay concurrently.
//
// A shard is single-threaded by construction: exactly one goroutine ever
// calls applyRun on it, and requests arrive in trace order. All
// cross-shard aggregation happens after the run via Metrics.Merge. The
// shard owns the reusable encode/decode buffers of its hot path —
// schemes are shared across shards and hold no per-call state — so
// steady-state replay of a warmed address performs zero heap allocations
// per request.
type shard struct {
	opts   *Options
	scheme core.Scheme
	// Line store: lines live in the arena as bit-plane words — 128
	// contiguous data bytes per line instead of 256 scattered cell
	// bytes — addressed by the arena's open slot index, and every
	// encode, diff, wear, disturb and fault step below runs on planes.
	// planeEnc is the keyed plane codec resolved by core.CtrPlaneCodec:
	// counter-keyed schemes (VCC, Enc) get the per-line write counter,
	// everything else ignores it.
	planeEnc  core.CounterPlaneScheme
	planeGate func([]uint64) bool
	arena     *arena.Lines
	stride    int // plane words per line
	// lineCtrs is the per-line write-counter store (the
	// shard-local slice of an encryption engine's counter cache),
	// indexed by arena slot; nil unless core.UsesCounters(scheme).
	// Requests to one address always replay in trace order on one
	// shard, so counters are deterministic for every worker count.
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
	// rnd is nil under deterministic expected-value accounting;
	// otherwise it is the shard's own PRNG substream, so sampled results
	// do not depend on scheduling.
	rnd *prng.Xoshiro256
	m   Metrics
	// wear records dense per-cell program counts when Options.TrackWear
	// is set or the fault model is enabled (wear onset needs the
	// counts); nil otherwise. Owned by the shard's single goroutine;
	// only its fixed-size Summary ever leaves, folded into metricsView —
	// and only when TrackWear asked for it.
	wear *wear.Dense
	// fm is the shard's stuck-at fault state and repair stats when
	// Options.Faults.Enabled (nil otherwise — the fault-free settle path
	// carries exactly one nil check). encodeStuck is the scheme's
	// optional stuck-aware re-encode, the repair pipeline's first
	// recourse; eccSc is the reusable ECC scratch of the second.
	fm          *fault.Map
	encodeStuck func(dst, old []uint64, data *memline.Line, stuck *fault.LineStuck) bool
	eccSc       fault.ECCScratch

	// pub is the last published copy of this shard's metrics, the
	// half that makes Engine.Snapshot safe during Run: the owning worker
	// writes metricsView() into pub under pubMu (publish), and Snapshot
	// readers copy it back out under the same lock, never touching the
	// live accumulators. pubWrites is the Writes value at the last
	// publish, the owner's cheap dirty check; it is only ever accessed
	// by the owning worker.
	pubMu     sync.Mutex
	pub       Metrics
	pubWrites int

	// err records the first verification failure; errSeq is the global
	// sequence number of the request that caused it. Both are maintained
	// by the Engine, which freezes an erred shard so the reported error
	// is deterministic.
	err    error
	errSeq uint64
}

// newShard builds a shard for sch. opts must outlive the shard. fm is
// the shard's fault map (nil when the fault model is off) and implies a
// wear recorder: wear onset compares live program counts against the
// drawn endurance thresholds.
func newShard(opts *Options, sch core.Scheme, rnd *prng.Xoshiro256, fm *fault.Map) *shard {
	n := sch.TotalCells()
	u := &shard{
		opts:   opts,
		scheme: sch,
		rnd:    rnd,
		m:      newMetrics(sch.Name()),
		pub:    newMetrics(sch.Name()),
		fm:     fm,
	}
	if opts.TrackWear || fm != nil {
		u.wear = wear.NewDense(n)
	}
	if fm != nil {
		u.encodeStuck = core.EncodeStuckFunc(sch)
	}
	u.planeEnc = core.CtrPlaneCodec(sch)
	u.planeGate = core.CompressedWritePlanesFunc(sch)
	u.stride = coset.PlaneWords(n)
	u.arena = arena.New(u.stride, 0)
	u.scratch = make([]uint64, u.stride)
	u.masks = make([]uint64, u.stride/2)
	if fm != nil {
		u.cellsOld = make([]pcm.State, n)
		u.cellsNew = make([]pcm.State, n)
	}
	if opts.InjectFaults {
		u.vnrHits = make([]uint64, u.stride/2)
		u.vnrRestore = make([]uint64, u.stride/2)
	}
	if core.UsesCounters(sch) {
		u.lineCtrs = []uint64{}
	}
	return u
}

// reserve preallocates the line store for the expected number of
// distinct lines (a trace Count()-derived hint; see Engine.reserveLines).
func (u *shard) reserve(lines int) { u.arena.Reserve(lines) }

// nextCtr advances the write counter of the line in slot (fresh: just
// inserted by Ensure) and returns the value this write is keyed by; 0
// for schemes without counters. Arena slots are first-touch ordered, so
// a fresh slot is always the next counter index.
func (u *shard) nextCtr(slot int, fresh bool) uint64 {
	if u.lineCtrs == nil {
		return 0
	}
	if fresh {
		u.lineCtrs = append(u.lineCtrs, 0)
	}
	u.lineCtrs[slot]++
	return u.lineCtrs[slot]
}

// ctrOf returns the write counter the line in slot was last written
// under; 0 for schemes without counters.
func (u *shard) ctrOf(slot int) uint64 {
	if u.lineCtrs == nil {
		return 0
	}
	return u.lineCtrs[slot]
}

// settlePlanes charges the accounting models for one encoded write and
// commits it, in a fixed order: fault repair, energy+endurance, wear,
// disturbance, compression classification, fault injection, Verify,
// stuck overlay, commit. Requests of one shard settle strictly in trace
// order, and the PRNG draws of the sampled models happen here. The XOR
// diff of the stored and encoded planes doubles as the changed-cell
// mask for wear, disturbance exposure, fault injection and the fault
// model, and the commit is a single 144-byte copy into the arena slot.
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
func (u *shard) settlePlanes(newP []uint64, slot int, addr, ctr, seq uint64, data *memline.Line) error {
	sch := u.scheme
	m := &u.m
	m.Writes++
	oldP := u.arena.Planes(slot)
	var faultErr error
	if u.fm != nil {
		faultErr = u.repairFaultsPlanes(newP, oldP, slot, addr, ctr, seq, data)
	}
	st := u.opts.Energy.DiffWriteMasks(oldP, newP, u.masks, sch.DataCells())
	m.Energy.Add(st)
	m.EnergyHist.Observe(st.Energy())
	m.UpdatedHist.Observe(float64(st.Updated()))
	if u.wear != nil {
		u.wear.RecordSlotMasks(slot, u.masks)
	}
	var sampler pcm.Sampler
	if u.rnd != nil {
		sampler = u.rnd
	}
	d := u.opts.Disturb.CountDisturbMasks(newP, u.masks, sch.TotalCells(), sch.DataCells(), sampler)
	m.Disturb.Add(d)
	if e := d.Errors(); e > m.MaxDisturb {
		m.MaxDisturb = e
	}
	if u.planeGate(newP) {
		m.CompressedWrites++
	}
	if u.opts.InjectFaults {
		u.runVnR(newP, addr)
	}
	var verifyErr error
	if u.opts.Verify {
		got := &u.decodeBuf
		u.planeEnc.DecodeCtrPlanesInto(newP, addr, ctr, got)
		if !got.Equal(data) {
			m.DecodeErrors++
			verifyErr = fmt.Errorf("sim: %s: decode mismatch at addr %#x", sch.Name(), addr)
		}
	}
	if u.fm != nil {
		u.fm.OnWriteMasks(addr, u.masks, newP, u.wear.SlotCounts(slot))
		if ls := u.fm.Stuck(addr); ls != nil {
			cells := u.cellsNew[:sch.TotalCells()]
			coset.UnpackLine(newP, cells)
			u.fm.StoreParity(addr, cells, &u.eccSc)
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
// the fault model, run before the write's accounting so the models
// charge what the controller actually programs. Write-verify against
// the stuck map detects intended states that disagree with frozen
// cells; the recourses, in order:
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
// Every step is a pure function of the shard's own trace-ordered
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
func (u *shard) repairFaultsPlanes(newP, oldP []uint64, slot int, addr, ctr, seq uint64, data *memline.Line) error {
	ls := u.fm.Stuck(addr)
	if ls == nil || ls.MismatchCountPlanes(newP) == 0 {
		return nil
	}
	st := &u.fm.Stats
	st.Detected++
	if u.encodeStuck != nil {
		st.Retries++
		if u.encodeStuck(newP, oldP, data, ls) {
			st.RetriedOK++
			return nil
		}
		// The failed retry may have partially filled newP; restore the
		// canonical encode before pricing it against the ECC.
		u.planeEnc.EncodeCtrPlanesInto(newP, oldP, addr, ctr, data)
	}
	cells := u.cellsNew[:u.scheme.TotalCells()]
	coset.UnpackLine(newP, cells)
	if bits, ok := u.fm.Correct(cells, ls, &u.eccSc); ok {
		st.CorrectedBits += uint64(bits)
		st.CorrectedWrites++
		return nil
	}
	if u.fm.Retire(addr, u.wear.SlotCounts(slot), seq) {
		// The address keeps its write counter — counters are address
		// metadata and survive the remap.
		clear(oldP)
		u.planeEnc.EncodeCtrPlanesInto(newP, oldP, addr, ctr, data)
		return nil
	}
	st.Uncorrectable++
	if u.opts.FailFast {
		return fmt.Errorf("sim: %s: uncorrectable stuck-at fault at addr %#x (%d stuck cells exceed the %d-bit ECC budget, spare pool empty)",
			u.scheme.Name(), addr, ls.N, u.fm.ECC().BudgetBits())
	}
	return nil
}

// applyRun replays one routing unit's run of requests through this
// shard one request at a time, in trace order: each write is encoded
// against its line's stored planes into the scratch buffer and settled
// before the next is encoded, so a repeated address always encodes
// against its previous write. On a verification failure (or, under
// FailFast, an uncorrectable stuck line) it stops and returns the
// failing request's global sequence number with the error; the
// remaining requests of the run are not applied (the Engine freezes the
// shard), so an erred shard's metrics cover exactly its trace prefix up
// to and including the failing request.
func (u *shard) applyRun(rs []routedReq) (errSeq uint64, err error) {
	for j := range rs {
		rr := &rs[j]
		addr, data := rr.addr, &rr.data
		slot, fresh := u.arena.Ensure(addr)
		ctr := u.nextCtr(slot, fresh)
		u.planeEnc.EncodeCtrPlanesInto(u.scratch, u.arena.Planes(slot), addr, ctr, data)
		if err := u.settlePlanes(u.scratch, slot, addr, ctr, rr.seq, data); err != nil {
			return rr.seq, err
		}
	}
	return 0, nil
}

// touch is the read-only pass the Engine runs over every run a worker
// owns in a chunk before applying any of them: it looks up every
// address and, for each resident line, loads the first, middle and last
// plane word of its slot (a 128- or 144-byte slot spans at most three
// cache lines, one under each), folding them into u.touched so the
// loads are kept. The lookups and loads of different requests do not
// depend on each other, so the processor overlaps their misses; Go has
// no prefetch intrinsic, so plain loads stand in for one. Fresh
// addresses have no line to load yet and are skipped.
func (u *shard) touch(rs []routedReq) {
	var sum uint64
	for j := range rs {
		if slot, ok := u.arena.Lookup(rs[j].addr); ok {
			p := u.arena.Planes(slot)
			sum += p[0] + p[len(p)/2] + p[len(p)-1]
		}
	}
	u.touched += sum
}

// metricsView returns the shard's current metrics with the wear digest
// folded in. Only the owning goroutine (or a post-run caller) may use
// it; concurrent readers go through the published copy instead.
func (u *shard) metricsView() Metrics {
	var m Metrics
	u.viewInto(&m)
	return m
}

// viewInto writes metricsView into m, copying the metrics once.
func (u *shard) viewInto(m *Metrics) {
	*m = u.m
	if u.wear != nil && u.opts.TrackWear {
		m.Wear = u.wear.Summary()
	}
	if u.fm != nil {
		m.Faults = u.fm.Stats
	}
}

// publish copies the live metrics into the snapshot buffer, once,
// under the lock. Called by the owning worker between chunks (see
// Engine.publishOwned), so Snapshot readers lag a shard by a bounded
// number of chunks.
func (u *shard) publish() {
	u.pubMu.Lock()
	u.viewInto(&u.pub)
	u.pubMu.Unlock()
}

// publishIfDirty publishes only when writes landed since the last
// publish, keeping the publish sweep cheap for untouched
// shards. Owner-only, like publish.
func (u *shard) publishIfDirty() {
	if u.m.Writes == u.pubWrites {
		return
	}
	u.pubWrites = u.m.Writes
	u.publish()
}

// snapshot returns the last published metrics copy. Safe to call from
// any goroutine at any time.
func (u *shard) snapshot() Metrics {
	u.pubMu.Lock()
	m := u.pub
	u.pubMu.Unlock()
	return m
}

// resetMetrics clears the accumulated metrics (including wear counts —
// the footprint stays) but keeps the memory state (used after warm-up).
func (u *shard) resetMetrics() {
	u.m = newMetrics(u.scheme.Name())
	if u.wear != nil {
		u.wear.Reset()
	}
	if u.fm != nil {
		u.fm.ResetStats()
	}
	u.err = nil
	u.errSeq = 0
	u.pubWrites = 0
	u.publish()
}

// reset clears metrics and memory state while keeping every allocation
// warm: the arena keeps its slab and index, the slot counters keep
// their array, and the wear recorder keeps its count array — a
// reset-and-rerun (warm-up flows, repeated experiment phases) re-fills
// storage without rebuilding it.
func (u *shard) reset() {
	u.lineCtrs = u.lineCtrs[:0]
	u.arena.Reset()
	if u.wear != nil {
		u.wear.Clear()
	}
	if u.fm != nil {
		u.fm.Reset()
	}
	u.resetMetrics()
}
