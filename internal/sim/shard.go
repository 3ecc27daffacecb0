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

// shardRunCap is the number of lines a shard's batch-encode path prices
// per scheme call (see applyRun): large enough to amortize the scheme's
// table loads across several lines, small enough that the run's encode
// outputs are still L1-hot when the deferred settle pass re-reads them
// for the energy/disturb models (measured: 4 beats both 2 and 16 on
// every scheme family; 16 loses ~40% to settle-time cache misses).
const shardRunCap = 4

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
	// encodeCtr / decodeCtr are the cell codec entry points resolved
	// once from the scheme's optional CounterScheme extension:
	// counter-keyed schemes (VCC, Enc) get the per-line write counter,
	// everything else ignores it. They serve only the rare cell-level
	// steps: fault repair and faulty-line reads.
	encodeCtr func(dst, old []pcm.State, addr, ctr uint64, data *memline.Line)
	decodeCtr func(cells []pcm.State, addr, ctr uint64, dst *memline.Line)
	// Line store: lines live in the arena as bit-plane words — 128
	// contiguous data bytes per line instead of 256 scattered cell
	// bytes — addressed by the arena's open slot index, and every
	// encode, diff, wear, disturb and fault step below runs on planes.
	// planeEnc is the keyed plane codec resolved by core.CtrPlaneCodec.
	planeEnc  core.CounterPlaneScheme
	planeGate func([]uint64) bool
	arena     *arena.Lines
	stride    int // plane words per line
	// lineCtrs is the per-line write-counter store (the
	// shard-local slice of an encryption engine's counter cache),
	// indexed by arena slot; nil unless the scheme is a CounterScheme.
	// Requests to one address always replay in trace order on one
	// shard, so counters are deterministic for every worker count.
	lineCtrs []uint64
	// spare is the free plane-buffer stack: encode targets a
	// detached buffer, settle commits it into the arena slot with one
	// copy, and the buffer recycles.
	spare [][]uint64
	// planeJobs is the open plane batch-encode run. Jobs carry arena
	// slots, not plane slices: Ensure during routing may grow the slab,
	// so old-plane pointers resolve at flush time, when no insert can
	// intervene. pjobs is the resolved scratch handed to the batch call.
	planeJobs []planeJob
	pjobs     []core.PlaneEncodeJob
	// masks is the reusable changed-cell mask (one word per 32 cells).
	masks []uint64
	// cellsOld/cellsNew are the cell materialization scratch, touched
	// only off the fast path: fault repair, VnR injection and recovery
	// reads unpack into them. changed is the bool form of masks the VnR
	// loop consumes. All three are allocated only when the fault model
	// or fault injection is on.
	cellsOld, cellsNew []pcm.State
	changed            []bool
	// decodeBuf is the Verify path's reusable decode target (a stack
	// Line would escape through the Scheme interface call).
	decodeBuf memline.Line
	// vnrStored / vnrRestore / vnrHits are the fault-injection loop's
	// reusable buffers (only touched when Options.InjectFaults is set).
	vnrStored  []pcm.State
	vnrRestore []bool
	vnrHits    []int
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
	encodeStuck func(dst, old []pcm.State, data *memline.Line, stuck *fault.LineStuck) bool
	eccSc       fault.ECCScratch

	// pub is the last published copy of this shard's metrics, the
	// half that makes Engine.Snapshot safe during Run: the owning worker
	// copies metricsView() into pub under pubMu (publish), and Snapshot
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
	u.encodeCtr = core.EncodeCtrFunc(sch)
	u.decodeCtr = core.DecodeCtrFunc(sch)
	if fm != nil {
		u.encodeStuck = core.EncodeStuckFunc(sch)
	}
	u.planeEnc = core.CtrPlaneCodec(sch)
	u.planeGate = core.CompressedWritePlanesFunc(sch)
	u.stride = coset.PlaneWords(n)
	u.arena = arena.New(u.stride, 0)
	u.spare = [][]uint64{make([]uint64, u.stride)}
	u.planeJobs = make([]planeJob, 0, shardRunCap)
	u.pjobs = make([]core.PlaneEncodeJob, 0, shardRunCap)
	u.masks = make([]uint64, u.stride/2)
	if fm != nil || opts.InjectFaults {
		u.cellsOld = make([]pcm.State, n)
		u.cellsNew = make([]pcm.State, n)
		u.changed = make([]bool, n)
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

// takeSpare pops a free plane buffer, allocating only while the
// in-flight count grows toward its steady-state ceiling of
// shardRunCap+1.
func (u *shard) takeSpare() []uint64 {
	if n := len(u.spare); n > 0 {
		s := u.spare[n-1]
		u.spare = u.spare[:n-1]
		return s
	}
	return make([]uint64, u.stride)
}

// putSpare releases a plane buffer for reuse.
func (u *shard) putSpare(s []uint64) { u.spare = append(u.spare, s) }

// planeJob is one pending write of a plane batch-encode run. It holds
// the line's arena slot rather than its plane slice: a later Ensure of
// the same run may grow the arena slab, so the old planes are resolved
// at flush, when inserts can no longer move them.
type planeJob struct {
	slot int
	addr uint64
	ctr  uint64
	seq  uint64
	dst  []uint64
	data *memline.Line
}

// repairFaults is the per-write detection and repair pipeline of the
// fault model, run before the write's accounting so the models charge
// what the controller actually programs. Write-verify against the stuck
// map detects intended states that disagree with frozen cells; the
// recourses, in order:
//
//  1. stuck-aware re-encode — coset schemes search for a candidate
//     assignment matching every stuck cell (free if one exists);
//  2. ECC classification — the interleaved BCH budget covers the
//     mismatches, so reads will correct the stored line back to the
//     intended content;
//  3. line retirement — the address remaps to a healthy spare line and
//     the write re-encodes against a fresh initial vector;
//  4. uncorrectable — counted, and fatal only under Options.FailFast.
//
// Every step is a pure function of the shard's own trace-ordered
// history, so the outcome is bit-identical for every worker count.
//
// newCells and old are cell vectors: repairFaultsPlanes materializes
// them from planes for the rare write that needs a repair. counts is the
// line's live per-cell wear; retirement re-draws the spare line's
// endurance thresholds above it.
func (u *shard) repairFaults(newCells, old []pcm.State, counts []uint32, addr, ctr, seq uint64, data *memline.Line) error {
	ls := u.fm.Stuck(addr)
	if ls == nil || ls.MismatchCount(newCells) == 0 {
		return nil
	}
	st := &u.fm.Stats
	st.Detected++
	if u.encodeStuck != nil {
		st.Retries++
		if u.encodeStuck(newCells, old, data, ls) {
			st.RetriedOK++
			return nil
		}
		// The failed retry may have partially filled newCells; restore
		// the canonical encode before pricing it against the ECC.
		u.encodeCtr(newCells, old, addr, ctr, data)
	}
	if bits, ok := u.fm.Correct(newCells, ls, &u.eccSc); ok {
		st.CorrectedBits += uint64(bits)
		st.CorrectedWrites++
		return nil
	}
	if u.fm.Retire(addr, counts, seq) {
		// The spare line is pristine: restart from the initial RESET
		// vector and re-encode against it. The address keeps its write
		// counter — counters are address metadata and survive the remap.
		for i := range old {
			old[i] = pcm.S1
		}
		u.encodeCtr(newCells, old, addr, ctr, data)
		return nil
	}
	st.Uncorrectable++
	if u.opts.FailFast {
		return fmt.Errorf("sim: %s: uncorrectable stuck-at fault at addr %#x (%d stuck cells exceed the %d-bit ECC budget, spare pool empty)",
			u.scheme.Name(), addr, ls.N, u.fm.ECC().BudgetBits())
	}
	return nil
}

// settlePlanes charges the accounting models for one encoded write and
// commits it, in a fixed order: fault repair, energy+endurance, wear,
// disturbance, compression classification, fault injection, Verify,
// stuck overlay, commit. Requests of one shard settle strictly in trace
// order — the PRNG draws of the sampled models happen here, so batching
// the encodes never perturbs them. The XOR diff of the stored and
// encoded planes doubles as the changed-cell mask for wear, disturbance
// exposure and the fault model, and the commit is a single 144-byte
// copy into the arena slot.
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
// on both (exact for integer models, see package pcm), and
// CountDisturbMasks visits exposed cells in the same ascending order as
// CountDisturb, because its draws and non-integer DER sums follow cell
// order.
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
		// The restore loop mutates a stored copy cell by cell; feed it
		// the materialized write and the expanded change mask.
		cells := u.cellsNew[:sch.TotalCells()]
		coset.UnpackLine(newP, cells)
		expandMasks(u.masks, u.changed)
		u.runVnR(cells, u.changed, u.opts.MaxVnRIterations, addr)
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
	// the arena slot stays put, so no pointer swap and no map store —
	// and the detached buffer recycles.
	copy(oldP, newP)
	u.putSpare(newP)
	if verifyErr != nil {
		return verifyErr
	}
	return faultErr
}

// repairFaultsPlanes runs the write-verify fault check against plane
// storage. The no-mismatch fast path — every write on a healthy line,
// and most writes on stuck ones — costs one stuck-map lookup and a
// plane scan; an actual repair is rare, so it materializes both cell
// vectors, reuses the cell-level repair pipeline (retry, ECC,
// retirement), and packs the outcome back — including the pristine
// all-S1 old vector a retirement resets the slot to. ctr is the write's
// counter: the retry-failure and retirement re-encodes must run under
// the same keystream as the write itself.
func (u *shard) repairFaultsPlanes(newP, oldP []uint64, slot int, addr, ctr, seq uint64, data *memline.Line) error {
	ls := u.fm.Stuck(addr)
	if ls == nil || ls.MismatchCountPlanes(newP) == 0 {
		return nil
	}
	n := u.scheme.TotalCells()
	newC, oldC := u.cellsNew[:n], u.cellsOld[:n]
	coset.UnpackLine(newP, newC)
	coset.UnpackLine(oldP, oldC)
	err := u.repairFaults(newC, oldC, u.wear.SlotCounts(slot), addr, ctr, seq, data)
	coset.PackLine(newC, newP)
	coset.PackLine(oldC, oldP)
	return err
}

// expandMasks spreads plane-diff change masks into the bool mask the
// cell-level VnR loop consumes: dst[32w+i] = bit i of masks[w].
func expandMasks(masks []uint64, dst []bool) {
	n := len(dst)
	for w, m := range masks {
		base := w * 32
		end := base + 32
		if end > n {
			end = n
		}
		for c := base; c < end; c++ {
			dst[c] = m&1 == 1
			m >>= 1
		}
	}
}

// readLine decodes the current content of addr the way a controller
// read would: fetch the physically stored states, run the ECC recovery
// against the line's stored parity when it has stuck cells, then decode
// the scheme. ok=false means the address was never written; an error
// means the line is uncorrectably corrupted (deterministically so).
// A healthy-line read decodes the arena slot directly; the fault path
// materializes cells for the ECC recovery.
func (u *shard) readLine(addr uint64, dst *memline.Line) (ok bool, err error) {
	slot, ok := u.arena.Lookup(addr)
	if !ok {
		return false, nil
	}
	planes := u.arena.Planes(slot)
	ctr := u.ctrOf(slot)
	if u.fm == nil {
		u.planeEnc.DecodeCtrPlanesInto(planes, addr, ctr, dst)
		return true, nil
	}
	phys := u.cellsOld[:u.scheme.TotalCells()]
	coset.UnpackLine(planes, phys)
	if cap(u.vnrStored) < len(phys) {
		u.vnrStored = make([]pcm.State, len(phys))
		u.vnrRestore = make([]bool, len(phys))
	}
	cells, recOK := u.fm.Recover(addr, phys, u.vnrStored[:len(phys)], &u.eccSc)
	if !recOK {
		return true, fmt.Errorf("sim: %s: uncorrectable read at addr %#x", u.scheme.Name(), addr)
	}
	u.decodeCtr(cells, addr, ctr, dst)
	return true, nil
}

// eachResident calls fn with every line address resident in the
// shard's arena, in slot order. Test and debug helper; the hot path
// never enumerates residency.
func (u *shard) eachResident(fn func(addr uint64)) {
	for s := 0; s < u.arena.Len(); s++ {
		fn(u.arena.Addr(s))
	}
}

// applyRun replays a routed batch through this shard, pricing up to
// shardRunCap address-distinct lines per batch-encode call so the
// scheme's SWAR tables load once per run instead of once per line, then
// settles each line in trace order. On a verification failure (or, under
// FailFast, an uncorrectable stuck line) it stops and returns the
// failing request's global sequence number with the error; the
// remaining requests of the batch are not applied (the Engine freezes
// the shard).
func (u *shard) applyRun(rs []routedReq) (errSeq uint64, err error) {
	for j := range rs {
		rr := &rs[j]
		if u.runHasAddr(rr.req.Addr) {
			if seq, err := u.flushRun(); err != nil {
				return seq, err
			}
		}
		slot, fresh := u.arena.Ensure(rr.req.Addr)
		u.planeJobs = append(u.planeJobs, planeJob{
			slot: slot,
			addr: rr.req.Addr,
			ctr:  u.nextCtr(slot, fresh),
			seq:  rr.seq,
			dst:  u.takeSpare(),
			data: &rr.req.New,
		})
		if len(u.planeJobs) == shardRunCap {
			if seq, err := u.flushRun(); err != nil {
				return seq, err
			}
		}
	}
	return u.flushRun()
}

// runHasAddr reports whether the open batch-encode run already contains
// a job for addr — the read-after-write hazard that forces a flush,
// since the repeated write's old planes must be the first write's
// result.
func (u *shard) runHasAddr(addr uint64) bool {
	for k := range u.planeJobs {
		if u.planeJobs[k].addr == addr {
			return true
		}
	}
	return false
}

// flushRun resolves the open run's old planes (safe now — no Ensure can
// land between here and the settles), batch-encodes, and settles each
// job in trace order. After a failed settle the remaining jobs are
// discarded unaccounted — their buffers return to the spare stack and
// their lines keep the pre-run planes — so an erred shard's metrics
// cover exactly its trace prefix up to and including the failing
// request.
func (u *shard) flushRun() (errSeq uint64, err error) {
	if len(u.planeJobs) == 0 {
		return 0, nil
	}
	u.pjobs = u.pjobs[:0]
	for k := range u.planeJobs {
		j := &u.planeJobs[k]
		u.pjobs = append(u.pjobs, core.PlaneEncodeJob{
			Dst:  j.dst,
			Old:  u.arena.Planes(j.slot),
			Addr: j.addr,
			Ctr:  j.ctr,
			Data: j.data,
		})
	}
	core.EncodePlaneBatch(u.planeEnc, u.pjobs)
	for k := range u.planeJobs {
		j := &u.planeJobs[k]
		if err != nil {
			u.putSpare(j.dst)
			continue
		}
		if e := u.settlePlanes(j.dst, j.slot, j.addr, j.ctr, j.seq, j.data); e != nil {
			err, errSeq = e, j.seq
		}
	}
	u.planeJobs = u.planeJobs[:0]
	return errSeq, err
}

// metricsView returns the shard's current metrics with the wear digest
// folded in. Only the owning goroutine (or a post-run caller) may use
// it; concurrent readers go through the published copy instead.
func (u *shard) metricsView() Metrics {
	m := u.m
	if u.wear != nil && u.opts.TrackWear {
		m.Wear = u.wear.Summary()
	}
	if u.fm != nil {
		m.Faults = u.fm.Stats
	}
	return m
}

// publish copies the live metrics into the snapshot buffer. Called by
// the owning worker after each batch (and at drain), so Snapshot
// readers lag a shard by at most one in-flight batch.
func (u *shard) publish() {
	m := u.metricsView()
	u.pubMu.Lock()
	u.pub = m
	u.pubMu.Unlock()
}

// publishIfDirty publishes only when writes landed since the last
// publish, keeping the per-batch publish sweep cheap for untouched
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
