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
	"wlcrc/internal/trace"
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
// of the address space. The serial Simulator uses one shard per scheme
// covering all addresses; the parallel Engine uses one shard per
// (scheme, bank, sub-shard) triple so independent lines replay
// concurrently.
//
// A shard is single-threaded by construction: exactly one goroutine ever
// calls apply/applyRun on it, and requests arrive in trace order. All
// cross-shard aggregation happens after the run via Metrics.Merge. The
// shard owns the reusable encode/decode buffers of its hot path —
// schemes are shared across shards and hold no per-call state — so
// steady-state replay of a warmed address performs zero heap allocations
// per request.
type shard struct {
	opts   *Options
	scheme core.Scheme
	// compressed classifies a stored cell vector as encoded-path or
	// raw-fallback. The flag convention is resolved once here, at
	// construction, from the scheme's optional CompressionGate — not
	// per request via name switches.
	compressed func([]pcm.State) bool
	// encodeCtr / decodeCtr are the cell codec entry points resolved
	// once from the scheme's optional CounterScheme extension:
	// counter-keyed schemes (VCC, Enc) get the per-line write counter,
	// everything else ignores it. They serve the scalar reference store
	// and the rare cell-level steps of the plane path (fault repair,
	// faulty-line reads). encodeBatch is the scalar line-batch form
	// (core.BatchEncoder or the hoisted loop).
	encodeCtr   func(dst, old []pcm.State, addr, ctr uint64, data *memline.Line)
	decodeCtr   func(cells []pcm.State, addr, ctr uint64, dst *memline.Line)
	encodeBatch func(jobs []core.EncodeJob)
	// mem is this shard's cell-state view of its addresses — the scalar
	// reference store, used only under Options.ScalarStorage.
	mem map[uint64][]pcm.State
	// Plane-native path, every scheme's store unless
	// Options.ScalarStorage is set: lines live in the arena as bit-plane
	// words — 128 contiguous data bytes per line instead of 256
	// scattered cell bytes — addressed by the arena's open slot index
	// instead of the mem map, and every encode, diff, wear, disturb and
	// fault step below runs on planes. planeEnc is the keyed plane codec
	// resolved by core.CtrPlaneCodec; nil selects the scalar path
	// throughout.
	planeEnc  core.CounterPlaneScheme
	planeGate func([]uint64) bool
	arena     *arena.Lines
	stride    int // plane words per line
	// lineCtrs is the plane path's per-line write-counter store (the
	// shard-local slice of an encryption engine's counter cache),
	// indexed by arena slot; nil unless the scheme is a CounterScheme.
	// Requests to one address always replay in trace order on one
	// shard, so counters are deterministic for every worker count.
	lineCtrs []uint64
	// planeSpare is the plane path's free-buffer stack (the []uint64
	// analog of spare): encode targets a detached buffer, settle commits
	// it into the arena slot with one copy, and the buffer recycles.
	planeSpare [][]uint64
	// planeJobs is the open plane batch-encode run. Jobs carry arena
	// slots, not plane slices: Ensure during routing may grow the slab,
	// so old-plane pointers resolve at flush time, when no insert can
	// intervene. pjobs is the resolved scratch handed to the batch call.
	planeJobs []planeJob
	pjobs     []core.PlaneEncodeJob
	// masks is the reusable changed-cell mask (one word per 32 cells),
	// the plane path's counterpart of changed.
	masks []uint64
	// cellsOld/cellsNew are the plane path's scalar materialization
	// scratch, touched only off the fast path: fault repair, VnR
	// injection and recovery reads unpack into them. Allocated (with
	// changed) only when the fault model or fault injection is on.
	cellsOld, cellsNew []pcm.State
	// ctrs is the scalar reference store's write-counter map, the
	// addr-keyed twin of lineCtrs; nil unless the scheme is a
	// CounterScheme on the scalar path.
	ctrs map[uint64]uint64
	// spare is the stack of free cell buffers EncodeInto targets: each
	// settled request stores its freshly-encoded buffer and releases the
	// line's previous states back here, so steady state never allocates.
	// apply uses one buffer; applyRun keeps up to shardRunCap in flight.
	spare [][]pcm.State
	// jobs/jobSeqs are the open batch-encode run: up to shardRunCap
	// address-distinct lines that one encodeBatch call prices together.
	// jobSeqs carries each job's global trace sequence number for
	// deterministic error reporting.
	jobs    []core.EncodeJob
	jobSeqs []uint64
	// changed is the reusable differential-write mask.
	changed []bool
	// decodeBuf is the Verify path's reusable decode target (a stack
	// Line would escape through the Scheme interface call).
	decodeBuf memline.Line
	// vnrStored / vnrRestore / vnrHits are the fault-injection loop's
	// reusable buffers (only touched when Options.InjectFaults is set).
	vnrStored  []pcm.State
	vnrRestore []bool
	vnrHits    []int
	// rnd is nil under deterministic expected-value accounting. The
	// Simulator points every shard at one shared stream (so scheme i+1
	// continues scheme i's sequence within a request, the historical
	// behavior); the Engine gives each shard its own substream so the
	// sampled results do not depend on scheduling.
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
	// is deterministic. The Simulator returns errors immediately instead.
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
	u.compressed = core.CompressedWriteFunc(sch)
	u.encodeCtr = core.EncodeCtrFunc(sch)
	u.decodeCtr = core.DecodeCtrFunc(sch)
	u.encodeBatch = core.EncodeBatchFunc(sch)
	if fm != nil {
		u.encodeStuck = core.EncodeStuckFunc(sch)
	}
	keyed := core.UsesCounters(sch)
	if !opts.ScalarStorage {
		u.planeEnc = core.CtrPlaneCodec(sch)
		u.planeGate = core.CompressedWritePlanesFunc(sch)
		u.stride = coset.PlaneWords(n)
		u.arena = arena.New(u.stride, 0)
		u.planeSpare = [][]uint64{make([]uint64, u.stride)}
		u.planeJobs = make([]planeJob, 0, shardRunCap)
		u.pjobs = make([]core.PlaneEncodeJob, 0, shardRunCap)
		u.masks = make([]uint64, u.stride/2)
		if fm != nil || opts.InjectFaults {
			u.cellsOld = make([]pcm.State, n)
			u.cellsNew = make([]pcm.State, n)
			u.changed = make([]bool, n)
		}
		if keyed {
			u.lineCtrs = []uint64{}
		}
	} else {
		u.changed = make([]bool, n)
		u.mem = make(map[uint64][]pcm.State)
		u.spare = [][]pcm.State{make([]pcm.State, n)}
		if keyed {
			u.ctrs = make(map[uint64]uint64)
		}
	}
	return u
}

// reserve preallocates the line store for the expected number of
// distinct lines (a trace Count()-derived hint; see Engine.reserveLines).
func (u *shard) reserve(lines int) {
	if u.arena != nil {
		u.arena.Reserve(lines)
	}
}

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

// takeSpare pops a free cell buffer (allocating only while the shard's
// in-flight buffer count still grows toward its steady-state ceiling of
// shardRunCap+1).
func (u *shard) takeSpare() []pcm.State {
	if n := len(u.spare); n > 0 {
		s := u.spare[n-1]
		u.spare = u.spare[:n-1]
		return s
	}
	return make([]pcm.State, u.scheme.TotalCells())
}

// putSpare releases a cell buffer for reuse.
func (u *shard) putSpare(s []pcm.State) { u.spare = append(u.spare, s) }

// takePlaneSpare pops a free plane buffer (the plane path's takeSpare:
// allocating only while the in-flight count grows toward its
// steady-state ceiling of shardRunCap+1).
func (u *shard) takePlaneSpare() []uint64 {
	if n := len(u.planeSpare); n > 0 {
		s := u.planeSpare[n-1]
		u.planeSpare = u.planeSpare[:n-1]
		return s
	}
	return make([]uint64, u.stride)
}

// putPlaneSpare releases a plane buffer for reuse.
func (u *shard) putPlaneSpare(s []uint64) { u.planeSpare = append(u.planeSpare, s) }

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

// prepare resolves a request's encode inputs: the line's current cells
// (the initial RESET vector on first touch) and, for counter schemes,
// the incremented per-line write counter.
func (u *shard) prepare(addr uint64) (old []pcm.State, ctr uint64) {
	old, ok := u.mem[addr]
	if !ok {
		old = core.InitialCells(u.scheme.TotalCells())
	}
	if u.ctrs != nil {
		ctr = u.ctrs[addr] + 1
		u.ctrs[addr] = ctr
	}
	return old, ctr
}

// apply replays one request through the shard's scheme, charging the
// energy, endurance and disturbance models and updating the stored cell
// state. seq is the request's global trace sequence number (for
// deterministic fault and error ordering). It returns a non-nil error
// when Verify is on and the stored line fails to decode back to the
// written data, or when FailFast is on and the fault pipeline hit an
// uncorrectable stuck line.
func (u *shard) apply(req *trace.Request, seq uint64) error {
	if u.planeEnc != nil {
		slot, fresh := u.arena.Ensure(req.Addr)
		ctr := u.nextCtr(slot, fresh)
		dst := u.takePlaneSpare()
		u.planeEnc.EncodeCtrPlanesInto(dst, u.arena.Planes(slot), req.Addr, ctr, &req.New)
		return u.settlePlanes(dst, slot, req.Addr, ctr, seq, &req.New)
	}
	old, ctr := u.prepare(req.Addr)
	dst := u.takeSpare()
	u.encodeCtr(dst, old, req.Addr, ctr, &req.New)
	return u.settle(dst, old, req.Addr, ctr, seq, &req.New)
}

// settle charges the accounting models for one encoded write and commits
// it: fault detection and repair first (it may re-encode newCells),
// then energy/endurance/disturbance accumulation, histograms, wear,
// compression classification, optional fault injection, then the buffer
// swap that stores dst and recycles the previous states. Requests of one
// shard settle strictly in trace order — the PRNG draws of the sampled
// models happen here, so batching the encodes never perturbs them.
//
// Under the fault model, newCells is the intended encode throughout the
// accounting (the controller attempts to program it, so energy and wear
// charge the attempt); the stuck cells' frozen states are overlaid just
// before the commit, so the stored line is the physical view future
// writes diff against, while Verify checks the intended content —
// whose recoverability from the physical states the ECC classification
// has already established.
func (u *shard) settle(newCells, old []pcm.State, addr, ctr, seq uint64, data *memline.Line) error {
	sch := u.scheme
	m := &u.m
	m.Writes++
	var faultErr error
	if u.fm != nil {
		faultErr = u.repairFaults(newCells, old, u.wear.LineCounts(addr), addr, ctr, seq, data)
	}
	st, changed := u.opts.Energy.DiffWriteMask(old, newCells, sch.DataCells(), u.changed)
	m.Energy.Add(st)
	u.changed = changed
	m.EnergyHist.Observe(st.Energy())
	m.UpdatedHist.Observe(float64(st.Updated()))
	if u.wear != nil {
		u.wear.RecordChanged(addr, u.changed)
	}
	var sampler pcm.Sampler
	if u.rnd != nil {
		sampler = u.rnd
	}
	d := u.opts.Disturb.CountDisturb(newCells, u.changed, sch.DataCells(), sampler)
	m.Disturb.Add(d)
	if e := d.Errors(); e > m.MaxDisturb {
		m.MaxDisturb = e
	}
	if u.compressed(newCells) {
		m.CompressedWrites++
	}
	if u.opts.InjectFaults {
		u.runVnR(newCells, u.changed, u.opts.MaxVnRIterations, addr)
	}
	var verifyErr error
	if u.opts.Verify {
		got := &u.decodeBuf
		u.decodeCtr(newCells, addr, ctr, got)
		if !got.Equal(data) {
			m.DecodeErrors++
			verifyErr = fmt.Errorf("sim: %s: decode mismatch at addr %#x", sch.Name(), addr)
		}
	}
	if u.fm != nil {
		// Wear onset: cells crossing their endurance threshold freeze at
		// the state this write just programmed. Then persist the ECC
		// parity of the intended content and overlay the frozen states,
		// making newCells the physically stored line.
		u.fm.OnWrite(addr, u.changed, newCells, u.wear.LineCounts(addr))
		if ls := u.fm.Stuck(addr); ls != nil {
			u.fm.StoreParity(addr, newCells, &u.eccSc)
			ls.Overlay(newCells)
		}
	}
	// Swap the buffers: the freshly-encoded states become the stored
	// line; the previous stored line (or the first-touch initial vector)
	// becomes a future request's encode target.
	u.mem[addr] = newCells
	u.putSpare(old)
	if verifyErr != nil {
		return verifyErr
	}
	return faultErr
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
// counts is the line's live per-cell wear — addr-keyed on the scalar
// store, slot-keyed on the plane arena. Retirement re-draws the spare
// line's endurance thresholds above it, so both stores must feed the
// counters they actually record into, or their retirement timelines
// diverge.
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

// settlePlanes is settle on the plane-native path: the same model
// charges in the same order — fault repair, energy+endurance, wear,
// disturbance, compression classification, fault injection, Verify,
// stuck overlay, commit — with every step reading planes instead of
// cell vectors. The XOR diff of the stored and encoded planes doubles
// as the changed-cell mask for wear, disturbance exposure and the fault
// model, and the commit is a single 144-byte copy into the arena slot.
// Energy sums, histogram observations and PRNG draws are bit-identical
// to the scalar path, which the equivalence tests pin down: energy is
// grouped by target state on both paths (exact for integer models, see
// package pcm), and CountDisturbMasks visits exposed cells in the same
// ascending order as CountDisturb, because its draws and non-integer
// DER sums follow cell order.
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
	u.putPlaneSpare(newP)
	if verifyErr != nil {
		return verifyErr
	}
	return faultErr
}

// repairFaultsPlanes runs the write-verify fault check against plane
// storage. The no-mismatch fast path — every write on a healthy line,
// and most writes on stuck ones — costs one stuck-map lookup and a
// plane scan; an actual repair is rare, so it materializes both cell
// vectors, reuses the scalar repair pipeline verbatim (retry, ECC,
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
// scalar VnR loop consumes: dst[32w+i] = bit i of masks[w].
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
// On the plane path the healthy-line read decodes the arena slot
// directly; the fault path materializes cells for the ECC recovery.
func (u *shard) readLine(addr uint64, dst *memline.Line) (ok bool, err error) {
	var phys []pcm.State
	var ctr uint64
	if u.planeEnc != nil {
		slot, ok := u.arena.Lookup(addr)
		if !ok {
			return false, nil
		}
		planes := u.arena.Planes(slot)
		ctr = u.ctrOf(slot)
		if u.fm == nil {
			u.planeEnc.DecodeCtrPlanesInto(planes, addr, ctr, dst)
			return true, nil
		}
		phys = u.cellsOld[:u.scheme.TotalCells()]
		coset.UnpackLine(planes, phys)
	} else {
		if phys, ok = u.mem[addr]; !ok {
			return false, nil
		}
		ctr = u.ctrs[addr] // a nil map reads 0
	}
	cells := phys
	if u.fm != nil {
		if cap(u.vnrStored) < len(phys) {
			u.vnrStored = make([]pcm.State, len(phys))
			u.vnrRestore = make([]bool, len(phys))
		}
		rec, recOK := u.fm.Recover(addr, phys, u.vnrStored[:len(phys)], &u.eccSc)
		if !recOK {
			return true, fmt.Errorf("sim: %s: uncorrectable read at addr %#x", u.scheme.Name(), addr)
		}
		cells = rec
	}
	u.decodeCtr(cells, addr, ctr, dst)
	return true, nil
}

// eachResident calls fn with every line address resident in the shard's
// store — arena or scalar map — in unspecified order. Test and debug
// helper; the hot path never enumerates residency.
func (u *shard) eachResident(fn func(addr uint64)) {
	if u.arena != nil {
		for s := 0; s < u.arena.Len(); s++ {
			fn(u.arena.Addr(s))
		}
		return
	}
	for addr := range u.mem {
		fn(addr)
	}
}

// runHasAddr reports whether the open batch-encode run already contains
// a job for addr — the read-after-write hazard that forces a flush,
// since the repeated write's Old must be the first write's Dst.
func (u *shard) runHasAddr(addr uint64) bool {
	for k := range u.jobs {
		if u.jobs[k].Addr == addr {
			return true
		}
	}
	return false
}

// applyRun is the batch-encode form of apply: it replays a routed batch
// through this shard, pricing up to shardRunCap address-distinct lines
// per encodeBatch call so the scheme's SWAR tables load once per run
// instead of once per line, then settles each line in trace order. On a
// verification failure it stops and returns the failing request's global
// sequence number with the error; the remaining requests of the batch
// are not applied (the Engine freezes the shard).
func (u *shard) applyRun(rs []routedReq) (errSeq uint64, err error) {
	if u.planeEnc != nil {
		return u.applyRunPlanes(rs)
	}
	for j := range rs {
		rr := &rs[j]
		if u.runHasAddr(rr.req.Addr) {
			if seq, err := u.flushRun(); err != nil {
				return seq, err
			}
		}
		old, ctr := u.prepare(rr.req.Addr)
		u.jobs = append(u.jobs, core.EncodeJob{
			Dst:  u.takeSpare(),
			Old:  old,
			Addr: rr.req.Addr,
			Ctr:  ctr,
			Data: &rr.req.New,
		})
		u.jobSeqs = append(u.jobSeqs, rr.seq)
		if len(u.jobs) == shardRunCap {
			if seq, err := u.flushRun(); err != nil {
				return seq, err
			}
		}
	}
	return u.flushRun()
}

// flushRun encodes the open run in one batch call and settles each job
// in order. After a failed settle the remaining jobs are discarded
// unaccounted — their buffers return to the spare stack and their lines
// keep the pre-run states — so an erred shard's metrics cover exactly
// its trace prefix up to and including the failing request.
func (u *shard) flushRun() (errSeq uint64, err error) {
	if len(u.jobs) == 0 {
		return 0, nil
	}
	u.encodeBatch(u.jobs)
	for k := range u.jobs {
		j := &u.jobs[k]
		if err != nil {
			u.putSpare(j.Dst)
			continue
		}
		if e := u.settle(j.Dst, j.Old, j.Addr, j.Ctr, u.jobSeqs[k], j.Data); e != nil {
			err, errSeq = e, u.jobSeqs[k]
		}
	}
	u.jobs = u.jobs[:0]
	u.jobSeqs = u.jobSeqs[:0]
	return errSeq, err
}

// applyRunPlanes is applyRun on the plane-native path: the same
// shardRunCap batching and address-hazard flushes, with line state
// resolved through the arena slot index instead of the mem map.
func (u *shard) applyRunPlanes(rs []routedReq) (errSeq uint64, err error) {
	for j := range rs {
		rr := &rs[j]
		if u.planeRunHasAddr(rr.req.Addr) {
			if seq, err := u.flushRunPlanes(); err != nil {
				return seq, err
			}
		}
		slot, fresh := u.arena.Ensure(rr.req.Addr)
		u.planeJobs = append(u.planeJobs, planeJob{
			slot: slot,
			addr: rr.req.Addr,
			ctr:  u.nextCtr(slot, fresh),
			seq:  rr.seq,
			dst:  u.takePlaneSpare(),
			data: &rr.req.New,
		})
		if len(u.planeJobs) == shardRunCap {
			if seq, err := u.flushRunPlanes(); err != nil {
				return seq, err
			}
		}
	}
	return u.flushRunPlanes()
}

// planeRunHasAddr is runHasAddr for the plane batch-encode run.
func (u *shard) planeRunHasAddr(addr uint64) bool {
	for k := range u.planeJobs {
		if u.planeJobs[k].addr == addr {
			return true
		}
	}
	return false
}

// flushRunPlanes resolves the open run's old planes (safe now — no
// Ensure can land between here and the settles), batch-encodes, and
// settles each job in trace order; error semantics match flushRun.
func (u *shard) flushRunPlanes() (errSeq uint64, err error) {
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
			u.putPlaneSpare(j.dst)
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
// their array, the scalar store recycles its line buffers through the
// spare stack and keeps its map buckets, the counter map keeps its
// buckets, and the wear recorder keeps its count array — a
// reset-and-rerun (warm-up flows, repeated experiment phases) re-fills
// storage without rebuilding it.
func (u *shard) reset() {
	u.lineCtrs = u.lineCtrs[:0]
	if u.arena != nil {
		u.arena.Reset()
	} else {
		for addr, cells := range u.mem {
			u.putSpare(cells)
			delete(u.mem, addr)
		}
	}
	clear(u.ctrs)
	if u.wear != nil {
		u.wear.Clear()
	}
	if u.fm != nil {
		u.fm.Reset()
	}
	u.resetMetrics()
}
