package sim

import (
	"fmt"

	"wlcrc/internal/core"
	"wlcrc/internal/coset"
	"wlcrc/internal/fault"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
	"wlcrc/internal/trace"
)

// scalarOracle is the cell-vector reference store the Engine's plane
// arena must match bit for bit. It replays a trace one request at a
// time, in trace order per unit, keeping every line as a []pcm.State in
// an addr-keyed map and every write counter in an addr-keyed map,
// encoding through the store's plane codec on packed cells (the codecs
// themselves are held to per-cell references in internal/core), and
// charging energy and disturbance through the cell-level
// pcm.DiffWriteMask and CountDisturb.
//
// Everything else is borrowed from an Engine built with the same
// options, so PRNG substreams, fault maps, wear recorders and metric
// accumulators are identical by construction: request i goes to the
// unit record and store of e.unitOf(scheme, routeOf(addr)), the oracle
// charges that store's metrics and that unit's float sums, the
// oracle's own cell-level repairFaults does the fault repair, and its
// own cell-level runVnR does Verify-and-Restore. The store's arena is
// never touched: the oracle hands the wear recorder slots of its own,
// assigned per store in first-touch order. e.Metrics() and
// e.RetiredLines() then report the oracle's run.
type scalarOracle struct {
	e *Engine
	// mem[i] and ctrs[i] are scheme i's line store and counter store.
	mem  []map[uint64][]pcm.State
	ctrs []map[uint64]uint64
	// spare[i] is scheme i's free encode target: each write stores its
	// fresh buffer and recycles the line's previous one.
	spare [][]pcm.State
	// changed is the reusable differential-write mask, and masks its
	// plane-mask form for the wear recorder.
	changed []bool
	masks   []uint64
	// slots[s] is store s's first-touch wear slot of each address.
	slots map[*store]map[uint64]int
	// vnrStored, vnrRestore and vnrHits are runVnR's reusable buffers.
	vnrStored  []pcm.State
	vnrRestore []bool
	vnrHits    []int
	// compressed[i] is scheme i's cell-vector write classifier.
	compressed []func([]pcm.State) bool
	// oldP/newP are the plane scratch the cell codec packs through,
	// sized for the widest scheme.
	oldP, newP []uint64
}

func newScalarOracle(opts Options, schemes ...core.Scheme) *scalarOracle {
	o := &scalarOracle{e: NewEngine(opts, schemes...), slots: map[*store]map[uint64]int{}}
	width := 0
	for _, sch := range schemes {
		o.mem = append(o.mem, map[uint64][]pcm.State{})
		o.ctrs = append(o.ctrs, map[uint64]uint64{})
		o.spare = append(o.spare, nil)
		o.compressed = append(o.compressed, core.CompressedWriteFunc(sch))
		width = max(width, coset.PlaneWords(sch.TotalCells()))
	}
	o.oldP, o.newP = make([]uint64, width), make([]uint64, width)
	o.masks = make([]uint64, width/2)
	return o
}

// slot returns s's wear slot of addr, assigning the next one on first
// touch.
func (o *scalarOracle) slot(s *store, addr uint64) int {
	sl, ok := o.slots[s]
	if !ok {
		sl = map[uint64]int{}
		o.slots[s] = sl
	}
	slot, ok := sl[addr]
	if !ok {
		slot = len(sl)
		sl[addr] = slot
	}
	return slot
}

// encode is the oracle's cell codec: s's keyed plane encode on the
// packed old cells, unpacked into dst.
func (o *scalarOracle) encode(s *store, dst, old []pcm.State, addr, ctr uint64, data *memline.Line) {
	n := coset.PlaneWords(len(old))
	coset.PackLine(old, o.oldP[:n])
	s.planeEnc.EncodeCtrPlanesInto(o.newP[:n], o.oldP[:n], addr, ctr, data)
	coset.UnpackLine(o.newP[:n], dst)
}

// encodeStuck is encode through s's stuck-aware plane encode.
func (o *scalarOracle) encodeStuck(s *store, dst, old []pcm.State, data *memline.Line, ls *fault.LineStuck) bool {
	n := coset.PlaneWords(len(old))
	coset.PackLine(old, o.oldP[:n])
	ok := s.encodeStuck(o.newP[:n], o.oldP[:n], data, ls)
	coset.UnpackLine(o.newP[:n], dst)
	return ok
}

// decode is the decode side of encode.
func (o *scalarOracle) decode(s *store, cells []pcm.State, addr, ctr uint64, dst *memline.Line) {
	n := coset.PlaneWords(len(cells))
	coset.PackLine(cells, o.newP[:n])
	s.planeEnc.DecodeCtrPlanesInto(o.newP[:n], addr, ctr, dst)
}

// Run replays src the way a one-worker Engine does — in chunks of
// ingestChunkCap requests, each chunk scheme-major so one scheme's
// tables and line map stay hot across it — and returns the error with
// the lowest sequence number, or the run's *DegradedError, as
// Engine.Run would. A unit whose write errs freezes, as in the Engine,
// so an erred unit's requests are applied exactly up to the failure;
// the other units replay the whole trace, whereas the Engine leaves
// them at an unspecified prefix, so only an erred unit's state is
// comparable after an error.
func (o *scalarOracle) Run(src trace.Source) error {
	e := o.e
	chunk := make([]routedReq, 0, ingestChunkCap)
	for seq, more := uint64(0), true; more; {
		chunk = chunk[:0]
		for len(chunk) < ingestChunkCap {
			req, ok := src.Next()
			if !ok {
				more = false
				break
			}
			chunk = append(chunk, routedReq{seq: seq, addr: req.Addr, data: req.New})
			seq++
		}
		for i := range e.schemes {
			for k := range chunk {
				rr := &chunk[k]
				s, un := e.unitOf(i, e.routeOf(rr.addr))
				if un.err != nil {
					continue // frozen after its first failure
				}
				if err := o.write(i, s, un, rr); err != nil {
					un.err, un.errSeq = err, rr.seq
				}
			}
		}
	}
	if err := e.firstError(); err != nil {
		return err
	}
	return degradedError(e.Metrics(), e.opts.Faults)
}

// write encodes one request for scheme i against the stored cells and
// settles it on store s for unit un, whose float sums it lends to s's
// metrics for the write as store.applyRun does.
func (o *scalarOracle) write(i int, s *store, un *unit, rr *routedReq) error {
	n := s.scheme.TotalCells()
	addr := rr.addr
	old, ok := o.mem[i][addr]
	if !ok {
		old = core.InitialCells(n)
	}
	var ctr uint64
	if core.UsesCounters(s.scheme) {
		ctr = o.ctrs[i][addr] + 1
		o.ctrs[i][addr] = ctr
	}
	newCells := o.spare[i]
	if newCells == nil {
		newCells = make([]pcm.State, n)
	}
	o.encode(s, newCells, old, addr, ctr, &rr.data)
	un.sums.lend(&s.m)
	err := o.settle(i, s, un, newCells, old, addr, ctr, rr.seq, &rr.data)
	un.sums.take(&s.m)
	o.mem[i][addr] = newCells
	o.spare[i] = old
	return err
}

// settle charges the models in settlePlanes' order — fault repair,
// energy+endurance, wear, disturbance, compression classification,
// fault injection, Verify, wear onset and stuck overlay — on cell
// vectors.
func (o *scalarOracle) settle(i int, s *store, un *unit, newCells, old []pcm.State, addr, ctr, seq uint64, data *memline.Line) error {
	sch := s.scheme
	m := &s.m
	m.Writes++
	var faultErr error
	slot := o.slot(s, addr)
	if un.fm != nil {
		faultErr = o.repairFaults(s, un, newCells, old, s.wear.SlotCounts(slot), addr, ctr, seq, data)
	}
	st, changed := s.opts.Energy.DiffWriteMask(old, newCells, sch.DataCells(), o.changed)
	o.changed = changed
	m.Energy.Add(st)
	m.EnergyHist.Observe(st.Energy())
	m.UpdatedHist.Observe(float64(st.Updated()))
	if s.wear != nil {
		masks := o.masks[:coset.PlaneWords(len(changed))/2]
		clear(masks)
		for c, ch := range changed {
			if ch {
				masks[c/32] |= 1 << uint(c%32)
			}
		}
		s.wear.RecordSlotMasks(slot, masks)
	}
	var sampler pcm.Sampler
	if un.rnd != nil {
		sampler = un.rnd
	}
	d := s.opts.Disturb.CountDisturb(newCells, changed, sch.DataCells(), sampler)
	m.Disturb.Add(d)
	if e := d.Errors(); e > m.MaxDisturb {
		m.MaxDisturb = e
	}
	if o.compressed[i](newCells) {
		m.CompressedWrites++
	}
	if s.opts.InjectFaults {
		o.runVnR(s, un, newCells, changed, addr)
	}
	var verifyErr error
	if s.opts.Verify {
		got := &s.decodeBuf
		o.decode(s, newCells, addr, ctr, got)
		if !got.Equal(data) {
			m.DecodeErrors++
			verifyErr = fmt.Errorf("sim: %s: decode mismatch at addr %#x", sch.Name(), addr)
		}
	}
	if un.fm != nil {
		un.fm.OnWrite(addr, changed, newCells, s.wear.SlotCounts(slot))
		if ls := un.fm.Stuck(addr); ls != nil {
			un.fm.StoreParity(addr, newCells, &s.eccSc)
			ls.Overlay(newCells)
		}
	}
	if verifyErr != nil {
		return verifyErr
	}
	return faultErr
}

// repairFaults is the cell-vector reference of the store's
// repairFaultsPlanes: the same recourses in the same order (stuck-aware
// retry, ECC, retirement, uncorrectable), with the retry and the
// re-encodes run through the oracle's cell codec and retirement
// resetting old to the all-S1 vector. counts is the line's live
// per-cell wear.
func (o *scalarOracle) repairFaults(s *store, un *unit, newCells, old []pcm.State, counts []uint32, addr, ctr, seq uint64, data *memline.Line) error {
	ls := un.fm.Stuck(addr)
	if ls == nil || ls.MismatchCount(newCells) == 0 {
		return nil
	}
	st := &un.fm.Stats
	st.Detected++
	if s.encodeStuck != nil {
		st.Retries++
		if o.encodeStuck(s, newCells, old, data, ls) {
			st.RetriedOK++
			return nil
		}
		o.encode(s, newCells, old, addr, ctr, data)
	}
	if bits, ok := un.fm.Correct(newCells, ls, &s.eccSc); ok {
		st.CorrectedBits += uint64(bits)
		st.CorrectedWrites++
		return nil
	}
	if un.fm.Retire(addr, counts, seq) {
		for i := range old {
			old[i] = pcm.S1
		}
		o.encode(s, newCells, old, addr, ctr, data)
		return nil
	}
	st.Uncorrectable++
	if s.opts.FailFast {
		return fmt.Errorf("sim: %s: uncorrectable stuck-at fault at addr %#x (%d stuck cells exceed the %d-bit ECC budget, spare pool empty)",
			s.scheme.Name(), addr, ls.N, un.fm.ECC().BudgetBits())
	}
	return nil
}

// runVnR is the cell-vector reference of the store's plane-mask runVnR:
// it injects disturbance faults for a completed write and repairs them
// on a stored copy, cell by cell. cells is the freshly-programmed state
// vector (the intended content); changed marks the cells this write
// programmed. Each round corrupts the hits to S2, restores every cell
// that then disagrees with cells, and redraws the disturbance of the
// restore writes, up to Options.MaxVnRIterations rounds; residual hits
// at the cap are injected as stuck at S2 when the fault model is on.
func (o *scalarOracle) runVnR(s *store, un *unit, cells []pcm.State, changed []bool, addr uint64) {
	m := &s.m
	if cap(o.vnrStored) < len(cells) {
		o.vnrStored = make([]pcm.State, len(cells))
		o.vnrRestore = make([]bool, len(cells))
	}
	stored := o.vnrStored[:len(cells)]
	copy(stored, cells)
	// Initial disturbance from the write itself.
	hits := s.opts.Disturb.DisturbedCellsInto(o.vnrHits, stored, changed, un.rnd)
	m.VnR.InjectedErrors += uint64(len(hits))
	iter := 0
	for len(hits) > 0 && iter < s.opts.MaxVnRIterations {
		iter++
		// Corrupt: disturbance drives cells to the SET state.
		for _, i := range hits {
			stored[i] = pcm.S2
		}
		// Verify (read-after-write) finds every mismatch vs the
		// intended content; restore rewrites those cells.
		restore := o.vnrRestore[:len(cells)]
		nRestore := 0
		for i := range stored {
			restore[i] = false
			if stored[i] != cells[i] {
				restore[i] = true
				stored[i] = cells[i]
				nRestore++
				m.VnR.RestoreEnergyPJ += s.opts.Energy.WriteEnergy(cells[i])
			}
		}
		m.VnR.RestoreWrites += uint64(nRestore)
		// The restore writes are RESET events of their own: they may
		// disturb idle neighbors again.
		hits = s.opts.Disturb.DisturbedCellsInto(hits, stored, restore, un.rnd)
		m.VnR.InjectedErrors += uint64(len(hits))
	}
	o.vnrHits = hits[:0]
	m.VnR.Iterations += uint64(iter)
	if iter > m.VnR.MaxIterations {
		m.VnR.MaxIterations = iter
	}
	if len(hits) == 0 {
		return
	}
	m.VnR.Residual += uint64(len(hits))
	if un.fm == nil {
		return
	}
	injected := 0
	for _, c := range hits {
		if un.fm.InjectStuck(addr, c, pcm.S2) {
			injected++
		}
	}
	if injected == 0 {
		return
	}
	if _, ok := un.fm.Correct(cells, un.fm.Stuck(addr), &s.eccSc); !ok {
		un.fm.Stats.Uncorrectable++
	}
}
