package sim

import (
	"fmt"

	"wlcrc/internal/core"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
	"wlcrc/internal/trace"
)

// scalarOracle is the cell-vector reference store the Engine's plane
// arena must match bit for bit. It replays a trace one request at a
// time, in trace order per shard, keeping every line as a []pcm.State in
// an addr-keyed map and every write counter in an addr-keyed map,
// encoding with the cell codecs and charging energy and disturbance
// through the cell-level pcm.DiffWriteMask and CountDisturb.
//
// Everything else is borrowed from an Engine built with the same
// options, so PRNG substreams, fault maps, wear recorders and metric
// accumulators are identical by construction: request i goes to the
// shard e.shards[scheme*units+routeOf(addr)], the oracle charges that
// shard's metrics, and the shard's cell-level repairFaults and runVnR
// do the fault repair and Verify-and-Restore. The shard's arena is never
// touched, and the wear recorder is driven through its addr-keyed API.
// e.Metrics() and e.RetiredLines() then report the oracle's run.
type scalarOracle struct {
	e *Engine
	// mem[i] and ctrs[i] are scheme i's line store and counter store.
	mem  []map[uint64][]pcm.State
	ctrs []map[uint64]uint64
	// spare[i] is scheme i's free encode target: each write stores its
	// fresh buffer and recycles the line's previous one.
	spare [][]pcm.State
	// changed is the reusable differential-write mask.
	changed []bool
	// compressed[i] is scheme i's cell-vector write classifier.
	compressed []func([]pcm.State) bool
}

func newScalarOracle(opts Options, schemes ...core.Scheme) *scalarOracle {
	o := &scalarOracle{e: NewEngine(opts, schemes...)}
	for _, sch := range schemes {
		o.mem = append(o.mem, map[uint64][]pcm.State{})
		o.ctrs = append(o.ctrs, map[uint64]uint64{})
		o.spare = append(o.spare, nil)
		o.compressed = append(o.compressed, core.CompressedWriteFunc(sch))
	}
	return o
}

// Run replays src the way the Engine's serial dispatch does — in
// chunks of unitBatch requests, each chunk scheme-major so one scheme's
// tables and line map stay hot across it — and returns the error with
// the lowest sequence number, or the run's *DegradedError, as
// Engine.Run would. A shard whose write errs freezes, as in the Engine,
// so an erred shard's metrics cover exactly its prefix up to the
// failure; the other shards replay the whole trace, whereas the Engine
// leaves them at an unspecified prefix, so only the erred shards'
// metrics are comparable after an error.
func (o *scalarOracle) Run(src trace.Source) error {
	e := o.e
	chunk := make([]routedReq, 0, unitBatch)
	for seq, more := uint64(0), true; more; {
		chunk = chunk[:0]
		for len(chunk) < unitBatch {
			req, ok := src.Next()
			if !ok {
				more = false
				break
			}
			chunk = append(chunk, routedReq{seq: seq, req: req})
			seq++
		}
		for i := range e.schemes {
			for k := range chunk {
				rr := &chunk[k]
				u := e.shards[i*e.units+e.routeOf(rr.req.Addr)]
				if u.err != nil {
					continue // frozen after its first failure
				}
				if err := o.write(i, u, &rr.req, rr.seq); err != nil {
					u.err, u.errSeq = err, rr.seq
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
// settles it on shard u.
func (o *scalarOracle) write(i int, u *shard, req *trace.Request, seq uint64) error {
	n := u.scheme.TotalCells()
	addr := req.Addr
	old, ok := o.mem[i][addr]
	if !ok {
		old = core.InitialCells(n)
	}
	var ctr uint64
	if core.UsesCounters(u.scheme) {
		ctr = o.ctrs[i][addr] + 1
		o.ctrs[i][addr] = ctr
	}
	newCells := o.spare[i]
	if newCells == nil {
		newCells = make([]pcm.State, n)
	}
	u.encodeCtr(newCells, old, addr, ctr, &req.New)
	err := o.settle(i, u, newCells, old, addr, ctr, seq, &req.New)
	o.mem[i][addr] = newCells
	o.spare[i] = old
	return err
}

// settle charges the models in settlePlanes' order — fault repair,
// energy+endurance, wear, disturbance, compression classification,
// fault injection, Verify, wear onset and stuck overlay — on cell
// vectors.
func (o *scalarOracle) settle(i int, u *shard, newCells, old []pcm.State, addr, ctr, seq uint64, data *memline.Line) error {
	sch := u.scheme
	m := &u.m
	m.Writes++
	var faultErr error
	if u.fm != nil {
		faultErr = u.repairFaults(newCells, old, u.wear.LineCounts(addr), addr, ctr, seq, data)
	}
	st, changed := u.opts.Energy.DiffWriteMask(old, newCells, sch.DataCells(), o.changed)
	o.changed = changed
	m.Energy.Add(st)
	m.EnergyHist.Observe(st.Energy())
	m.UpdatedHist.Observe(float64(st.Updated()))
	if u.wear != nil {
		u.wear.RecordChanged(addr, changed)
	}
	var sampler pcm.Sampler
	if u.rnd != nil {
		sampler = u.rnd
	}
	d := u.opts.Disturb.CountDisturb(newCells, changed, sch.DataCells(), sampler)
	m.Disturb.Add(d)
	if e := d.Errors(); e > m.MaxDisturb {
		m.MaxDisturb = e
	}
	if o.compressed[i](newCells) {
		m.CompressedWrites++
	}
	if u.opts.InjectFaults {
		u.runVnR(newCells, changed, u.opts.MaxVnRIterations, addr)
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
		u.fm.OnWrite(addr, changed, newCells, u.wear.LineCounts(addr))
		if ls := u.fm.Stuck(addr); ls != nil {
			u.fm.StoreParity(addr, newCells, &u.eccSc)
			ls.Overlay(newCells)
		}
	}
	if verifyErr != nil {
		return verifyErr
	}
	return faultErr
}
