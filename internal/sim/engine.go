package sim

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wlcrc/internal/core"
	"wlcrc/internal/fault"
	"wlcrc/internal/memsys"
	"wlcrc/internal/prng"
	"wlcrc/internal/trace"
)

// unitBatch is the per-routing-unit batch capacity: the number of
// requests the dispatcher accumulates for one (bank, sub-shard) unit
// before handing the batch to the unit's owner. Large enough to
// amortize channel traffic and to give the shard batch-encode path
// multi-line runs, small enough to bound how far a Snapshot can lag and
// to keep workers busy on short traces.
const unitBatch = 128

// unitChanCap is each worker's batch-queue capacity. With per-unit
// batches a worker multiplexes many units over one channel, so the
// queue holds more, smaller batches than the old per-worker batching.
const unitChanCap = 16

// progressStride is how many dispatched requests pass between clock
// checks for the Progress callback — the dispatch loop never reads the
// clock more than once per stride. Must be a power of two.
const progressStride = 1024

// Engine is the concurrent sharded replay pipeline. It maintains one
// shard per (scheme, bank, sub-shard) triple — the bank comes from the
// configured memsys geometry, exactly the interleaving the Table II
// memory controller uses, and each bank is further split into
// address-interleaved sub-shards (memsys.Config.SubShards) so the
// worker count is not capped at the bank count — and streams the trace
// through per-worker queues.
//
// Dispatch is routed, not broadcast: every routing unit (bank,
// sub-shard) is owned by exactly one worker (unit mod workers, all
// schemes of the unit together), and the dispatcher appends each
// request only to its unit's pending batch. A request therefore crosses
// one channel once, so channel traffic is O(batches), and a worker only
// ever sees requests it will actually apply. Hand-off is double-
// buffered and pipelined: when a batch fills, the dispatcher first
// tries a non-blocking send and otherwise parks the batch in the unit's
// ready slot and keeps routing into a fresh buffer — it only blocks
// when a unit has both a parked and a newly-filled batch waiting, so a
// momentarily busy worker does not stall the routing of everyone
// else's requests. Batch buffers recycle through a free list: workers
// return drained buffers, the dispatcher reuses them, and an
// arbitrarily long streamed trace runs with zero steady-state
// dispatcher allocations.
//
// When Options.IngestRouters resolves above zero, reading and routing
// move off the Run goroutine entirely: the ingest stage (ingest.go)
// pulls sequence-stamped chunks from the source, pre-routes them into
// per-unit sub-batches on K router goroutines, and Run reassembles the
// chunks in order into the same pending/ready buffers — identical
// hand-off order, so identical results, with the front-end off the
// critical path.
//
// Workers drain their queue one unit-batch at a time and replay it
// scheme-major through the shard batch-encode path (shard.applyRun):
// all of one scheme's state — SWAR cost tables, coset selectors, the
// shard's line map — stays hot across the whole batch instead of being
// evicted by the next scheme's on every request.
//
// Determinism: results never depend on Options.Workers. Unit ownership
// is static and sub-shard assignment depends only on the address, so
// every shard sees its lines' requests in trace order (the dispatcher
// reads the source sequentially, batches of one unit traverse one
// channel in fill order, and a worker drains its queue FIFO); each
// shard's PRNG substream is seeded only from (Options.Seed, scheme,
// unit); and Metrics folds the shards in fixed (scheme, bank,
// sub-shard) order. Workers = 1 is therefore the serial mode of the
// same engine, and a parallel run is bit-identical to it — floats
// included.
//
// Observability: Snapshot may be called from any goroutine while Run is
// executing — workers publish a copy of each shard's metrics after every
// batch, so a snapshot lags a shard by at most one in-flight batch — and
// Options.Progress delivers live dispatcher throughput. Run, Metrics and
// the Reset methods themselves must still not be called concurrently
// with each other.
type Engine struct {
	opts      Options
	schemes   []core.Scheme
	geo       memsys.Config
	banks     int
	subShards int
	units     int // banks * subShards
	workers   int
	// shards[i*units+u] is scheme i's view of routing unit u; unit
	// u = bank*subShards + subShard.
	shards []*shard
	// workerReqs[w] counts the requests worker w applied during the last
	// Run — each worker owns its slot, and post-Run readers see the
	// final values after the worker WaitGroup settles. It backs the
	// engaged-worker reporting (and the regression test that uncapped
	// worker counts actually spread work past the bank count).
	workerReqs []uint64
	// freeBufs recycles batch buffers across batches and across Run
	// calls (warm-up then measure reuses the same buffers). A buffered
	// channel instead of a sync.Pool: the pool sheds items under GC
	// pressure (and randomly under the race detector), while the
	// channel's capacity covers every buffer that can be in flight at
	// once, so steady state is allocation-free unconditionally.
	freeBufs chan *[]routedReq
	// ingest is the resolved ingest-router count (0 = classic in-line
	// dispatch). freeChunks recycles ingest chunks the way freeBufs
	// recycles batch buffers, and doubles as the in-flight bound: a
	// router blocks for a free chunk before reading, so at most
	// cap(freeChunks) chunk sequences are ever outstanding — which is
	// what lets the reassembly ring index by seq modulo that capacity.
	ingest     int
	freeChunks chan *ingestChunk
}

// NewEngine builds a sharded engine for the given schemes. Worker count
// and bank/sub-shard geometry come from opts (zero values mean all CPUs
// and the Table II geometry with its default sub-shard split). The
// worker count is capped only at the total routing-unit count —
// banks x sub-shards, 256 under Table II — not at the bank count; the
// resolved value is reported by Workers and in every Progress callback.
func NewEngine(opts Options, schemes ...core.Scheme) *Engine {
	if opts.MaxVnRIterations == 0 {
		opts.MaxVnRIterations = 16
	}
	geo := opts.Geometry
	if geo.Banks() <= 0 {
		geo = memsys.TableII()
	}
	units := geo.RouteUnits()
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > units {
		workers = units
	}
	e := &Engine{
		opts:       opts,
		schemes:    schemes,
		geo:        geo,
		banks:      geo.Banks(),
		subShards:  geo.SubShardsPerBank(),
		units:      units,
		workers:    workers,
		workerReqs: make([]uint64, workers),
	}
	// Worst-case buffers in flight: one pending + one parked per unit,
	// plus each worker's full queue and the batch it is draining.
	e.freeBufs = make(chan *[]routedReq, 2*units+workers*(unitChanCap+1))
	e.ingest = resolveIngestRouters(opts.IngestRouters, runtime.GOMAXPROCS(0))
	if e.ingest > 0 {
		// Enough chunks that every router holds one, the routed channel
		// can buffer one per router, and the reassembly keeps a couple in
		// hand — prefilled so steady state never allocates a chunk.
		e.freeChunks = make(chan *ingestChunk, 2*e.ingest+2)
		for i := 0; i < cap(e.freeChunks); i++ {
			e.freeChunks <- newIngestChunk()
		}
	}
	e.shards = make([]*shard, len(schemes)*units)
	sampled := opts.SampleDisturb || opts.InjectFaults
	var ecc *fault.ECC
	var fcfg fault.Config
	if opts.Faults.Enabled {
		fcfg = opts.Faults.WithDefaults()
		ecc = fault.NewECC(fcfg.ECCBits)
	}
	for i, sch := range schemes {
		for u := 0; u < units; u++ {
			var rnd *prng.Xoshiro256
			var fm *fault.Map
			if sampled || opts.Faults.Enabled {
				r := prng.New(shardSeed(opts.Seed, i, u))
				if opts.Faults.Enabled {
					// The fault map's threshold seed is the first draw of
					// the shard's PRNG substream; static defects route to
					// the unit that owns their address. The substream is
					// handed to the shard only when disturbance sampling
					// asked for it, so fault-only runs keep deterministic
					// expected-value disturb accounting.
					fm = fault.NewMap(fcfg, r.Uint64(), sch.TotalCells(), ecc)
					for _, sc := range fcfg.Static {
						if e.routeOf(sc.Addr) == u {
							fm.SeedStatic(sc)
						}
					}
				}
				if sampled {
					rnd = r
				}
			}
			e.shards[i*units+u] = newShard(&e.opts, sch, rnd, fm)
		}
	}
	return e
}

// shardSeed derives the PRNG seed of shard (scheme, unit) from the run
// seed. The substreams must be decorrelated (adjacent integer seeds feed
// SplitMix64, whose output is well-mixed) and must depend only on the
// run seed and the shard coordinates — never on scheduling.
func shardSeed(seed uint64, scheme, unit int) uint64 {
	sm := prng.NewSplitMix64(seed ^ (0x9e3779b97f4a7c15 * (uint64(scheme)<<20 + uint64(unit) + 1)))
	return sm.Uint64()
}

// Workers returns the resolved worker count: Options.Workers clamped to
// [1, Units()], with 0 resolved to the CPU count.
func (e *Engine) Workers() int { return e.workers }

// Banks returns the number of banks the address space is sharded over.
func (e *Engine) Banks() int { return e.banks }

// SubShards returns the number of address-interleaved sub-shards per
// bank.
func (e *Engine) SubShards() int { return e.subShards }

// Units returns the total routing-unit count (banks x sub-shards), the
// upper bound on useful worker counts.
func (e *Engine) Units() int { return e.units }

// IngestRouters returns the resolved ingest-router count: 0 means Run
// reads and routes the source in-line on its own goroutine (the classic
// dispatcher), N > 0 means N parallel pre-routing goroutines feed it
// (Options.IngestRouters documents the resolution rule). Like Workers,
// the value never affects results, only wall-clock time.
func (e *Engine) IngestRouters() int { return e.ingest }

// routeOf maps an address to its routing unit. It must agree with the
// geometry's memsys.Config.RouteOf — the engine keeps the resolved
// counts as plain ints so the dispatch loop's hottest instruction
// sequence stays two integer divisions (FuzzRouteSubShard asserts the
// agreement).
func (e *Engine) routeOf(addr uint64) int {
	banks := uint64(e.banks)
	k := uint64(e.subShards)
	return int((addr%banks)*k + (addr/banks)%k)
}

// routedReq is one request annotated with its global trace sequence
// number (for deterministic error ordering).
type routedReq struct {
	seq uint64
	req trace.Request
}

// batch is one dispatched group of requests for a single routing unit.
// The buffer is owned by the receiving worker until it returns it to
// the engine's pool.
type batch struct {
	unit int32
	reqs *[]routedReq
}

// Run drains a source through the engine, stopping after max requests
// when max > 0. With ingest disabled the source is read sequentially on
// the calling goroutine; with ingest routers the source is read in
// chunks (batched through trace.Batched when it is not already a
// trace.BatchSource), pre-routed in parallel, and reassembled in
// sequence here — either way each request is routed to the single
// worker owning its (bank, sub-shard) unit, travels in pooled batch
// buffers, and the results are bit-identical.
//
// On a verification failure the engine stops reading the source,
// flushes every pending batch (so all requests read before the stop are
// applied), lets workers drain, and returns the error of the earliest
// failing request in trace order — deterministic even though the
// failure is detected concurrently: the globally-first failing request
// was necessarily read before any failure that could trigger a stop,
// so it is always dispatched and applied. A shard that erred freezes,
// so its own metrics cover exactly its prefix up to the failure;
// metrics of other shards cover an unspecified prefix of the tail,
// since how many requests were read before the stop depends on timing.
// Metrics of error-free runs are always exact and worker-count
// independent.
func (e *Engine) Run(src trace.Source, max int) error {
	return e.RunContext(context.Background(), src, max)
}

// RunContext is Run with cooperative cancellation. The dispatch loop
// (serial or ingest) checks ctx between requests: on cancellation it
// stops reading the source, the already-dispatched batches drain
// through the workers normally (the queues are bounded, so the drain is
// prompt), and RunContext returns ctx.Err() — the merged metrics then
// cover exactly the requests read before the stop, applied to every
// scheme alike. A background context costs one nil check per request.
func (e *Engine) RunContext(ctx context.Context, src trace.Source, max int) error {
	e.reserveLines(src, max)
	done := ctx.Done()
	chans := make([]chan batch, e.workers)
	for i := range chans {
		chans[i] = make(chan batch, unitChanCap)
	}
	for w := range e.workerReqs {
		e.workerReqs[w] = 0
	}
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := range chans[w] {
				e.workerReqs[w] += uint64(len(*b.reqs))
				e.applyUnitBatch(b, &failed)
				*b.reqs = (*b.reqs)[:0]
				e.putBuf(b.reqs)
				e.publishUnit(int(b.unit))
			}
		}(w)
	}

	var (
		start = time.Now()
		queue []int
	)

	// pending[u] is unit u's filling buffer; ready[u] is a filled batch
	// parked when the owner's queue was momentarily full (the second
	// half of the double buffer). Per unit, ready is always older than
	// pending, and both drain before anything newer — FIFO per unit is
	// what per-shard trace order rests on.
	pending := make([]*[]routedReq, e.units)
	ready := make([]*[]routedReq, e.units)
	var seq uint64
	if e.ingest > 0 {
		seq = e.dispatchIngest(trace.Batched(src), max, chans, pending, ready, &failed, done, start)
	} else {
		seq = e.dispatchSerial(src, max, chans, pending, ready, &failed, done, start)
	}
	// Flush every parked and pending batch — even when stopping on a
	// failure. Determinism of the reported error depends on it: the
	// earliest failing request overall was read before the (later)
	// failure whose detection triggered the stop, so it sits in an
	// already-dispatched batch or in one of these buffers, and flushing
	// guarantees it is applied and recorded.
	for u := 0; u < e.units; u++ {
		w := u % e.workers
		if r := ready[u]; r != nil {
			chans[w] <- batch{unit: int32(u), reqs: r}
			ready[u] = nil
		}
		if p := pending[u]; p != nil && len(*p) > 0 {
			chans[w] <- batch{unit: int32(u), reqs: p}
			pending[u] = nil
		}
	}
	for _, c := range chans {
		close(c)
	}
	wg.Wait()
	if e.opts.Progress != nil {
		if queue == nil {
			queue = make([]int, e.workers)
		}
		for i := range queue {
			queue[i] = 0
		}
		e.opts.Progress(Progress{
			Dispatched: seq,
			Elapsed:    time.Since(start),
			Workers:    e.workers,
			QueueDepth: queue,
			Done:       true,
		})
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := e.firstError(); err != nil {
		return err
	}
	return degradedError(e.Metrics(), e.opts.Faults)
}

// reserveLineCap bounds the per-shard arena preallocation a Count()
// hint can request. The request count only upper-bounds the distinct
// lines (most traces rewrite heavily), so the hint is treated as a
// growth-churn saver, not a sizing guarantee — past the cap, the
// arena's amortized doubling takes over.
const reserveLineCap = 4096

// reserveLines sizes every shard's arena from the source's request
// count when it advertises one (mmap-backed and pre-parsed sources
// implement Count). Shards partition the address space, so each gets
// the per-unit share.
func (e *Engine) reserveLines(src trace.Source, max int) {
	c, ok := src.(interface{ Count() uint64 })
	if !ok {
		return
	}
	n := c.Count()
	if max > 0 && uint64(max) < n {
		n = uint64(max)
	}
	hint := int(n/uint64(e.units)) + 1
	if hint > reserveLineCap {
		hint = reserveLineCap
	}
	for _, u := range e.shards {
		u.reserve(hint)
	}
}

// canceled reports whether done is closed without blocking; a nil done
// (context.Background) is never canceled.
func canceled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// dispatchSerial is the classic in-line dispatch loop: read one request
// per Source.Next on this goroutine, route it, and hand off per-unit
// batches as they fill. It returns the number of requests dispatched.
// dispatchIngest (ingest.go) is the parallel front-end that replaces it
// when ingest routers are configured; the two must fill the per-unit
// pending buffers with identical content in identical order.
func (e *Engine) dispatchSerial(src trace.Source, max int, chans []chan batch,
	pending, ready []*[]routedReq, failed *atomic.Bool, done <-chan struct{}, start time.Time) uint64 {
	var (
		lastTick = start
		interval = e.opts.ProgressInterval
		queue    []int
	)
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	var seq uint64
	n := 0
	for !failed.Load() && !canceled(done) {
		if max > 0 && n >= max {
			break
		}
		req, ok := src.Next()
		if !ok {
			break
		}
		u := e.routeOf(req.Addr)
		p := pending[u]
		if p == nil {
			p = e.getBuf()
			pending[u] = p
		}
		*p = append(*p, routedReq{seq: seq, req: req})
		seq++
		n++
		if len(*p) == unitBatch {
			e.handOff(chans[u%e.workers], ready, u, p)
			pending[u] = nil
		}
		if e.opts.Progress != nil && seq&(progressStride-1) == 0 {
			if now := time.Now(); now.Sub(lastTick) >= interval {
				lastTick = now
				if queue == nil {
					queue = make([]int, e.workers)
				}
				for i, c := range chans {
					queue[i] = len(c)
				}
				e.opts.Progress(Progress{
					Dispatched: seq,
					Elapsed:    now.Sub(start),
					Workers:    e.workers,
					QueueDepth: queue,
				})
			}
		}
	}
	return seq
}

// getBuf pops a recycled batch buffer, allocating only while the
// free-list is still filling (cold start).
func (e *Engine) getBuf() *[]routedReq {
	select {
	case p := <-e.freeBufs:
		return p
	default:
		s := make([]routedReq, 0, unitBatch)
		return &s
	}
}

// putBuf returns a drained buffer to the free-list. The capacity covers
// every buffer that can exist at once, but a non-blocking send keeps the
// invariant local: worst case the buffer is dropped to the GC.
func (e *Engine) putBuf(p *[]routedReq) {
	select {
	case e.freeBufs <- p:
	default:
	}
}

// handOff pipelines a filled batch to unit u's owner: the unit's parked
// batch (older) goes first — blocking only if the owner is still
// backlogged — then the fresh batch is sent without blocking, or parked
// in the ready slot so the dispatcher can keep routing while the owner
// drains.
func (e *Engine) handOff(ch chan batch, ready []*[]routedReq, u int, p *[]routedReq) {
	if r := ready[u]; r != nil {
		ch <- batch{unit: int32(u), reqs: r}
		ready[u] = nil
	}
	select {
	case ch <- batch{unit: int32(u), reqs: p}:
	default:
		ready[u] = p
	}
}

// applyUnitBatch replays one routed unit-batch scheme-major: every
// request in the batch maps to the single (bank, sub-shard) unit owned
// by the receiving worker, and all schemes' shards of that unit share
// the owner, so no other goroutine ever touches the shards referenced
// here. Replaying the whole batch through one scheme before the next
// keeps that scheme's tables and line map hot, and hands the shard
// batch-encode path runs of multiple lines per scheme call.
func (e *Engine) applyUnitBatch(b batch, failed *atomic.Bool) {
	rs := *b.reqs
	unit := int(b.unit)
	for i := range e.schemes {
		u := e.shards[i*e.units+unit]
		if u.err != nil {
			continue // frozen after its first failure
		}
		if seq, err := u.applyRun(rs); err != nil {
			u.err = err
			u.errSeq = seq
			failed.Store(true)
		}
	}
}

// publishUnit refreshes the snapshot copies of every scheme's shard of
// one routing unit (cheap for shards without new writes). Each batch
// touches exactly one unit, so publishing per batch covers every
// mutation.
func (e *Engine) publishUnit(unit int) {
	for i := range e.schemes {
		e.shards[i*e.units+unit].publishIfDirty()
	}
}

// firstError returns the recorded error with the lowest sequence number
// (ties broken by shard index), or nil.
func (e *Engine) firstError() error {
	var err error
	var errSeq uint64
	for _, u := range e.shards {
		if u.err != nil && (err == nil || u.errSeq < errSeq) {
			err, errSeq = u.err, u.errSeq
		}
	}
	return err
}

// Metrics merges the shards of every scheme, in fixed (bank, sub-shard)
// order, and returns the per-scheme metrics index-aligned with the
// schemes passed to NewEngine. It reads the live accumulators and must
// not be called concurrently with Run — use Snapshot for that.
func (e *Engine) Metrics() []Metrics {
	out := make([]Metrics, len(e.schemes))
	for i, sch := range e.schemes {
		m := newMetrics(sch.Name())
		for u := 0; u < e.units; u++ {
			m.Merge(e.shards[i*e.units+u].metricsView())
		}
		out[i] = m
	}
	return out
}

// Snapshot merges the per-shard published metric copies, in the same
// fixed order as Metrics, and is safe to call from any goroutine
// while Run is executing. Workers publish after every batch, so a
// snapshot lags each shard by at most one in-flight batch; once Run has
// returned, Snapshot and Metrics agree exactly. Counters within one
// scheme are mutually consistent per shard (each publish is an atomic
// copy under the shard's lock), and Writes per scheme is monotonically
// non-decreasing across snapshots.
func (e *Engine) Snapshot() []Metrics {
	out := make([]Metrics, len(e.schemes))
	for i, sch := range e.schemes {
		m := newMetrics(sch.Name())
		for u := 0; u < e.units; u++ {
			m.Merge(e.shards[i*e.units+u].snapshot())
		}
		out[i] = m
	}
	return out
}

// MetricsFor returns the merged metrics of the named scheme.
func (e *Engine) MetricsFor(name string) (Metrics, bool) {
	for i, sch := range e.schemes {
		if sch.Name() == name {
			return e.Metrics()[i], true
		}
	}
	return Metrics{}, false
}

// ResetMetrics clears the accumulated metrics (wear counts included;
// the tracked footprint stays) but keeps every shard's memory state —
// used after a warm-up phase so reported numbers reflect steady-state
// behavior rather than cold first writes.
func (e *Engine) ResetMetrics() {
	for _, u := range e.shards {
		u.resetMetrics()
	}
}

// Reset clears metrics and memory state (schemes and PRNG positions are
// kept; build a fresh Engine for an independent randomized run).
func (e *Engine) Reset() {
	for _, u := range e.shards {
		u.reset()
	}
}

// RetiredLines returns the sorted retired-line addresses of every
// scheme, index-aligned with the schemes passed to NewEngine (nil
// per scheme when the fault model is off or nothing retired). Like
// Metrics, it merges per-unit state in fixed order, so the sets are
// identical for every worker count.
func (e *Engine) RetiredLines() [][]uint64 {
	out := make([][]uint64, len(e.schemes))
	for i := range e.schemes {
		var all []uint64
		for u := 0; u < e.units; u++ {
			if fm := e.shards[i*e.units+u].fm; fm != nil {
				all = append(all, fm.Retired()...)
			}
		}
		// Each unit's list is sorted, but units interleave addresses.
		slices.Sort(all)
		out[i] = all
	}
	return out
}

// DegradedError reports a replay that completed but crossed the
// graceful-degradation threshold: at least one scheme retired more than
// Faults.MaxRetiredFraction of its touched lines, or recorded an
// uncorrectable write. It carries the complete per-scheme metrics of
// the run — the replay finished; the array is just past its serviceable
// life — and is deterministic across worker counts like the metrics
// themselves.
type DegradedError struct {
	// Schemes names the degraded schemes, in engine scheme order.
	Schemes []string
	// Threshold is the resolved MaxRetiredFraction the run was held to.
	Threshold float64
	// Metrics holds every scheme's full metrics (not just the degraded
	// ones), as Engine.Metrics would return them.
	Metrics []Metrics
}

// Error implements error.
func (e *DegradedError) Error() string {
	return fmt.Sprintf("sim: replay degraded beyond service thresholds (retired-line fraction > %.3g or uncorrectable writes) for %s",
		e.Threshold, strings.Join(e.Schemes, ", "))
}

// degradedError evaluates the graceful-degradation threshold over a
// finished run's merged metrics; nil when the fault model is off or
// every scheme stayed within its serviceable envelope.
func degradedError(ms []Metrics, cfg fault.Config) error {
	if !cfg.Enabled {
		return nil
	}
	threshold := cfg.WithDefaults().MaxRetiredFraction
	var degraded []string
	for _, m := range ms {
		if m.Faults.Uncorrectable > 0 || m.Faults.RetiredFraction() > threshold {
			degraded = append(degraded, m.Scheme)
		}
	}
	if degraded == nil {
		return nil
	}
	return &DegradedError{Schemes: degraded, Threshold: threshold, Metrics: ms}
}
