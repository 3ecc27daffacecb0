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
	"wlcrc/internal/memline"
	"wlcrc/internal/memsys"
	"wlcrc/internal/prng"
	"wlcrc/internal/trace"
)

// Engine is the concurrent sharded replay pipeline. It maintains one
// shard per (scheme, bank, sub-shard) triple — the bank comes from the
// configured memsys geometry, exactly the interleaving the Table II
// memory controller uses, and each bank is further split into
// address-interleaved sub-shards (memsys.Config.SubShards) so the
// worker count is not capped at the bank count — and streams the trace
// through per-worker queues.
//
// Reading and routing run off the workers: the ingest stage (ingest.go)
// pulls sequence-stamped chunks from the source and groups each chunk
// by routing unit on Options.IngestRouters router goroutines. Every
// routing unit (bank, sub-shard) is owned by exactly one worker (unit
// mod workers, all schemes of the unit together). The Run goroutine
// hands each routed chunk, in sequence order, to every worker's queue
// as it is — one grouping, one queue, one pooled buffer — and each
// worker applies only the runs of the units it owns. A chunk carries a
// reference count, and the last worker to finish with it returns it to
// the pool, so an arbitrarily long streamed trace runs with zero
// steady-state dispatcher allocations.
//
// A worker replays its share of a chunk scheme-major through each
// scheme's shards: it first touches the lines of every run it owns
// (shard.touch, so their cache misses overlap across the chunk), then
// applies the runs one request at a time (shard.applyRun). All of one
// scheme's state — SWAR cost tables, coset selectors, the shard's line
// store — stays hot across the chunk instead of being evicted by the
// next scheme's on every request.
//
// Determinism: results never depend on Options.Workers or
// Options.IngestRouters. Unit ownership is static and sub-shard
// assignment depends only on the address, so every shard sees its
// lines' requests in trace order (chunks are handed off in sequence,
// every worker drains its queue FIFO, and a unit's run within a chunk
// keeps trace order); each shard's PRNG substream is seeded only from
// (Options.Seed, scheme, unit); and Metrics folds the shards in fixed
// (scheme, bank, sub-shard) order. Workers = 1 is therefore the serial
// mode of the same engine, and a parallel run is bit-identical to it —
// floats included.
//
// Observability: Snapshot may be called from any goroutine while Run is
// executing — each worker publishes a copy of its shards' metrics
// whenever its queue runs dry and at least every publishEvery chunks,
// so a snapshot lags a shard by at most that many chunks plus the one
// in flight — and Options.Progress delivers live dispatcher throughput. Run, Metrics and
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
	// ingest is the resolved ingest-router count (at least 1).
	// freeChunks recycles ingest chunks across chunks and across Run
	// calls (warm-up then measure reuses the same chunks). A buffered
	// channel instead of a sync.Pool: the pool sheds items under GC
	// pressure (and randomly under the race detector), while the
	// channel holds every chunk there is, so steady state is
	// allocation-free unconditionally. It doubles as the in-flight
	// bound: a router blocks for a free chunk before reading, so at most
	// cap(freeChunks) chunk sequences are ever outstanding — which is
	// what lets the hand-off ring index by seq modulo that capacity.
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
	e.ingest = resolveIngestRouters(opts.IngestRouters, runtime.GOMAXPROCS(0), units)
	// Enough chunks that every router holds one, the routed channel can
	// buffer one per router, and the slowest worker's queue fills while
	// it applies one more — prefilled so steady state never allocates a
	// chunk.
	e.freeChunks = make(chan *ingestChunk, 2*e.ingest+chunkQueueCap+1)
	for i := 0; i < cap(e.freeChunks); i++ {
		e.freeChunks <- newIngestChunk()
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

// IngestRouters returns the resolved ingest-router count, the number of
// goroutines that read and route the source during Run — between 1 and
// Units() (Options.IngestRouters documents the resolution rule). Like Workers,
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

// routedReq is what a shard replays of one request: its global trace
// sequence number (for deterministic error ordering), its line address
// and the content to store. The request's Old line is not carried:
// shards diff against their own stored planes.
type routedReq struct {
	seq  uint64
	addr uint64
	data memline.Line
}

// Run drains a source through the engine, stopping after max requests
// when max > 0. The source is read in chunks (batched through
// trace.Batched when it is not already a trace.BatchSource), grouped by
// routing unit on the ingest routers, and handed to the workers chunk
// by chunk in sequence; each request is applied by the single worker
// owning its (bank, sub-shard) unit, and the results are bit-identical
// for every worker and router count.
//
// On a verification failure the engine stops reading the source, hands
// off every chunk already read (so all requests read before the stop
// are applied), lets workers drain, and returns the error of the earliest
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

// RunContext is Run with cooperative cancellation. The ingest routers
// check ctx between chunks: on cancellation they stop reading the
// source, the already-read chunks drain through the workers normally
// (the queues are bounded, so the drain is prompt), and RunContext
// returns ctx.Err() — the merged metrics then cover exactly the
// requests read before the stop, applied to every scheme alike. A
// background context costs one nil check per chunk.
func (e *Engine) RunContext(ctx context.Context, src trace.Source, max int) error {
	e.reserveLines(src, max)
	done := ctx.Done()
	chans := make([]chan *ingestChunk, e.workers)
	for i := range chans {
		chans[i] = make(chan *ingestChunk, chunkQueueCap)
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
			mine := make([]unitRun, 0, e.units)
			unpublished := 0
			for c := range chans[w] {
				mine = mine[:0]
				for _, run := range c.runs {
					if int(run.unit)%e.workers == w {
						mine = append(mine, run)
						e.workerReqs[w] += uint64(run.end - run.start)
					}
				}
				e.applyRuns(c.perm, mine, &failed)
				if c.refs.Add(-1) == 0 {
					e.freeChunks <- c
				}
				// Publish whenever the queue runs dry, so a caught-up
				// worker (and a finished Run) shows every write, and
				// at least every publishEvery chunks while it is busy.
				if unpublished++; unpublished == publishEvery || len(chans[w]) == 0 {
					e.publishOwned(w)
					unpublished = 0
				}
			}
		}(w)
	}

	tick := newProgressTicker(&e.opts, time.Now())
	n := e.dispatch(trace.Batched(src), max, chans, &failed, done, tick)
	for _, c := range chans {
		close(c)
	}
	wg.Wait()
	tick.tick(n, chans, true)
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

// applyRuns replays one worker's share of a routed chunk: runs are the
// chunk's runs of units the worker owns, and all schemes' shards of
// those units share the owner, so no other goroutine ever touches the
// shards referenced here. Each scheme goes through every run before the
// next scheme starts, which keeps its tables and line store hot, and
// its touch pass covers all the runs before the first apply, so the
// line misses of the whole share overlap.
func (e *Engine) applyRuns(perm []routedReq, runs []unitRun, failed *atomic.Bool) {
	for i := range e.schemes {
		shards := e.shards[i*e.units : (i+1)*e.units]
		for _, run := range runs {
			if u := shards[run.unit]; u.err == nil {
				u.touch(perm[run.start:run.end])
			}
		}
		for _, run := range runs {
			u := shards[run.unit]
			if u.err != nil {
				continue // frozen after its first failure
			}
			if seq, err := u.applyRun(perm[run.start:run.end]); err != nil {
				u.err = err
				u.errSeq = seq
				failed.Store(true)
			}
		}
	}
}

// publishOwned refreshes the snapshot copies of every shard worker w
// owns (cheap for shards without new writes).
func (e *Engine) publishOwned(w int) {
	for unit := w; unit < e.units; unit += e.workers {
		for i := range e.schemes {
			e.shards[i*e.units+unit].publishIfDirty()
		}
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
// while Run is executing. Workers publish whenever their queue runs
// dry and at least every publishEvery chunks, so a snapshot lags each
// shard by at most that many chunks plus the one in flight; once Run has
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
