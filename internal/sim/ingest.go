package sim

import (
	"sync"
	"sync/atomic"
	"time"

	"wlcrc/internal/trace"
)

// Every Run reads and routes its source through the ingest pipeline,
// three steps that keep decoding and routing off the workers:
//
//	reader   one mutex-guarded BatchSource.NextBatch per chunk fills the
//	         calling router's decode buffer, stamps the chunk with a
//	         chunk sequence number and returns the global sequence of
//	         its first request. Sources that decode in bulk (MappedSource,
//	         Reader.ReadBatch) amortize all per-record I/O here; a plain
//	         Source arrives via the trace.Batched adapter and just loses
//	         the per-request interface call.
//	route    K router goroutines (K >= 1) each route the requests they
//	         read: a stable counting sort by routing unit writes them
//	         into the chunk grouped by unit (within-unit order preserved,
//	         every request stamped with its global sequence number) and
//	         indexes the groups. The decoded requests stay in the
//	         router's scratch; a chunk carries only what shards replay.
//	hand-off the Run goroutine takes routed chunks through a fixed ring,
//	         strictly in chunk-sequence order, and sends each chunk to
//	         every worker's queue. A worker applies the runs of the units
//	         it owns (unit mod workers) and the last worker to finish
//	         with a chunk returns it to the pool.
//
// Determinism: routing is pure computation on router-private scratch
// and the chunk it fills; the hand-off runs in chunk order on one
// goroutine. Every worker receives the chunks in that order over one
// FIFO channel, and a unit's run inside a chunk keeps trace order, so
// each shard sees its requests in trace order for every router and
// worker count and results are bit-identical across both — which the
// ingest determinism tests assert for Source, BatchSource and
// MappedSource inputs alike.
//
// Allocation: chunks recycle through the engine's chunk free list, the
// engine's only request buffer, so steady-state ingest performs no
// per-chunk allocations; the only per-Run cost is the fixed setup
// (channels, goroutines, each router's decode and counting-sort scratch
// and each worker's owned-run list).

// ingestChunkCap is the fixed chunk size in requests (~330 KB of
// 80-byte routed requests). A unit run averages ingestChunkCap/units
// requests (16 under Table II), and the chunk is sized by that: the
// longer a worker stays on one shard, the more its line store and
// metrics stay in cache, and the touch pass, which covers a worker's
// whole share of a chunk per scheme, needs enough lines in flight to
// overlap their misses while that share still fits in L2. It is small
// enough that a short trace reaches its workers after the first chunk.
const ingestChunkCap = 4096

// chunkQueueCap is each worker's chunk-queue capacity. Every chunk goes
// to every worker, so this is how many chunks a fast worker can run
// ahead of the slowest one.
const chunkQueueCap = 4

// publishEvery bounds how many chunks a busy worker applies between two
// Snapshot publishes of its shards. Publishing copies a shard's whole
// Metrics, so doing it after every chunk, with only a few requests per
// shard in between, would cost a large share of a cheap scheme's replay.
const publishEvery = 4

// ingestAutoMax caps the auto-resolved router count: decode + routing
// saturates well before the worker pool does, so a handful of routers
// keeps even a fast mapped source ahead of 200+ workers.
const ingestAutoMax = 4

// unitRun is one routing unit's contiguous run of requests inside a
// routed chunk.
type unitRun struct {
	unit       int32
	start, end int32
}

// ingestChunk is one fixed-size unit of ingest work, recycled through
// Engine.freeChunks: perm[:n] holds a chunk of the trace grouped by
// routing unit (stable, sequence-stamped) and runs indexes the groups.
type ingestChunk struct {
	seq  int         // chunk sequence number, for in-order hand-off
	n    int         // requests in this chunk
	perm []routedReq // len ingestChunkCap
	runs []unitRun   // one entry per unit present, ascending unit
	// refs counts the workers that have not yet finished the chunk;
	// the last one returns it to the pool.
	refs atomic.Int32
}

func newIngestChunk() *ingestChunk {
	return &ingestChunk{perm: make([]routedReq, ingestChunkCap)}
}

// resolveIngestRouters maps Options.IngestRouters to the effective
// router count: zero auto-sizes to min(ingestAutoMax, cpus), a negative
// value means a single router, and a positive one is taken as-is up to
// units, the routing-unit count. The cap keeps a client-supplied count
// from sizing the chunk pool: more routers than units could never all
// hold work for distinct workers anyway.
func resolveIngestRouters(opt, cpus, units int) int {
	switch {
	case opt < 0:
		return 1
	case opt > 0:
		return min(opt, units)
	default:
		return min(ingestAutoMax, cpus, units)
	}
}

// ingestReader serializes chunk fills over the source: one lock, one
// NextBatch, one stamp. It is the only place the source is touched, so
// a plain Source behind the Batched adapter is read sequentially, one
// Next per request, in trace order.
type ingestReader struct {
	mu   sync.Mutex
	src  trace.BatchSource
	max  int // stop after max requests when > 0
	read uint64
	seq  int
	done bool
}

// fill reads the next chunk's requests into reqs under the reader lock
// and stamps c with its chunk sequence number. It returns the global
// sequence of the first request and the count read; n is 0 at end of
// stream (or once the max-request budget is spent).
func (r *ingestReader) fill(c *ingestChunk, reqs []trace.Request) (base uint64, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return 0, 0
	}
	want := len(reqs)
	if r.max > 0 {
		want = min(want, r.max-int(r.read))
	}
	if want > 0 {
		n = r.src.NextBatch(reqs[:want])
	}
	if n == 0 {
		r.done = true
		return 0, 0
	}
	c.seq = r.seq
	base = r.read
	r.seq++
	r.read += uint64(n)
	return base, n
}

// routeChunk routes one chunk's decoded requests: a stable counting
// sort by routing unit writes them, sequence-stamped from base, into
// c.perm and the group index into c.runs. units (len >= len(reqs)) and
// counts (len == e.units) are the router's reusable scratch. Pure
// computation on router-private buffers — safe to run on many routers
// at once.
func (e *Engine) routeChunk(c *ingestChunk, reqs []trace.Request, base uint64, units, counts []int32) {
	clear(counts)
	for i := range reqs {
		u := int32(e.routeOf(reqs[i].Addr))
		units[i] = u
		counts[u]++
	}
	c.runs = c.runs[:0]
	off := int32(0)
	for u := range counts {
		if counts[u] == 0 {
			continue
		}
		start := off
		off += counts[u]
		c.runs = append(c.runs, unitRun{unit: int32(u), start: start, end: off})
		counts[u] = start // becomes the placement cursor below
	}
	for i := range reqs {
		u := units[i]
		c.perm[counts[u]] = routedReq{seq: base + uint64(i), addr: reqs[i].Addr, data: reqs[i].New}
		counts[u]++
	}
	c.n = len(reqs)
}

// dispatch streams src through the ingest pipeline into the workers'
// queues and returns the number of requests dispatched: it spawns the
// routers and hands the routed chunks, in sequence order, to every
// worker. On a failure or cancellation the routers stop pulling new
// chunks, but every chunk already read is still routed and handed off.
// Determinism of the reported error depends on that: the earliest
// failing request overall was read before the (later) failure whose
// detection triggered the stop, so it is always handed off, applied and
// recorded.
func (e *Engine) dispatch(src trace.BatchSource, max int, chans []chan *ingestChunk,
	failed *atomic.Bool, done <-chan struct{}, tick *progressTicker) uint64 {
	inflight := cap(e.freeChunks)
	routedCh := make(chan *ingestChunk, inflight)
	rd := &ingestReader{src: src, max: max}
	var rwg sync.WaitGroup
	for r := 0; r < e.ingest; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			reqs := make([]trace.Request, ingestChunkCap)
			units := make([]int32, ingestChunkCap)
			counts := make([]int32, e.units)
			for !failed.Load() && !canceled(done) {
				c := <-e.freeChunks
				base, n := rd.fill(c, reqs)
				if n == 0 {
					e.freeChunks <- c
					return
				}
				e.routeChunk(c, reqs[:n], base, units, counts)
				routedCh <- c
			}
		}()
	}
	go func() { rwg.Wait(); close(routedCh) }()

	var (
		dispatched uint64
		next       int
		hold       = make([]*ingestChunk, inflight)
	)
	for c := range routedCh {
		// The chunk pool bounds in-flight chunk sequences to a window
		// no larger than the ring, so seq%inflight slots never collide.
		hold[c.seq%inflight] = c
		for {
			h := hold[next%inflight]
			if h == nil {
				break
			}
			hold[next%inflight] = nil
			next++
			// Read h.n before the hand-off: the last worker to finish
			// recycles the chunk.
			dispatched += uint64(h.n)
			h.refs.Store(int32(len(chans)))
			for _, ch := range chans {
				ch <- h
			}
			tick.tick(dispatched, chans, false)
		}
	}
	return dispatched
}

// progressTicker rate-limits Options.Progress reports on the Run
// goroutine. With no callback configured tick returns at once, so the
// dispatch loop never reads the clock.
type progressTicker struct {
	fn          func(Progress)
	interval    time.Duration
	start, last time.Time
	queue       []int // reused between reports, as Progress documents
}

func newProgressTicker(opts *Options, start time.Time) *progressTicker {
	t := &progressTicker{fn: opts.Progress, interval: opts.ProgressInterval, start: start, last: start}
	if t.interval <= 0 {
		t.interval = 500 * time.Millisecond
	}
	return t
}

// tick reports dispatched requests and the workers' queue depths once
// the interval has passed since the last report; the final report of a
// Run (final = true) is always delivered.
func (t *progressTicker) tick(dispatched uint64, chans []chan *ingestChunk, final bool) {
	if t.fn == nil {
		return
	}
	now := time.Now()
	if !final && now.Sub(t.last) < t.interval {
		return
	}
	t.last = now
	if t.queue == nil {
		t.queue = make([]int, len(chans))
	}
	for i, c := range chans {
		t.queue[i] = len(c)
	}
	t.fn(Progress{
		Dispatched: dispatched,
		Elapsed:    now.Sub(t.start),
		Workers:    len(chans),
		QueueDepth: t.queue,
		Done:       final,
	})
}
