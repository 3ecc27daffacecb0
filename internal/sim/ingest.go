package sim

import (
	"sync"
	"sync/atomic"
	"time"

	"wlcrc/internal/trace"
)

// Every Run reads and routes its source through the ingest pipeline,
// three steps that keep decoding and routing off the Run goroutine:
//
//	reader   one mutex-guarded BatchSource.NextBatch per chunk stamps
//	         each fixed-size chunk with a chunk sequence number and the
//	         global sequence of its first request. Sources that decode
//	         in bulk (MappedSource, Reader.ReadBatch) amortize all
//	         per-record I/O here; a plain Source arrives via the
//	         trace.Batched adapter and just loses the per-request
//	         interface call.
//	route    K router goroutines (K >= 1) each take a filled chunk and
//	         pre-route it independently: a stable counting sort by
//	         routing unit groups the chunk into per-unit sub-batches
//	         (within-unit order preserved) and stamps every request's
//	         global sequence number.
//	reassemble  the Run goroutine consumes routed chunks through a
//	         fixed ring, strictly in chunk-sequence order, and appends
//	         each unit's sub-batch into the unit's pending/ready double
//	         buffer, handing a batch to the unit's owner every time it
//	         reaches unitBatch.
//
// Determinism: only the reassembly step touches dispatcher state, and
// it runs in chunk order on one goroutine; routing is pure computation
// on private chunk buffers. Per-unit batch boundaries, hand-off order
// and therefore per-shard trace order are the same for every router
// and worker count, so results are bit-identical across both — which
// the ingest determinism tests assert for Source, BatchSource and
// MappedSource inputs alike.
//
// Allocation: chunks (request buffer, unit scratch, grouped output)
// recycle through the engine's chunk free list exactly like batch
// buffers recycle through freeBufs, so steady-state ingest performs no
// per-chunk allocations; the only per-Run cost is the fixed setup
// (channels, router goroutines, one counting-sort scratch per router).

// ingestChunkCap is the fixed chunk size in requests. At 136 bytes per
// record a chunk spans ~70 KB — big enough that the reader mutex and
// chunk hand-off amortize to noise, small enough that a chunk's decode
// output is still cache-warm when the reassembly step copies it into
// per-unit batches, and several chunks fit in flight without bloat.
const ingestChunkCap = 512

// ingestAutoMax caps the auto-resolved router count: decode + routing
// saturates well before the worker pool does, so a handful of routers
// keeps even a fast mapped source ahead of 200+ workers.
const ingestAutoMax = 4

// unitRun is one routing unit's contiguous sub-batch inside a routed
// chunk's grouped request array.
type unitRun struct {
	unit       int32
	start, end int32
}

// ingestChunk is one fixed-size unit of ingest work, recycled through
// Engine.freeChunks. reqs holds the raw decoded requests in trace
// order; after routing, perm[:n] holds the same requests grouped by
// routing unit (stable, sequence-stamped) and runs indexes the groups.
type ingestChunk struct {
	seq  int    // chunk sequence number, for in-order reassembly
	base uint64 // global sequence of reqs[0]
	n    int    // requests in this chunk

	reqs  []trace.Request // len ingestChunkCap
	units []int32         // scratch: routing unit per request
	perm  []routedReq     // grouped-by-unit output
	runs  []unitRun       // one entry per unit present, ascending unit
}

func newIngestChunk() *ingestChunk {
	return &ingestChunk{
		reqs:  make([]trace.Request, ingestChunkCap),
		units: make([]int32, ingestChunkCap),
		perm:  make([]routedReq, ingestChunkCap),
	}
}

// resolveIngestRouters maps Options.IngestRouters to the effective
// router count: zero auto-sizes to min(ingestAutoMax, cpus), a
// positive value is taken as-is, and a negative one means a single
// router.
func resolveIngestRouters(opt, cpus int) int {
	switch {
	case opt < 0:
		return 1
	case opt > 0:
		return opt
	default:
		return min(ingestAutoMax, cpus)
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

// fill loads the next chunk under the reader lock, stamping its chunk
// and base sequence numbers. It returns false at end of stream (or once
// the max-request budget is spent).
func (r *ingestReader) fill(c *ingestChunk) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return false
	}
	want := len(c.reqs)
	if r.max > 0 {
		if left := r.max - int(r.read); left < want {
			want = left
		}
	}
	if want <= 0 {
		r.done = true
		return false
	}
	n := r.src.NextBatch(c.reqs[:want])
	if n == 0 {
		r.done = true
		return false
	}
	c.n = n
	c.seq = r.seq
	c.base = r.read
	r.seq++
	r.read += uint64(n)
	return true
}

// routeChunk pre-routes one chunk: a stable counting sort by routing
// unit over the chunk's requests, writing the grouped, sequence-stamped
// form into c.perm and the group index into c.runs. counts is the
// router's reusable per-unit scratch (len == e.units). Pure computation
// on chunk-private buffers — safe to run on many routers at once.
func (e *Engine) routeChunk(c *ingestChunk, counts []int32) {
	reqs := c.reqs[:c.n]
	for i := range counts {
		counts[i] = 0
	}
	for i := range reqs {
		u := int32(e.routeOf(reqs[i].Addr))
		c.units[i] = u
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
	perm := c.perm[:len(reqs)]
	for i := range reqs {
		u := c.units[i]
		perm[counts[u]] = routedReq{seq: c.base + uint64(i), addr: reqs[i].Addr, data: reqs[i].New}
		counts[u]++
	}
}

// assembleChunk folds one routed chunk into the dispatcher state: per
// unit, append into the pending buffer and hand off every time it
// reaches unitBatch. Called in strict chunk-sequence order on the Run
// goroutine only, so each unit's batches hold its requests in trace
// order.
func (e *Engine) assembleChunk(c *ingestChunk, chans []chan batch, pending, ready []*[]routedReq) {
	for _, run := range c.runs {
		u := int(run.unit)
		sub := c.perm[run.start:run.end]
		for len(sub) > 0 {
			p := pending[u]
			if p == nil {
				p = e.getBuf()
				pending[u] = p
			}
			take := unitBatch - len(*p)
			if take > len(sub) {
				take = len(sub)
			}
			*p = append(*p, sub[:take]...)
			sub = sub[take:]
			if len(*p) == unitBatch {
				e.handOff(chans[u%e.workers], ready, u, p)
				pending[u] = nil
			}
		}
	}
}

// dispatch streams src through the ingest pipeline into the workers'
// queues and returns the number of requests dispatched: it spawns the
// routers, reassembles routed chunks in order into per-unit batches,
// and finally flushes every parked and pending batch. On a failure or
// cancellation the routers stop pulling new chunks, but every chunk
// already read is still routed, reassembled and flushed. Determinism of
// the reported error depends on that: the earliest failing request
// overall was read before the (later) failure whose detection
// triggered the stop, so it sits in an already-dispatched batch or in
// the flushed buffers, and is always applied and recorded.
func (e *Engine) dispatch(src trace.BatchSource, max int, chans []chan batch,
	failed *atomic.Bool, done <-chan struct{}, tick *progressTicker) uint64 {
	inflight := cap(e.freeChunks)
	routedCh := make(chan *ingestChunk, inflight)
	rd := &ingestReader{src: src, max: max}
	var rwg sync.WaitGroup
	for r := 0; r < e.ingest; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			counts := make([]int32, e.units)
			for !failed.Load() && !canceled(done) {
				c := <-e.freeChunks
				if !rd.fill(c) {
					e.freeChunks <- c
					return
				}
				e.routeChunk(c, counts)
				routedCh <- c
			}
		}()
	}
	go func() { rwg.Wait(); close(routedCh) }()

	// pending[u] is unit u's filling buffer; ready[u] is a filled batch
	// parked when the owner's queue was momentarily full (the second
	// half of the double buffer). Per unit, ready is always older than
	// pending, and both drain before anything newer — FIFO per unit is
	// what per-shard trace order rests on.
	pending := make([]*[]routedReq, e.units)
	ready := make([]*[]routedReq, e.units)
	var (
		dispatched uint64
		next       int
		hold       = make([]*ingestChunk, inflight)
	)
	for c := range routedCh {
		// The chunk pool bounds in-flight chunk sequences to a window
		// smaller than the ring, so seq%inflight slots never collide.
		hold[c.seq%inflight] = c
		for {
			h := hold[next%inflight]
			if h == nil {
				break
			}
			hold[next%inflight] = nil
			e.assembleChunk(h, chans, pending, ready)
			dispatched += uint64(h.n)
			h.n = 0
			e.freeChunks <- h
			next++
			tick.tick(dispatched, chans, false)
		}
	}
	for u := 0; u < e.units; u++ {
		w := u % e.workers
		if r := ready[u]; r != nil {
			chans[w] <- batch{unit: int32(u), reqs: r}
		}
		if p := pending[u]; p != nil {
			chans[w] <- batch{unit: int32(u), reqs: p}
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
func (t *progressTicker) tick(dispatched uint64, chans []chan batch, final bool) {
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
