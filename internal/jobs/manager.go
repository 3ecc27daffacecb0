package jobs

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wlcrc/internal/store"
)

// ErrQueueFull reports a Submit against a saturated queue: the pool is
// busy and the FIFO backlog is at capacity. Clients should retry later
// (the HTTP layer maps it to 503).
var ErrQueueFull = fmt.Errorf("jobs: queue full")

// ErrShutdown reports a Submit after Shutdown began.
var ErrShutdown = fmt.Errorf("jobs: manager shutting down")

// Config sizes a Manager.
type Config struct {
	// Pool is the number of jobs that run concurrently (0 = 2). Each
	// running job owns a full sim.Engine, which parallelizes internally,
	// so the pool bounds oversubscription rather than providing it.
	Pool int
	// QueueCap bounds the FIFO backlog of pending jobs beyond the ones
	// running (0 = 64). Submit fails with ErrQueueFull past it.
	QueueCap int
	// Store, when non-nil, receives a record at submission and a
	// rewrite at every terminal transition, plus the job's series point.
	Store store.Store
	// SnapshotInterval paces the periodic Engine.Snapshot() fan-out to
	// subscribers while a job runs (0 = 1s).
	SnapshotInterval time.Duration
	// ProgressInterval paces the engine Progress callbacks
	// (0 = the engine's 500ms default).
	ProgressInterval time.Duration
}

// Counters is a point-in-time view of the manager's lifetime counters —
// the numbers behind the server's /metrics endpoint.
type Counters struct {
	Submitted   uint64
	Completed   uint64 // done (including degraded)
	Failed      uint64
	Canceled    uint64
	Running     int
	PeakRunning int
	QueueDepth  int
	// Replayed counts engine requests dispatched across all jobs,
	// accumulated from progress reports — the writes/s numerator.
	Replayed uint64
}

// Manager owns the shared worker pool: it queues submitted jobs FIFO,
// runs at most Pool of them concurrently, drives their state machines,
// isolates their panics, and persists their records.
type Manager struct {
	cfg   Config
	queue chan *Job

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string
	nextSeq int
	epoch   int64 // manager start time, embedded in IDs for cross-restart uniqueness

	submitted   atomic.Uint64
	completed   atomic.Uint64
	failed      atomic.Uint64
	canceled    atomic.Uint64
	running     atomic.Int64
	peakRunning atomic.Int64
	replayed    atomic.Uint64
}

// testRunHook, when non-nil, replaces the real job runner — the seam
// the panic-isolation test injects a panicking run through.
var testRunHook func(ctx context.Context, j *Job) (results []Result, degraded bool, err error)

// NewManager starts a manager with cfg's pool. Stop it with Shutdown.
func NewManager(cfg Config) *Manager {
	if cfg.Pool <= 0 {
		cfg.Pool = 2
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.SnapshotInterval <= 0 {
		cfg.SnapshotInterval = time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:     cfg,
		queue:   make(chan *Job, cfg.QueueCap),
		baseCtx: ctx,
		stop:    cancel,
		jobs:    make(map[string]*Job),
		epoch:   time.Now().UnixNano(),
	}
	for i := 0; i < cfg.Pool; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Submit validates spec, enqueues the job, and returns it. The job
// record (state pending) is persisted before Submit returns, so an
// accepted job survives an immediate crash.
func (m *Manager) Submit(spec Spec) (*Job, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	if m.baseCtx.Err() != nil {
		return nil, ErrShutdown
	}
	m.mu.Lock()
	m.nextSeq++
	j := &Job{
		id:      fmt.Sprintf("j-%x-%04d", uint64(m.epoch), m.nextSeq),
		spec:    spec,
		state:   StatePending,
		created: time.Now(),
		subs:    make(map[int]chan Event),
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.mu.Unlock()

	if err := m.persist(j.Status()); err != nil {
		m.forget(j.id)
		return nil, err
	}
	select {
	case m.queue <- j:
	default:
		m.forget(j.id)
		// The pending record was already written; supersede it so the
		// store does not carry a job that never existed for clients.
		j.finish(StateCanceled, ErrQueueFull.Error(), false, nil, m.persist)
		return nil, ErrQueueFull
	}
	m.submitted.Add(1)
	return j, nil
}

// forget drops a job that never made it into the queue.
func (m *Manager) forget(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.jobs, id)
	for i, oid := range m.order {
		if oid == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
}

// Job returns the live job for id.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns every job this manager has accepted, oldest first.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Cancel moves a pending job straight to canceled or signals a running
// job's context; terminal jobs are left alone. It reports whether the
// job existed.
func (m *Manager) Cancel(id string) bool {
	j, ok := m.Job(id)
	if !ok {
		return false
	}
	j.mu.Lock()
	switch j.state {
	case StatePending:
		// The queue still holds the pointer; the worker that eventually
		// drains it sees the terminal state and skips it.
		j.mu.Unlock()
		j.finish(StateCanceled, "canceled before start", false, nil, m.persist)
		m.canceled.Add(1)
		return true
	case StateRunning:
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel() // the worker observes ctx.Err() and finishes the job
		}
		return true
	default:
		j.mu.Unlock()
		return true
	}
}

// Shutdown cancels every running job (their contexts are children of
// the manager's), waits for the pool to drain, and leaves partial
// snapshots persisted. Queued jobs that never started are marked
// canceled.
func (m *Manager) Shutdown() {
	m.stop()
	// Drain the backlog so workers exit their range loop; each drained
	// job is finished as canceled (its record already says pending).
	for {
		select {
		case j := <-m.queue:
			if j.State() == StatePending {
				j.finish(StateCanceled, "server shutting down", false, nil, m.persist)
				m.canceled.Add(1)
			}
		default:
			close(m.queue)
			m.wg.Wait()
			return
		}
	}
}

// Counters returns the manager's lifetime counters.
func (m *Manager) Counters() Counters {
	return Counters{
		Submitted:   m.submitted.Load(),
		Completed:   m.completed.Load(),
		Failed:      m.failed.Load(),
		Canceled:    m.canceled.Load(),
		Running:     int(m.running.Load()),
		PeakRunning: int(m.peakRunning.Load()),
		QueueDepth:  len(m.queue),
		Replayed:    m.replayed.Load(),
	}
}

// worker is one pool goroutine: it drains the FIFO queue and runs each
// job to a terminal state.
func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		if m.baseCtx.Err() != nil {
			// Shutdown raced us to the queue: hand the job back to the
			// Shutdown drain path by finishing it here.
			if j.State() == StatePending {
				j.finish(StateCanceled, "server shutting down", false, nil, m.persist)
				m.canceled.Add(1)
			}
			continue
		}
		if j.State().Terminal() {
			continue // canceled while queued
		}
		m.runOne(j)
	}
}

// runOne drives one job pending→running→terminal, isolating panics:
// a panicking run fails its own job and the worker (and every other
// job) keeps going.
func (m *Manager) runOne(j *Job) {
	ctx, cancel := context.WithCancel(m.baseCtx)
	defer cancel()

	j.mu.Lock()
	if j.state.Terminal() { // canceled between the check and here
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	j.publishLocked(Event{Type: "state", State: StateRunning})
	j.mu.Unlock()

	n := m.running.Add(1)
	for {
		peak := m.peakRunning.Load()
		if n <= peak || m.peakRunning.CompareAndSwap(peak, n) {
			break
		}
	}
	defer m.running.Add(-1)

	var (
		results  []Result
		degraded bool
		runErr   error
	)
	func() {
		defer func() {
			if r := recover(); r != nil {
				runErr = fmt.Errorf("job panicked: %v", r)
			}
		}()
		if testRunHook != nil {
			results, degraded, runErr = testRunHook(ctx, j)
		} else {
			results, degraded, runErr = m.run(ctx, j)
		}
	}()

	// The finished job's record and series point are stored before
	// any client can see it finish.
	persist := func(st Status) error {
		err := m.persist(st)
		m.persistSeries(st)
		return err
	}
	switch {
	case runErr == nil:
		j.finish(StateDone, "", degraded, results, persist)
		m.completed.Add(1)
	case ctx.Err() != nil:
		// Cancellation (client DELETE or server shutdown): keep the
		// partial snapshot results alongside the canceled verdict.
		j.finish(StateCanceled, "canceled", false, results, persist)
		m.canceled.Add(1)
	case degraded:
		// Graceful degradation is a completed run with a verdict, not a
		// failure: the metrics are complete.
		j.finish(StateDone, runErr.Error(), true, results, persist)
		m.completed.Add(1)
	default:
		j.finish(StateFailed, runErr.Error(), false, results, persist)
		m.failed.Add(1)
	}
}

// persist writes a job's record to the store (no-op without one).
// Only Submit acts on its error, refusing the job; later persistence
// errors never fail the job — the in-memory state is still
// authoritative for live clients.
func (m *Manager) persist(st Status) error {
	if m.cfg.Store == nil {
		return nil
	}
	rec := recordOf(st)
	results := make([]store.WorkloadResult, 0, len(rec.results))
	for _, r := range rec.results {
		results = append(results, store.WorkloadResult{Workload: r.Workload, Metrics: r.Metrics})
	}
	return m.cfg.Store.PutJob(store.JobRecord{
		ID:        rec.id,
		Label:     rec.label,
		State:     rec.state,
		Error:     rec.err,
		Degraded:  rec.degraded,
		Created:   rec.created,
		Finished:  rec.finished,
		Trace:     rec.trace,
		Workloads: rec.workloads,
		Schemes:   rec.schemes,
		Spec:      rec.spec,
		Results:   results,
	})
}

// persistSeries records the finished job's per-scheme average write
// energy under its Series name: scheme-name keys for single-workload
// jobs (the BENCH_encode.json key shape) and "workload/scheme" keys
// for sweeps.
func (m *Manager) persistSeries(st Status) {
	if m.cfg.Store == nil || st.Spec.Series == "" || st.State != StateDone {
		return
	}
	vals := make(map[string]float64)
	multi := len(st.Results) > 1
	for _, r := range st.Results {
		for _, met := range r.Metrics {
			key := met.Scheme
			if multi {
				key = r.Workload + "/" + met.Scheme
			}
			vals[key] = met.AvgEnergy()
		}
	}
	if len(vals) == 0 {
		return
	}
	m.cfg.Store.PutSeries(store.SeriesPoint{
		Name:   st.Spec.Series,
		JobID:  st.ID,
		Unix:   st.Finished.UnixNano(),
		Values: vals,
	})
}
