// Package jobs turns the one-shot replay engine into a job service: it
// owns a bounded shared worker pool, adapts sim/exp-style runs into
// queued jobs with a pending→running→done/failed/canceled state
// machine, fans live Progress reports and periodic Engine.Snapshot()
// merges out to any number of subscribers, and persists specs and
// results through the store layer. The HTTP surface in internal/server
// is a thin shell over this package.
//
// Determinism is the product: a job's metrics are produced by the same
// sim.Engine configuration as a direct wlcrc.Replay of the same spec,
// so server-run results are bit-identical to batch runs — the
// determinism test in internal/server asserts DeepEqual against the
// public API.
package jobs

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"wlcrc/internal/core"
	"wlcrc/internal/fault"
	"wlcrc/internal/sim"
	"wlcrc/internal/workload"
)

// Kind selects a job's shape.
type Kind string

const (
	// KindReplay replays one workload (or trace file) through the
	// spec's schemes — the pcmsim shape.
	KindReplay Kind = "replay"
	// KindSweep replays every listed workload (all profiles when the
	// list is empty) through the schemes, one engine per workload — the
	// experiments evaluation-matrix shape.
	KindSweep Kind = "sweep"
)

// State is a job's position in its lifecycle. Transitions only move
// forward: pending → running → one of the terminal states, or pending →
// canceled directly when a queued job is canceled before a pool worker
// picks it up.
type State string

const (
	StatePending  State = "pending"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether s is an end state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Spec describes one job. It is the POST /v1/jobs body and is persisted
// verbatim with the job record, so a stored job can be re-run exactly.
type Spec struct {
	// Kind is "replay" (default) or "sweep".
	Kind Kind `json:"kind,omitempty"`
	// Label tags the job for querying (GET /v1/results?label=...).
	Label string `json:"label,omitempty"`

	// Workload names the synthetic workload of a replay job (default
	// "gcc"); Workloads lists the sweep's profiles (empty = all).
	Workload  string   `json:"workload,omitempty"`
	Workloads []string `json:"workloads,omitempty"`
	// Trace replays a server-local trace file instead of a synthetic
	// workload (replay jobs only).
	Trace string `json:"trace,omitempty"`

	// Writes bounds the requests replayed per workload (synthetic
	// sources; default 2000). Trace replays always run the whole file.
	Writes int `json:"writes,omitempty"`
	// Footprint overrides the working-set size in lines (0 = profile
	// default).
	Footprint int `json:"footprint,omitempty"`
	// Seed drives the workload generator and any sampled models.
	Seed uint64 `json:"seed,omitempty"`

	// Schemes lists the encoding schemes to replay (default Baseline +
	// WLCRC-16).
	Schemes []string `json:"schemes,omitempty"`

	// Workers / IngestRouters are the engine speed knobs; results are
	// bit-identical for every value (see sim.Options).
	Workers       int `json:"workers,omitempty"`
	IngestRouters int `json:"ingest_routers,omitempty"`

	// SampleDisturb switches disturbance accounting to Monte-Carlo
	// sampling with Seed; TrackWear enables the dense per-cell wear
	// digest.
	SampleDisturb bool `json:"sample_disturb,omitempty"`
	TrackWear     bool `json:"track_wear,omitempty"`

	// Encrypted replays the counter-mode encrypted form of the stream;
	// EncryptionKey keys it and the VCC/Enc schemes (0 = default key).
	Encrypted     bool   `json:"encrypted,omitempty"`
	EncryptionKey uint64 `json:"encryption_key,omitempty"`

	// Faults enables the stuck-at fault model and repair pipeline.
	Faults *fault.Config `json:"faults,omitempty"`
	// FailFast aborts a fault-enabled replay at the first uncorrectable
	// write instead of degrading gracefully.
	FailFast bool `json:"fail_fast,omitempty"`

	// Series, when set, records the finished job's per-scheme average
	// write energy (pJ/write) under this series name in the store —
	// keyed by scheme name for single-workload jobs and
	// "workload/scheme" otherwise — so runs are comparable across days.
	Series string `json:"series,omitempty"`
}

// Normalize fills defaults and validates the spec, returning the
// resolved copy. It constructs every scheme once (and throws the
// instances away) so submission rejects bad scheme names synchronously
// instead of failing the job later.
func (s Spec) Normalize() (Spec, error) {
	switch s.Kind {
	case "":
		s.Kind = KindReplay
	case KindReplay, KindSweep:
	default:
		return s, fmt.Errorf("jobs: unknown kind %q (want %q or %q)", s.Kind, KindReplay, KindSweep)
	}
	if s.Writes < 0 {
		return s, fmt.Errorf("jobs: negative writes %d", s.Writes)
	}
	if s.Writes == 0 {
		s.Writes = 2000
	}
	if len(s.Schemes) == 0 {
		s.Schemes = []string{"Baseline", "WLCRC-16"}
	}
	if _, err := s.schemes(); err != nil {
		return s, err
	}
	switch s.Kind {
	case KindReplay:
		if len(s.Workloads) > 0 {
			return s, fmt.Errorf("jobs: replay jobs take a single workload (use kind=sweep for %v)", s.Workloads)
		}
		if s.Trace == "" {
			if s.Workload == "" {
				s.Workload = "gcc"
			}
			if _, err := profileFor(s.Workload); err != nil {
				return s, err
			}
		} else if s.Workload != "" {
			return s, fmt.Errorf("jobs: trace and workload are mutually exclusive")
		}
	case KindSweep:
		if s.Trace != "" {
			return s, fmt.Errorf("jobs: sweep jobs replay synthetic workloads, not traces")
		}
		if s.Workload != "" {
			return s, fmt.Errorf("jobs: sweep jobs list workloads, not a single workload")
		}
		if len(s.Workloads) == 0 {
			for _, p := range workload.Profiles() {
				s.Workloads = append(s.Workloads, p.Name)
			}
		}
		for _, name := range s.Workloads {
			if _, err := profileFor(name); err != nil {
				return s, err
			}
		}
	}
	return s, nil
}

// workloadNames returns the workloads the job will replay, in run
// order (a single element for replay jobs; the trace path for trace
// replays).
func (s Spec) workloadNames() []string {
	if s.Kind == KindSweep {
		return s.Workloads
	}
	if s.Trace != "" {
		return []string{s.Trace}
	}
	return []string{s.Workload}
}

// schemes constructs the spec's scheme instances. Each engine needs its
// own construction call anyway (schemes are immutable and shareable,
// but building per run keeps the path identical to wlcrc.Replay).
func (s Spec) schemes() ([]core.Scheme, error) {
	cfg := core.DefaultConfig()
	cfg.EncryptionKey = s.EncryptionKey
	out := make([]core.Scheme, 0, len(s.Schemes))
	seen := map[string]bool{}
	for _, name := range s.Schemes {
		if name == "" {
			return nil, fmt.Errorf("jobs: empty scheme name")
		}
		if seen[name] {
			return nil, fmt.Errorf("jobs: duplicate scheme %q", name)
		}
		seen[name] = true
		sch, err := core.NewScheme(name, cfg)
		if err != nil {
			return nil, fmt.Errorf("jobs: %w", err)
		}
		out = append(out, sch)
	}
	return out, nil
}

// simOptions resolves the spec to engine options. This mirrors
// wlcrc.Replay field for field — the determinism guarantee (server-run
// metrics bit-identical to a direct replay) rests on the two paths
// configuring the engine identically.
func (s Spec) simOptions() sim.Options {
	o := sim.DefaultOptions()
	o.Workers = s.Workers
	o.IngestRouters = s.IngestRouters
	o.SampleDisturb = s.SampleDisturb
	o.Seed = s.Seed
	o.TrackWear = s.TrackWear
	if s.Faults != nil {
		o.Faults = *s.Faults
	}
	o.FailFast = s.FailFast
	return o
}

// profileFor resolves a workload name ("random" included).
func profileFor(name string) (workload.Profile, error) {
	if name == "random" {
		return workload.RandomProfile(), nil
	}
	p, ok := workload.ProfileByName(name)
	if !ok {
		return workload.Profile{}, fmt.Errorf("jobs: unknown workload %q", name)
	}
	return p, nil
}

// Result is one workload's finished (or partial) metrics.
type Result struct {
	Workload string        `json:"workload"`
	Metrics  []sim.Metrics `json:"metrics"`
}

// ProgressInfo is the JSON-friendly snapshot of one engine Progress
// report, annotated with the workload it came from.
type ProgressInfo struct {
	Workload   string  `json:"workload"`
	Dispatched uint64  `json:"dispatched"`
	ElapsedMS  int64   `json:"elapsed_ms"`
	PerSecond  float64 `json:"per_second"`
	Workers    int     `json:"workers"`
	Done       bool    `json:"done,omitempty"`
}

// Event is one fan-out message to a job subscriber.
type Event struct {
	// Type is "state", "progress" or "snapshot". The SSE layer emits a
	// final "done" event itself from the job's terminal Status.
	Type string `json:"type"`
	// State accompanies "state" events.
	State State `json:"state,omitempty"`
	// Progress accompanies "progress" events.
	Progress *ProgressInfo `json:"progress,omitempty"`
	// Workload and Snapshot accompany "snapshot" events: a live
	// Engine.Snapshot() merge of the workload currently replaying.
	Workload string        `json:"workload,omitempty"`
	Snapshot []sim.Metrics `json:"snapshot,omitempty"`
}

// Status is the externally visible state of a job — the GET
// /v1/jobs/{id} body.
type Status struct {
	ID       string        `json:"id"`
	State    State         `json:"state"`
	Spec     Spec          `json:"spec"`
	Error    string        `json:"error,omitempty"`
	Degraded bool          `json:"degraded,omitempty"`
	Created  time.Time     `json:"created"`
	Started  time.Time     `json:"started,omitempty"`
	Finished time.Time     `json:"finished,omitempty"`
	Progress *ProgressInfo `json:"progress,omitempty"`
	Results  []Result      `json:"results,omitempty"`
}

// Job is one queued or running simulation job. All fields behind mu;
// external readers use Status().
type Job struct {
	id   string
	spec Spec

	mu       sync.Mutex
	state    State
	err      string
	degraded bool
	created  time.Time
	started  time.Time
	finished time.Time
	progress *ProgressInfo
	results  []Result
	cancel   func() // non-nil while running
	subs     map[int]chan Event
	nextSub  int
}

// ID returns the job's immutable identifier.
func (j *Job) ID() string { return j.id }

// Spec returns the job's resolved spec.
func (j *Job) Spec() Spec { return j.spec }

// Status returns a consistent copy of the job's externally visible
// state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// statusLocked is Status with j.mu held.
func (j *Job) statusLocked() Status {
	st := Status{
		ID:       j.id,
		State:    j.state,
		Spec:     j.spec,
		Error:    j.err,
		Degraded: j.degraded,
		Created:  j.created,
		Started:  j.started,
		Finished: j.finished,
		Results:  j.results,
	}
	if j.progress != nil {
		p := *j.progress
		st.Progress = &p
	}
	return st
}

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Subscribe registers a fan-out channel for the job's events. The
// returned channel closes when the job reaches a terminal state (read
// the final Status afterwards for results) — or immediately when it
// already has. Slow subscribers never block the replay: events that
// do not fit the buffer are dropped, and every dropped class (state,
// progress, snapshot) is recoverable from Status or the next periodic
// event. cancel unregisters; it is idempotent and must be called when
// the subscriber goes away.
func (j *Job) Subscribe(buf int) (<-chan Event, func()) {
	if buf <= 0 {
		buf = 16
	}
	ch := make(chan Event, buf)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		close(ch)
		return ch, func() {}
	}
	id := j.nextSub
	j.nextSub++
	j.subs[id] = ch
	canceled := false
	return ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if canceled {
			return
		}
		canceled = true
		if _, ok := j.subs[id]; ok {
			delete(j.subs, id)
			close(ch)
		}
	}
}

// publish fans one event out to every subscriber, non-blocking.
func (j *Job) publish(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.publishLocked(ev)
}

func (j *Job) publishLocked(ev Event) {
	for _, ch := range j.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop, never stall the replay
		}
	}
}

// setProgress records the latest engine progress and fans it out.
func (j *Job) setProgress(p ProgressInfo) {
	j.mu.Lock()
	j.progress = &p
	cp := p
	j.publishLocked(Event{Type: "progress", Progress: &cp})
	j.mu.Unlock()
}

// finish moves the job to a terminal state, hands the terminal Status
// to persist, then fans out the final state event and closes every
// subscriber channel. The job lock is held throughout, so no reader —
// Status, Subscribe or an SSE stream — observes the terminal state
// before persist has returned: a client that sees a job finish finds
// its record in the store.
func (j *Job) finish(state State, errMsg string, degraded bool, results []Result, persist func(Status) error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.err = errMsg
	j.degraded = degraded
	if results != nil {
		j.results = results
	}
	j.finished = time.Now()
	j.cancel = nil
	persist(j.statusLocked())
	j.publishLocked(Event{Type: "state", State: state})
	for id, ch := range j.subs {
		delete(j.subs, id)
		close(ch)
	}
}

// recordOf converts a job status to its persisted form.
func recordOf(st Status) (rec jobRecord) {
	raw, _ := json.Marshal(st.Spec)
	rec.id = st.ID
	rec.label = st.Spec.Label
	rec.state = string(st.State)
	rec.err = st.Error
	rec.degraded = st.Degraded
	rec.created = st.Created.UnixNano()
	if !st.Finished.IsZero() {
		rec.finished = st.Finished.UnixNano()
	}
	rec.trace = st.Spec.Trace
	rec.workloads = st.Spec.workloadNames()
	rec.schemes = st.Spec.Schemes
	rec.spec = raw
	rec.results = st.Results
	return rec
}

// jobRecord is the intermediate between Job and store.JobRecord,
// keeping the store conversion in one place (manager.go owns the
// store dependency).
type jobRecord struct {
	id, label, state, err string
	degraded              bool
	created, finished     int64
	trace                 string
	workloads, schemes    []string
	spec                  json.RawMessage
	results               []Result
}
