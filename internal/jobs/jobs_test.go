package jobs

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"wlcrc/internal/store"
)

// waitState polls until the job reaches a terminal state or the
// deadline passes.
func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st := j.State(); st == want {
			return
		} else if st.Terminal() {
			t.Fatalf("job %s reached %q, want %q (err=%q)", j.ID(), st, want, j.Status().Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in %q, want %q", j.ID(), j.State(), want)
}

// blockingHook installs a testRunHook whose jobs block until released
// (or their context fires), and returns the release func. Tests that
// install hooks must not run in parallel.
func blockingHook(t *testing.T) (started chan string, release chan struct{}) {
	t.Helper()
	started = make(chan string, 16)
	release = make(chan struct{})
	testRunHook = func(ctx context.Context, j *Job) ([]Result, bool, error) {
		started <- j.ID()
		select {
		case <-ctx.Done():
			return []Result{{Workload: "partial"}}, false, ctx.Err()
		case <-release:
			return []Result{{Workload: "done"}}, false, nil
		}
	}
	t.Cleanup(func() { testRunHook = nil })
	return started, release
}

func TestSpecNormalize(t *testing.T) {
	cases := []struct {
		name    string
		spec    Spec
		wantErr string
	}{
		{"defaults", Spec{}, ""},
		{"bad kind", Spec{Kind: "exotic"}, "unknown kind"},
		{"bad scheme", Spec{Schemes: []string{"nope"}}, "nope"},
		{"dup scheme", Spec{Schemes: []string{"Baseline", "Baseline"}}, "duplicate"},
		{"bad workload", Spec{Workload: "nope"}, "unknown workload"},
		{"trace+workload", Spec{Trace: "x.wlct", Workload: "gcc"}, "mutually exclusive"},
		{"sweep with trace", Spec{Kind: KindSweep, Trace: "x.wlct"}, "not traces"},
		{"replay with workloads", Spec{Workloads: []string{"gcc"}}, "single workload"},
		{"negative writes", Spec{Writes: -1}, "negative writes"},
	}
	for _, c := range cases {
		got, err := c.spec.Normalize()
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
				continue
			}
			if got.Kind != KindReplay || got.Workload != "gcc" || got.Writes != 2000 || len(got.Schemes) != 2 {
				t.Errorf("%s: defaults not applied: %+v", c.name, got)
			}
		} else if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.wantErr)
		}
	}

	// An empty sweep expands to every profile.
	sw, err := Spec{Kind: KindSweep}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Workloads) < 3 {
		t.Errorf("sweep expanded to %v, want all profiles", sw.Workloads)
	}
}

func TestJobLifecycle(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m := NewManager(Config{Pool: 1, Store: st, SnapshotInterval: 10 * time.Millisecond})
	defer m.Shutdown()

	// The single worker is held by a gate job, so the lifecycle job is
	// still pending when the test subscribes and its running event
	// cannot fire first.
	gate := make(chan struct{})
	testRunHook = func(ctx context.Context, j *Job) ([]Result, bool, error) {
		if j.spec.Label == "gate" {
			<-gate
			return nil, false, nil
		}
		return m.run(ctx, j)
	}
	t.Cleanup(func() { testRunHook = nil })
	if _, err := m.Submit(Spec{Workload: "gcc", Writes: 1, Label: "gate"}); err != nil {
		t.Fatal(err)
	}

	j, err := m.Submit(Spec{Workload: "gcc", Writes: 500, Schemes: []string{"Baseline", "WLCRC-16"}, Label: "lifecycle"})
	if err != nil {
		t.Fatal(err)
	}
	ev, cancel := j.Subscribe(64)
	defer cancel()
	if s := j.State(); s != StatePending {
		t.Fatalf("lifecycle job state at subscribe = %q, want pending", s)
	}
	close(gate)
	waitState(t, j, StateDone)

	stt := j.Status()
	if len(stt.Results) != 1 || len(stt.Results[0].Metrics) != 2 {
		t.Fatalf("results = %+v, want 1 workload x 2 schemes", stt.Results)
	}
	if got := stt.Results[0].Metrics[0].Writes; got != 500 {
		t.Errorf("Baseline writes = %d, want 500", got)
	}
	if stt.Finished.Before(stt.Started) || stt.Started.Before(stt.Created) {
		t.Errorf("timestamps out of order: %+v", stt)
	}

	// The subscriber channel closed at the terminal transition and saw
	// at least the running state event on the way.
	var sawRunning bool
	for e := range ev {
		if e.Type == "state" && e.State == StateRunning {
			sawRunning = true
		}
	}
	if !sawRunning {
		t.Error("subscriber never saw the running state event")
	}

	// The terminal record (with results) is persisted.
	rec, ok := st.Job(j.ID())
	if !ok || rec.State != "done" || len(rec.Results) != 1 {
		t.Fatalf("stored record = %+v (ok=%v)", rec, ok)
	}
	rows := st.Results(store.Query{Scheme: "WLCRC-16", Label: "lifecycle"})
	if len(rows) != 1 || rows[0].Metrics.Writes != 500 {
		t.Fatalf("store rows = %+v", rows)
	}
}

func TestCancelRunningJob(t *testing.T) {
	started, _ := blockingHook(t)
	m := NewManager(Config{Pool: 1})
	defer m.Shutdown()

	j, err := m.Submit(Spec{Writes: 10})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if !m.Cancel(j.ID()) {
		t.Fatal("Cancel reported job missing")
	}
	waitState(t, j, StateCanceled)
	if res := j.Status().Results; len(res) != 1 || res[0].Workload != "partial" {
		t.Errorf("canceled job kept results %+v, want the partial snapshot", res)
	}
	if c := m.Counters(); c.Canceled != 1 {
		t.Errorf("counters = %+v, want Canceled=1", c)
	}
}

func TestCancelPendingJob(t *testing.T) {
	started, release := blockingHook(t)
	m := NewManager(Config{Pool: 1})
	defer m.Shutdown()

	blocker, err := m.Submit(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := m.Submit(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if st := queued.State(); st != StatePending {
		t.Fatalf("queued job state = %q, want pending", st)
	}
	m.Cancel(queued.ID())
	waitState(t, queued, StateCanceled)

	// Release the blocker; the worker must skip the canceled job and
	// stay healthy for the next submission.
	close(release)
	waitState(t, blocker, StateDone)
	if queued.State() != StateCanceled {
		t.Fatalf("canceled pending job was resurrected to %q", queued.State())
	}
}

func TestQueueSaturation(t *testing.T) {
	started, release := blockingHook(t)
	m := NewManager(Config{Pool: 1, QueueCap: 2})
	defer m.Shutdown()

	if _, err := m.Submit(Spec{}); err != nil { // running
		t.Fatal(err)
	}
	<-started
	for i := 0; i < 2; i++ { // fills the queue
		if _, err := m.Submit(Spec{}); err != nil {
			t.Fatalf("queued submit %d: %v", i, err)
		}
	}
	if _, err := m.Submit(Spec{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity submit: err = %v, want ErrQueueFull", err)
	}
	if c := m.Counters(); c.QueueDepth != 2 || c.Running != 1 {
		t.Errorf("counters = %+v, want QueueDepth=2 Running=1", c)
	}
	close(release)
	for _, j := range m.Jobs() {
		if !j.State().Terminal() {
			waitState(t, j, StateDone)
		}
	}
}

func TestPanicIsolation(t *testing.T) {
	calls := 0
	testRunHook = func(ctx context.Context, j *Job) ([]Result, bool, error) {
		calls++
		if calls == 1 {
			panic("injected job panic")
		}
		return []Result{{Workload: "ok"}}, false, nil
	}
	t.Cleanup(func() { testRunHook = nil })

	m := NewManager(Config{Pool: 1})
	defer m.Shutdown()

	bad, err := m.Submit(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, bad, StateFailed)
	if msg := bad.Status().Error; !strings.Contains(msg, "injected job panic") {
		t.Errorf("failed job error = %q, want the panic value", msg)
	}

	// The pool worker survived: the next job runs to completion.
	good, err := m.Submit(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, good, StateDone)
	if c := m.Counters(); c.Failed != 1 || c.Completed != 1 {
		t.Errorf("counters = %+v, want Failed=1 Completed=1", c)
	}
}

func TestShutdownCancelsAndPersists(t *testing.T) {
	started, _ := blockingHook(t)
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{Pool: 1, Store: st})

	running, err := m.Submit(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := m.Submit(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	m.Shutdown() // blocks until the pool drains

	if st1 := running.State(); st1 != StateCanceled {
		t.Errorf("running job after shutdown = %q, want canceled", st1)
	}
	if st2 := queued.State(); st2 != StateCanceled {
		t.Errorf("queued job after shutdown = %q, want canceled", st2)
	}
	// Partial snapshots persisted: the running job's record carries the
	// hook's partial result.
	rec, ok := st.Job(running.ID())
	if !ok || rec.State != "canceled" || len(rec.Results) != 1 || rec.Results[0].Workload != "partial" {
		t.Errorf("persisted record = %+v (ok=%v), want canceled with partial results", rec, ok)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := m.Submit(Spec{}); !errors.Is(err, ErrShutdown) {
		t.Errorf("submit after shutdown: err = %v, want ErrShutdown", err)
	}
}

func TestSweepJob(t *testing.T) {
	m := NewManager(Config{Pool: 2})
	defer m.Shutdown()
	j, err := m.Submit(Spec{Kind: KindSweep, Workloads: []string{"gcc", "lbm"}, Writes: 200, Schemes: []string{"Baseline"}, Series: "sweep-energy"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	res := j.Status().Results
	if len(res) != 2 || res[0].Workload != "gcc" || res[1].Workload != "lbm" {
		t.Fatalf("sweep results = %+v, want gcc then lbm", res)
	}
	for _, r := range res {
		if len(r.Metrics) != 1 || r.Metrics[0].Writes != 200 {
			t.Errorf("%s metrics = %+v", r.Workload, r.Metrics)
		}
	}
}
