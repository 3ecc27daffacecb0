package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"wlcrc"
	"wlcrc/internal/jobs"
	"wlcrc/internal/server"
	"wlcrc/internal/sim"
	"wlcrc/internal/store"
)

// newTestServer wires a manager + optional store dir behind an
// httptest server and tears everything down with the test.
func newTestServer(t *testing.T, cfg jobs.Config, dataDir string) (*httptest.Server, *jobs.Manager) {
	t.Helper()
	var st store.Store
	if dataDir != "" {
		js, err := store.Open(dataDir)
		if err != nil {
			t.Fatal(err)
		}
		st = js
		t.Cleanup(func() { js.Close() })
	}
	cfg.Store = st
	mgr := jobs.NewManager(cfg)
	t.Cleanup(mgr.Shutdown)
	ts := httptest.NewServer(server.New(mgr, st, nil))
	t.Cleanup(ts.Close)
	return ts, mgr
}

// submit POSTs a spec and decodes the accepted status.
func submit(t *testing.T, ts *httptest.Server, spec jobs.Spec) jobs.Status {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("submit: status %d: %v", resp.StatusCode, e)
	}
	var st jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// getStatus fetches one job's status.
func getStatus(t *testing.T, ts *httptest.Server, id string) (jobs.Status, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobs.Status
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

// waitDone polls a job over the API until it reaches a terminal state.
func waitDone(t *testing.T, ts *httptest.Server, id string, want jobs.State) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, code := getStatus(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %q (err=%q), want %q", id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %q", id, want)
	return jobs.Status{}
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	event string
	data  []byte
}

// readSSE consumes a job's event stream until the final done event.
func readSSE(t *testing.T, ts *httptest.Server, id string) []sseEvent {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events: content type %q", ct)
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if cur.event != "" {
				events = append(events, cur)
				if cur.event == "done" {
					return events
				}
				cur = sseEvent{}
			}
		}
	}
	t.Fatalf("SSE stream ended without a done event (%d events, scan err %v)", len(events), sc.Err())
	return nil
}

// TestSubmitStreamFetch is the headline flow: submit a job, watch its
// SSE stream deliver progress and snapshots, then fetch the result and
// find it in the store.
func TestSubmitStreamFetch(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Config{
		Pool:             2,
		SnapshotInterval: 5 * time.Millisecond,
		ProgressInterval: time.Millisecond,
	}, t.TempDir())

	st := submit(t, ts, jobs.Spec{
		Workload: "gcc", Writes: 150000, Seed: 11, Label: "stream",
		Schemes: []string{"Baseline", "WLCRC-16"},
	})
	if st.State != jobs.StatePending && st.State != jobs.StateRunning {
		t.Fatalf("accepted job state = %q", st.State)
	}

	events := readSSE(t, ts, st.ID)
	var sawProgress, sawSnapshot bool
	for _, e := range events {
		switch e.event {
		case "progress":
			var ev jobs.Event
			if err := json.Unmarshal(e.data, &ev); err != nil || ev.Progress == nil {
				t.Fatalf("bad progress event %s (err=%v)", e.data, err)
			}
			if ev.Progress.Workload == "gcc" && ev.Progress.Dispatched > 0 {
				sawProgress = true
			}
		case "snapshot":
			sawSnapshot = true
		}
	}
	if !sawProgress {
		t.Error("SSE stream delivered no progress events")
	}
	if !sawSnapshot {
		t.Error("SSE stream delivered no snapshot events")
	}
	final := events[len(events)-1]
	var done jobs.Status
	if err := json.Unmarshal(final.data, &done); err != nil {
		t.Fatal(err)
	}
	if done.State != jobs.StateDone {
		t.Fatalf("final SSE status = %q (err=%q)", done.State, done.Error)
	}

	got := waitDone(t, ts, st.ID, jobs.StateDone)
	if len(got.Results) != 1 || len(got.Results[0].Metrics) != 2 {
		t.Fatalf("results = %+v", got.Results)
	}
	if got.Results[0].Metrics[0].Writes != 150000 {
		t.Errorf("writes = %d", got.Results[0].Metrics[0].Writes)
	}

	// The store has the flattened rows, queryable by scheme and label.
	resp, err := http.Get(ts.URL + "/v1/results?scheme=wlcrc-16&label=stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rows struct {
		Results []store.ResultRow `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	if len(rows.Results) != 1 || rows.Results[0].JobID != st.ID || rows.Results[0].Metrics.Writes != 150000 {
		t.Fatalf("stored rows = %+v", rows.Results)
	}
}

// TestDeterminismMatchesDirectReplay is the product guarantee: metrics
// produced by the server — through job queueing, concurrent execution,
// JSON encoding and the HTTP API — are bit-identical to a direct
// wlcrc.Replay of the same spec.
func TestDeterminismMatchesDirectReplay(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Config{Pool: 4}, "")

	const (
		writes = 4000
		seed   = 17
	)
	schemeNames := []string{"Baseline", "WLCRC-16", "VCC-4"}

	// Direct path: the public batch API, serial workers.
	var schemes []wlcrc.Scheme
	for _, n := range schemeNames {
		schemes = append(schemes, wlcrc.MustScheme(n))
	}
	wl, err := wlcrc.NewWorkload("gcc", 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := wlcrc.Replay(wl, writes, wlcrc.ReplayOptions{Seed: seed, Workers: 1, TrackWear: true}, schemes...)
	if err != nil {
		t.Fatal(err)
	}

	// Server path: same spec, default (parallel) workers, JSON round
	// trip through the API.
	st := submit(t, ts, jobs.Spec{
		Workload: "gcc", Writes: writes, Seed: seed, TrackWear: true,
		Schemes: schemeNames,
	})
	got := waitDone(t, ts, st.ID, jobs.StateDone)
	if len(got.Results) != 1 {
		t.Fatalf("results = %+v", got.Results)
	}
	if !reflect.DeepEqual(got.Results[0].Metrics, direct) {
		t.Errorf("server metrics diverge from direct wlcrc.Replay:\n got %+v\nwant %+v",
			got.Results[0].Metrics, direct)
	}
}

// TestConcurrentJobs drives the acceptance criterion: at least 4 jobs
// replaying concurrently over HTTP, observed through the /metrics
// running gauge.
func TestConcurrentJobs(t *testing.T) {
	ts, mgr := newTestServer(t, jobs.Config{Pool: 4}, "")

	// Submit all four in parallel: on a single-CPU machine a running
	// engine starves sequential submits long enough for early jobs to
	// finish, so the POSTs must race the replays to get four jobs into
	// the running state at once. The jobs are single-worker and big
	// enough to outlive the submission burst by a wide margin.
	ids := make([]string, 4)
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := jobs.Spec{
				Workload: "gcc", Writes: 150000, Seed: uint64(i + 1),
				Schemes: []string{"Baseline"}, Workers: 1,
			}
			body, _ := json.Marshal(spec)
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				errs[i] = fmt.Errorf("submit %d: status %d", i, resp.StatusCode)
				return
			}
			var st jobs.Status
			if errs[i] = json.NewDecoder(resp.Body).Decode(&st); errs[i] == nil {
				ids[i] = st.ID
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		waitDone(t, ts, id, jobs.StateDone)
	}
	if peak := mgr.Counters().PeakRunning; peak < 4 {
		t.Errorf("peak concurrent jobs = %d, want >= 4", peak)
	}

	// The Prometheus endpoint reports the lifetime counters.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	metrics := buf.String()
	for _, want := range []string{
		"pcmserver_jobs_submitted_total 4",
		"pcmserver_jobs_completed_total 4",
		"pcmserver_jobs_running_peak 4",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestRestartPersistence: results written by one server process are
// served by the next one from the same data dir, addressable by the
// same job URL and queryable by scheme.
func TestRestartPersistence(t *testing.T) {
	dir := t.TempDir()

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mgr1 := jobs.NewManager(jobs.Config{Pool: 1, Store: st1})
	ts1 := httptest.NewServer(server.New(mgr1, st1, nil))
	job := submit(t, ts1, jobs.Spec{Workload: "lbm", Writes: 800, Seed: 5, Label: "restart", Schemes: []string{"WLCRC-16"}})
	final := waitDone(t, ts1, job.ID, jobs.StateDone)
	ts1.Close()
	mgr1.Shutdown()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second server process: fresh manager, same data dir.
	ts2, _ := newTestServer(t, jobs.Config{Pool: 1}, dir)
	resp, err := http.Get(ts2.URL + "/v1/jobs/" + job.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job from previous run: status %d", resp.StatusCode)
	}
	var rec store.JobRecord
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.State != "done" || len(rec.Results) != 1 {
		t.Fatalf("restored record = %+v", rec)
	}
	if !reflect.DeepEqual(rec.Results[0].Metrics, final.Results[0].Metrics) {
		t.Error("metrics changed across the restart round trip")
	}

	resp2, err := http.Get(ts2.URL + "/v1/results?scheme=WLCRC-16")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var rows struct {
		Results []store.ResultRow `json:"results"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	if len(rows.Results) != 1 || rows.Results[0].Label != "restart" {
		t.Fatalf("rows after restart = %+v", rows.Results)
	}
}

// TestCancelOverHTTP cancels a running job with DELETE and checks the
// canceled state lands, with whatever partial snapshot the engine had.
func TestCancelOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Config{Pool: 1}, "")
	// A job big enough to still be running when the DELETE arrives.
	st := submit(t, ts, jobs.Spec{Workload: "gcc", Writes: 50000000, Workers: 1, Schemes: []string{"Baseline"}})

	// Wait until it is actually running before canceling.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		cur, _ := getStatus(t, ts, st.ID)
		if cur.State == jobs.StateRunning {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	waitDone(t, ts, st.ID, jobs.StateCanceled)
}

// TestAPIErrors covers the unhappy paths: bad specs, unknown jobs,
// wrong methods.
func TestAPIErrors(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Config{Pool: 1}, "")

	cases := []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/v1/jobs", `{"workload":"nope"}`, http.StatusBadRequest},
		{"POST", "/v1/jobs", `{"schemes":["bogus"]}`, http.StatusBadRequest},
		{"POST", "/v1/jobs", `{"unknown_field":1}`, http.StatusBadRequest},
		{"POST", "/v1/jobs", `not json`, http.StatusBadRequest},
		{"GET", "/v1/jobs/nope", "", http.StatusNotFound},
		{"DELETE", "/v1/jobs/nope", "", http.StatusNotFound},
		{"GET", "/v1/jobs/nope/events", "", http.StatusNotFound},
		{"PUT", "/v1/jobs", "", http.StatusMethodNotAllowed},
		{"GET", "/v1/nope", "", http.StatusNotFound},
		{"POST", "/v1/series", `{"values":{}}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path, resp.StatusCode, c.want)
		}
	}
}

// TestSeriesEndpoints pushes a series point and reads it back — the
// push side of benchguard -from-store.
func TestSeriesEndpoints(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Config{Pool: 1}, t.TempDir())

	point := store.SeriesPoint{Name: "encode", Unix: 99, Values: map[string]float64{"BenchmarkEncodeInto/WLCRC-16": 1466.5, "BenchmarkEncodeInto/Baseline": 2200}}
	body, _ := json.Marshal(point)
	resp, err := http.Post(ts.URL+"/v1/series", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST series: status %d", resp.StatusCode)
	}

	resp2, err := http.Get(ts.URL + "/v1/series/encode")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var got struct {
		Name   string              `json:"name"`
		Points []store.SeriesPoint `json:"points"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != 1 || !reflect.DeepEqual(got.Points[0], point) {
		t.Fatalf("series points = %+v, want %+v", got.Points, point)
	}

	resp3, err := http.Get(ts.URL + "/v1/series")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var names struct {
		Series []string `json:"series"`
	}
	if err := json.NewDecoder(resp3.Body).Decode(&names); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(names.Series) != "[encode]" {
		t.Fatalf("series names = %v", names.Series)
	}
}

// TestHealthz sanity-checks the liveness probe.
func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t, jobs.Config{Pool: 1}, "")
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz: %d %v", resp.StatusCode, body)
	}
}

var _ = sim.Metrics{} // the API round-trips sim.Metrics; keep the import explicit
