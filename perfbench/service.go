package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"wlcrc/internal/jobs"
	"wlcrc/internal/server"
	"wlcrc/internal/sim"
	"wlcrc/internal/store"
)

// service is an in-process pcmserver: a job manager with a two-job
// pool, the JSONL store in a scratch directory, and the HTTP API on a
// loopback listener, driven by one client (at most two connections:
// the event stream and a request).
type service struct {
	dir    string
	st     *store.JSONL
	mgr    *jobs.Manager
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
}

func startService(dir string) (*service, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	mgr := jobs.NewManager(jobs.Config{Pool: 2, Store: st})
	s := &service{
		dir:    dir,
		st:     st,
		mgr:    mgr,
		srv:    &http.Server{Handler: server.New(mgr, st, nil)},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the listener, then the manager, then the store, and
// waits for the server goroutine to exit.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	s.mgr.Shutdown()
	if cerr := s.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// dirBytes is the store directory's total file size.
func (s *service) dirBytes() int64 {
	var n int64
	filepath.WalkDir(s.dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// jobSample is one job's client-side view: submit, follow the event
// stream to its done event, fetch the result.
type jobSample struct {
	id          string
	start, done time.Time // POST sent; SSE done event received
	submit, get time.Duration
	doneLag     time.Duration // done receipt - Status.Finished
	bytes       int           // result body size
	status      jobs.Status
	rejected    bool // the server answered 503
}

// runJob drives one job through the API and records spans for it.
func (s *service) runJob(spec jobs.Spec, tr *tracer) (jobSample, error) {
	var js jobSample
	body, err := json.Marshal(spec)
	if err != nil {
		return js, err
	}
	js.start = time.Now()
	resp, err := s.client.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return js, err
	}
	var st jobs.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	js.submit = time.Since(js.start)
	if resp.StatusCode == http.StatusServiceUnavailable {
		js.rejected = true
		return js, fmt.Errorf("submit: 503")
	}
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return js, fmt.Errorf("submit: status %d: %v", resp.StatusCode, err)
	}
	js.id = st.ID
	evStart := time.Now()
	final, err := s.follow(st.ID)
	js.done = time.Now()
	if err != nil {
		return js, err
	}
	js.doneLag = js.done.Sub(final.Finished)
	getStart := time.Now()
	resp, err = s.client.Get(s.base + "/v1/jobs/" + st.ID)
	if err != nil {
		return js, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	js.get = time.Since(getStart)
	if err != nil || resp.StatusCode != http.StatusOK {
		return js, fmt.Errorf("get: status %d: %v", resp.StatusCode, err)
	}
	js.bytes = len(data)
	if err := json.Unmarshal(data, &js.status); err != nil {
		return js, err
	}
	if tr != nil {
		root := tr.add("job", js.id, -1, js.start, time.Since(js.start), 1)
		tr.add("server.submit", js.id, root, js.start, js.submit, 1)
		tr.add("server.events", js.id, root, evStart, js.done.Sub(evStart), 1)
		tr.add("server.result_get", js.id, root, getStart, js.get, 1)
	}
	return js, nil
}

// follow reads a job's SSE stream until its done event and returns the
// final status the event carries.
func (s *service) follow(id string) (jobs.Status, error) {
	var st jobs.Status
	resp, err := s.client.Get(s.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	done := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			done = true
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && done {
			if err := json.Unmarshal([]byte(data), &st); err != nil {
				return st, err
			}
			// Drain the stream's end so the connection is reused.
			io.Copy(io.Discard, resp.Body)
			return st, nil
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	return st, fmt.Errorf("events: stream ended without a done event")
}

func jsonRoundTrip(ms []sim.Metrics) ([]sim.Metrics, error) {
	data, err := json.Marshal(ms)
	if err != nil {
		return nil, err
	}
	var out []sim.Metrics
	err = json.Unmarshal(data, &out)
	return out, err
}

// jobLoop is a closed-loop client: it submits spec and follows each job
// to its result until the deadline, making at least minJobs jobs.
func jobLoop(svc *service, tr *tracer, minJobs int, deadline time.Time, spec jobs.Spec) ([]jobSample, []error) {
	var samples []jobSample
	var errs []error
	for k := 0; k < minJobs || time.Now().Before(deadline); k++ {
		js, err := svc.runJob(spec, tr)
		samples = append(samples, js)
		errs = append(errs, err)
	}
	return samples, errs
}

// checkJob counts one op and fails it when the job erred, did not end
// done, or its result is not the direct replay's.
func (r *run) checkJob(js jobSample, err error, want []sim.Metrics) {
	r.ops++
	switch {
	case err != nil:
		r.fail("job %s: %v", js.id, err)
	case js.status.State != jobs.StateDone:
		r.fail("job %s: ended %s: %s", js.id, js.status.State, js.status.Error)
	case len(js.status.Results) != 1:
		r.fail("job %s: %d results", js.id, len(js.status.Results))
	case !reflect.DeepEqual(js.status.Results[0].Metrics, want):
		r.fail("job %s: result differs from a direct sim.Engine replay of its spec", js.id)
	}
}

// serviceLayers reports the jobs, server and store per-layer metrics
// of a set of job samples.
func (r *run) serviceLayers(samples []jobSample, errs []error, storeBytes int64) {
	var wait, runS, submit, lag, get, size []float64
	rejected := 0
	for i, js := range samples {
		if js.rejected || (errs[i] == nil && js.status.State != jobs.StateDone) {
			rejected++
		}
		if errs[i] != nil {
			continue
		}
		st := js.status
		wait = append(wait, st.Started.Sub(st.Created).Seconds())
		runS = append(runS, st.Finished.Sub(st.Started).Seconds())
		submit = append(submit, js.submit.Seconds())
		lag = append(lag, js.doneLag.Seconds())
		get = append(get, js.get.Seconds())
		size = append(size, float64(js.bytes))
	}
	r.set("jobs.queue_wait_s", median(wait), "s")
	r.set("jobs.run_s", median(runS), "s")
	r.set("jobs.rejected", float64(rejected), "count")
	r.set("server.submit_s", median(submit), "s")
	r.set("server.done_lag_s", median(lag), "s")
	r.set("server.result_get_s", median(get), "s")
	r.set("server.result_bytes", median(size), "B")
	r.set("store.bytes_per_job", float64(storeBytes)/float64(max(1, len(wait))), "B")
}
