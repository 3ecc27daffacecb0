// Package server is the HTTP face of the pcmserver job daemon: a thin
// net/http layer over internal/jobs (submission, status, SSE event
// streams, cancellation) and internal/store (cross-run result and
// series queries), plus /healthz and a Prometheus-style text /metrics
// endpoint. All routing is manual path parsing — the go1.21 ServeMux
// has no pattern wildcards — and every response body is JSON except
// the SSE stream and /metrics.
//
// Endpoints:
//
//	POST   /v1/jobs            submit a replay or sweep spec (202)
//	GET    /v1/jobs            list jobs known to this process
//	GET    /v1/jobs/{id}        job status (falls back to the store
//	                            for jobs from previous server runs)
//	GET    /v1/jobs/{id}/events SSE stream: state/progress/snapshot
//	                            events, closed by a final done event
//	DELETE /v1/jobs/{id}        cancel (pending or running)
//	GET    /v1/results?scheme=&workload=&label=&job=   stored rows
//	GET    /v1/series           stored series names
//	GET    /v1/series/{name}    stored series points
//	GET    /healthz             liveness
//	GET    /metrics             Prometheus text format
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"wlcrc/internal/jobs"
	"wlcrc/internal/store"
)

// Server routes HTTP requests onto a job manager and a store. Both are
// owned by the caller (cmd/pcmserver wires and shuts them down).
type Server struct {
	mgr   *jobs.Manager
	store store.Store
	log   *slog.Logger
	start time.Time
}

// New builds a Server. store may be nil (no persistence: /v1/results
// and /v1/series serve empty sets); log may be nil (silent).
func New(mgr *jobs.Manager, st store.Store, log *slog.Logger) *Server {
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return &Server{mgr: mgr, store: st, log: log, start: time.Now()}
}

// ServeHTTP implements http.Handler with structured request logging.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	s.route(sw, r)
	s.log.Info("request",
		"method", r.Method,
		"path", r.URL.Path,
		"status", sw.code,
		"duration_ms", time.Since(t0).Milliseconds(),
		"remote", r.RemoteAddr,
	)
}

// statusWriter captures the response code for the request log. It
// deliberately does not implement http.Flusher pass-through implicitly:
// the SSE handler needs Flush, so it is forwarded explicitly.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer when it streams.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// route dispatches by path. go1.21's ServeMux cannot express
// /v1/jobs/{id}/events, so the tree is parsed by hand.
func (s *Server) route(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch {
	case path == "/healthz":
		s.handleHealth(w, r)
	case path == "/metrics":
		s.handleMetrics(w, r)
	case path == "/v1/jobs":
		switch r.Method {
		case http.MethodPost:
			s.handleSubmit(w, r)
		case http.MethodGet:
			s.handleListJobs(w, r)
		default:
			s.methodNotAllowed(w, "GET, POST")
		}
	case strings.HasPrefix(path, "/v1/jobs/"):
		rest := strings.TrimPrefix(path, "/v1/jobs/")
		if id, ok := strings.CutSuffix(rest, "/events"); ok && !strings.Contains(id, "/") && id != "" {
			s.handleEvents(w, r, id)
			return
		}
		if rest == "" || strings.Contains(rest, "/") {
			s.errorJSON(w, http.StatusNotFound, "no such resource")
			return
		}
		switch r.Method {
		case http.MethodGet:
			s.handleJob(w, r, rest)
		case http.MethodDelete:
			s.handleCancel(w, r, rest)
		default:
			s.methodNotAllowed(w, "GET, DELETE")
		}
	case path == "/v1/results":
		s.handleResults(w, r)
	case path == "/v1/series":
		s.handleSeriesNames(w, r)
	case strings.HasPrefix(path, "/v1/series/"):
		name := strings.TrimPrefix(path, "/v1/series/")
		if name == "" || strings.Contains(name, "/") {
			s.errorJSON(w, http.StatusNotFound, "no such resource")
			return
		}
		s.handleSeries(w, r, name)
	default:
		s.errorJSON(w, http.StatusNotFound, "no such resource")
	}
}

func (s *Server) methodNotAllowed(w http.ResponseWriter, allow string) {
	w.Header().Set("Allow", allow)
	s.errorJSON(w, http.StatusMethodNotAllowed, "method not allowed")
}

// writeJSON writes v as the JSON response body.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.log.Error("encode response", "err", err)
	}
}

// errorJSON writes a {"error": ...} body.
func (s *Server) errorJSON(w http.ResponseWriter, code int, format string, args ...any) {
	s.writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleSubmit accepts a jobs.Spec and queues it.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec jobs.Spec
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.errorJSON(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	j, err := s.mgr.Submit(spec)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		s.errorJSON(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, jobs.ErrShutdown):
		s.errorJSON(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		s.errorJSON(w, http.StatusBadRequest, "%v", err)
	default:
		s.writeJSON(w, http.StatusAccepted, j.Status())
	}
}

// handleListJobs lists this process's jobs, oldest first.
func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	live := s.mgr.Jobs()
	out := make([]jobs.Status, 0, len(live))
	for _, j := range live {
		out = append(out, j.Status())
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// handleJob returns one job's status: the live job when this process
// owns it, else the persisted record — results from previous server
// runs stay addressable by the same URL.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request, id string) {
	if j, ok := s.mgr.Job(id); ok {
		s.writeJSON(w, http.StatusOK, j.Status())
		return
	}
	if s.store != nil {
		if rec, ok := s.store.Job(id); ok {
			s.writeJSON(w, http.StatusOK, rec)
			return
		}
	}
	s.errorJSON(w, http.StatusNotFound, "no job %q", id)
}

// handleCancel cancels a pending or running job.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request, id string) {
	if !s.mgr.Cancel(id) {
		s.errorJSON(w, http.StatusNotFound, "no job %q", id)
		return
	}
	j, _ := s.mgr.Job(id)
	s.writeJSON(w, http.StatusOK, j.Status())
}

// handleEvents streams a job's events as SSE until the job finishes or
// the client goes away. Every stream ends with a `done` event carrying
// the job's final status (also sent immediately for already-terminal
// jobs, so late subscribers still get a well-formed stream).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, id string) {
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, "GET")
		return
	}
	j, ok := s.mgr.Job(id)
	if !ok {
		s.errorJSON(w, http.StatusNotFound, "no job %q", id)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.errorJSON(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	send := func(event string, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}

	ch, cancel := j.Subscribe(256)
	defer cancel()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-ch:
			if !open {
				// Terminal: close the stream with the final status.
				send("done", j.Status())
				return
			}
			if !send(ev.Type, ev) {
				return
			}
		}
	}
}

// handleResults serves stored result rows filtered by query params.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, "GET")
		return
	}
	rows := []store.ResultRow{}
	if s.store != nil {
		q := store.Query{
			Scheme:   r.URL.Query().Get("scheme"),
			Workload: r.URL.Query().Get("workload"),
			Label:    r.URL.Query().Get("label"),
			JobID:    r.URL.Query().Get("job"),
		}
		rows = s.store.Results(q)
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"results": rows})
}

// handleSeriesNames lists stored series.
func (s *Server) handleSeriesNames(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, "GET")
		return
	}
	names := []string{}
	if s.store != nil {
		names = s.store.SeriesNames()
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"series": names})
}

// handleSeries serves one series' points in append order.
func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request, name string) {
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, "GET")
		return
	}
	pts := []store.SeriesPoint{}
	if s.store != nil {
		pts = s.store.Series(name)
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"name": name, "points": pts})
}

// handleHealth is the liveness probe.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": int64(time.Since(s.start).Seconds()),
	})
}

// handleMetrics renders the Prometheus text exposition format by hand —
// a dozen gauges and counters do not justify a client library (and the
// repo is stdlib-only by charter).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c := s.mgr.Counters()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var b strings.Builder
	metric := func(name, help, typ string, val any) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, typ, name, val)
	}
	metric("pcmserver_jobs_submitted_total", "Jobs accepted into the queue.", "counter", c.Submitted)
	metric("pcmserver_jobs_completed_total", "Jobs that reached done (including degraded).", "counter", c.Completed)
	metric("pcmserver_jobs_failed_total", "Jobs that reached failed.", "counter", c.Failed)
	metric("pcmserver_jobs_canceled_total", "Jobs canceled before or during their run.", "counter", c.Canceled)
	metric("pcmserver_jobs_running", "Jobs currently replaying.", "gauge", c.Running)
	metric("pcmserver_jobs_running_peak", "High-water mark of concurrently running jobs.", "gauge", c.PeakRunning)
	metric("pcmserver_queue_depth", "Pending jobs waiting for a pool worker.", "gauge", c.QueueDepth)
	metric("pcmserver_replayed_requests_total", "Engine requests dispatched across all jobs.", "counter", c.Replayed)
	if sw, ok := s.store.(interface{ Writes() uint64 }); ok && s.store != nil {
		metric("pcmserver_store_writes_total", "Records appended to the result store by this process.", "counter", sw.Writes())
	}
	metric("pcmserver_uptime_seconds", "Seconds since the server started.", "gauge", int64(time.Since(s.start).Seconds()))
	io.WriteString(w, b.String())
}
