// Package store is the persistence layer behind the pcmserver job
// daemon: it records finished (and interrupted) simulation jobs — the
// spec that launched them plus the per-scheme Metrics, fault stats and
// wear digests they produced — and named bench series compatible with
// the BENCH_encode.json regression gates, so runs survive a server
// restart and stay queryable and comparable across days.
//
// The only implementation today is JSONL (Open): append-only JSON-lines
// segments under a data directory plus an in-memory index rebuilt on
// open. Everything consumes the Store interface, so a SQLite (or any
// other) backend can slot in later without touching the jobs or server
// layers. The format is deliberately dumb: one self-describing JSON
// envelope per line, recovered by re-scanning, with a truncated final
// line (a crash mid-append) tolerated and skipped.
package store

import (
	"encoding/json"
	"strings"

	"wlcrc/internal/sim"
)

// WorkloadResult is one workload's slice of a job's results: the merged
// per-scheme metrics of a single replay, index-aligned with the job's
// scheme list.
type WorkloadResult struct {
	Workload string        `json:"workload"`
	Metrics  []sim.Metrics `json:"metrics"`
}

// JobRecord is the persisted form of one job. Spec carries the exact
// submission body (re-runnable verbatim); the flattened Label, Trace,
// Workloads and Schemes columns exist so queries never need to parse
// it. A record is written once when the job is accepted (no Results)
// and rewritten at its terminal state — the index keeps the latest
// version per ID.
type JobRecord struct {
	ID    string `json:"id"`
	Label string `json:"label,omitempty"`
	// State is the job's state machine position when the record was
	// written: pending, running, done, failed or canceled. Records left
	// in a non-terminal state belong to a previous server process that
	// died before finishing them.
	State    string `json:"state"`
	Error    string `json:"error,omitempty"`
	Degraded bool   `json:"degraded,omitempty"`
	// Created and Finished are unix nanoseconds (Finished 0 while the
	// job is live).
	Created  int64 `json:"created_unix_ns"`
	Finished int64 `json:"finished_unix_ns,omitempty"`

	Trace     string   `json:"trace,omitempty"`
	Workloads []string `json:"workloads,omitempty"`
	Schemes   []string `json:"schemes,omitempty"`

	// Spec is the verbatim submission body (a jobs.Spec, stored opaquely
	// so the store does not depend on the jobs package).
	Spec json.RawMessage `json:"spec,omitempty"`

	// Results holds the per-workload, per-scheme metrics of a finished
	// job — partial when the job was canceled or failed mid-replay.
	Results []WorkloadResult `json:"results,omitempty"`
}

// SeriesPoint is one observation of a named bench series: a flat
// key→value map in the same shape cmd/benchguard parses out of `go test
// -bench` output (full benchmark name → ns/op, such as
// "BenchmarkIngest/mapped"), so a series named after a BENCH_encode.json
// gate row feeds that row's regression gate. Jobs with a Series label record their per-scheme
// pJ/write here; CI pushes measured bench maps over POST /v1/series.
type SeriesPoint struct {
	Name   string             `json:"name"`
	JobID  string             `json:"job_id,omitempty"`
	Unix   int64              `json:"unix_ns"`
	Values map[string]float64 `json:"values"`
}

// Query filters Results. Zero fields match everything; set fields must
// match exactly (Scheme matches the metrics' scheme name).
type Query struct {
	Scheme   string
	Workload string
	Label    string
	JobID    string
}

// ResultRow is one (job, workload, scheme) result — the flattened,
// queryable grain of the store.
type ResultRow struct {
	JobID    string      `json:"job_id"`
	Label    string      `json:"label,omitempty"`
	Workload string      `json:"workload"`
	Scheme   string      `json:"scheme"`
	Finished int64       `json:"finished_unix_ns"`
	Metrics  sim.Metrics `json:"metrics"`
}

// Store is the persistence interface the jobs manager and HTTP server
// program against. Implementations must be safe for concurrent use.
type Store interface {
	// PutJob appends (or, for an existing ID, supersedes) a job record.
	PutJob(rec JobRecord) error
	// Job returns the latest record for id.
	Job(id string) (JobRecord, bool)
	// Jobs returns every job record, oldest first.
	Jobs() []JobRecord
	// Results flattens finished jobs into (job, workload, scheme) rows
	// matching q, oldest job first.
	Results(q Query) []ResultRow
	// PutSeries appends one series observation.
	PutSeries(p SeriesPoint) error
	// Series returns the named series' points in append order.
	Series(name string) []SeriesPoint
	// SeriesNames returns the sorted names of all recorded series.
	SeriesNames() []string
	// Close flushes and releases the backing files. The store must not
	// be used afterwards.
	Close() error
}

// Match reports whether row passes the query filters.
func (q Query) Match(row ResultRow) bool {
	if q.Scheme != "" && !strings.EqualFold(q.Scheme, row.Scheme) {
		return false
	}
	if q.Workload != "" && !strings.EqualFold(q.Workload, row.Workload) {
		return false
	}
	if q.Label != "" && !strings.EqualFold(q.Label, row.Label) {
		return false
	}
	if q.JobID != "" && q.JobID != row.JobID {
		return false
	}
	return true
}

// flatten expands one job record into result rows.
func flatten(rec JobRecord) []ResultRow {
	var rows []ResultRow
	for _, wr := range rec.Results {
		for _, m := range wr.Metrics {
			rows = append(rows, ResultRow{
				JobID:    rec.ID,
				Label:    rec.Label,
				Workload: wr.Workload,
				Scheme:   m.Scheme,
				Finished: rec.Finished,
				Metrics:  m,
			})
		}
	}
	return rows
}
