package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval around a call into a layer. Per-call
// probes aggregate into one span per layer per pass, with Calls
// counting the calls it covers, which keeps a trace to a few spans per
// pass.
type span struct {
	Name   string `json:"name"`
	Trace  string `json:"trace"` // pass number or job ID
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int    `json:"calls,omitempty"`
}

// tracer records spans in memory; a nil *tracer records nothing, so
// untraced runs pay one nil check per boundary. Spans of a server job
// end on the client goroutines, hence the lock.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(name, trace string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Trace: trace, Parent: parent, Start: now})
	return len(t.spans) - 1
}

// end closes span i, recording how many calls it covered.
func (t *tracer) end(i, calls int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.spans[i].Calls = calls
	t.mu.Unlock()
}

// add records an already-measured interval as a closed span and
// returns its index (-1 when tracing is off).
func (t *tracer) add(name, trace string, parent int, start time.Time, d time.Duration, calls int) int {
	if t == nil {
		return -1
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Trace: trace, Parent: parent, Start: s, End: s + d.Nanoseconds(), Calls: calls})
	return len(t.spans) - 1
}

// selfTimes sums, per span name, each span's duration minus the part
// of it its children cover (children of one parent never overlap here:
// every parent issues its calls one after another), in seconds.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[s.Name] += float64(s.End-s.Start-child[i]) / 1e9
	}
	return out
}

// count returns how many spans carry name.
func (t *tracer) count(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// write dumps the spans as a JSON array in recording order, so a span's
// Parent is its parent's array index.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
