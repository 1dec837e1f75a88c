package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer records the benchmark's own spans around its calls into the
// program's public functions. Spans stay in memory and are written out
// when the run ends. A nil *tracer records nothing, so untraced runs
// pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed call. IDs start at 1; Parent 0 marks a root.
// Node is the hierarchy node or tenant index the call addressed (-1
// when none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Node   int    `json:"node"`
	// StartNs and DurNs are measured from the tracer's creation.
	StartNs int64 `json:"start_ns"`
	DurNs   int64 `json:"dur_ns"`
	// SelfNs is DurNs minus the time covered by the span's children.
	SelfNs int64 `json:"self_ns"`
	start  time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, node int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Node: node, start: now, StartNs: now.Sub(t.t0).Nanoseconds()})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	d := now.Sub(s.start)
	s.DurNs = d.Nanoseconds()
	return d
}

// record adds a closed span with explicit start and end times, for a
// call timed across goroutines (a query sent on one and answered on
// another).
func (t *tracer) record(name string, parent, node int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Node: node, start: start,
		StartNs: start.Sub(t.t0).Nanoseconds(), DurNs: end.Sub(start).Nanoseconds()})
}

// durationsIn returns the durations, in seconds, of the spans with the
// given name that started in [from, to).
func (t *tracer) durationsIn(name string, from, to time.Time) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && !s.start.Before(from) && s.start.Before(to) {
			out = append(out, float64(s.DurNs)/1e9)
		}
	}
	return out
}

// durations returns the durations of every closed span with the given
// name, in seconds.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.DurNs)/1e9)
		}
	}
	return out
}

// total sums the durations of every span with the given name, in
// seconds.
func (t *tracer) total(name string) float64 {
	sum := 0.0
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// write stores the spans, with their self times, as JSON at path.
func (t *tracer) write(path, workload string, seed uint64) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make([]int64, len(spans)+1)
	for _, s := range spans {
		children[s.Parent] += s.DurNs
	}
	for i := range spans {
		spans[i].SelfNs = spans[i].DurNs - children[spans[i].ID]
		if spans[i].SelfNs < 0 {
			// Children running concurrently (batch scoring on the pool)
			// can cover more than their parent's wall time.
			spans[i].SelfNs = 0
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
