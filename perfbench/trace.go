package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans of one workload op
// share Op; a child span's Parent is its parent's ID (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory; main writes them out
// when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// add records a finished span and returns its ID. A child inherits its
// parent's op id.
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent >= 0 {
		op = t.spans[parent].Op
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: op, ID: id, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// time runs f inside a span named name under parent (-1: a root of its
// own, outside any workload op).
func (t *tracer) time(name string, parent int, f func()) {
	t0 := time.Now()
	f()
	t.add(name, -1, parent, t0, time.Now())
}

// durations returns the µs durations of the spans named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// rootDurations returns the µs durations of the workload ops' root spans.
func (t *tracer) rootDurations() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Parent < 0 && strings.HasPrefix(s.Name, "op.") {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// writeFile writes the recorded spans as JSON lines under dir.
func (t *tracer) writeFile(dir, name string) error {
	if dir == "" || t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(sb.String()), 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
