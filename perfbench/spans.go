package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call from the benchmark into a layer. Parent is the
// ID of the enclosing span (0 for a root), so a span's self time is its
// duration minus the part its children cover.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog is
// the untraced mode: every method is a no-op.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its ID.
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name,
		StartNS: time.Since(l.t0).Nanoseconds(),
	})
	return id
}

// end closes the span begin returned.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].EndNS = time.Since(l.t0).Nanoseconds()
}

// totals returns the summed duration in seconds of the spans of each
// name.
func (l *spanLog) totals() map[string]float64 {
	out := map[string]float64{}
	for _, s := range l.spans {
		out[s.Name] += float64(s.EndNS-s.StartNS) / 1e9
	}
	return out
}

// write stores the spans as a JSON array.
func (l *spanLog) write(path string) error {
	data, err := json.MarshalIndent(l.spans, "", " ")
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
