package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// public function it calls. Spans of one operation share Op; Parent is the
// enclosing span's ID (0 at the root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int64         `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// layer is the span name's package prefix ("xai.extract" -> "xai").
func (s *span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory until the run ends. When off, begin and end
// do nothing, so the untraced code path is the traced one minus the clock
// reads.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int // stack of open span indexes
	op    int64
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// setOp starts a new operation id for subsequent root spans.
func (t *tracer) setOp(op int64) { t.op = op }

// begin opens a span under the innermost open span and returns its closer.
func (t *tracer) begin(name string) func() {
	if !t.on {
		return func() {}
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{
		ID: idx + 1, Parent: parent, Op: t.op, Name: name, Start: time.Since(t.t0),
	})
	t.open = append(t.open, idx)
	return func() {
		t.spans[idx].End = time.Since(t.t0)
		t.open = t.open[:len(t.open)-1]
	}
}

// timed runs fn inside a span and returns its wall time.
func (t *tracer) timed(name string, fn func()) time.Duration {
	end := t.begin(name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	end()
	return d
}

// selfTimes reports, per layer, the span time not covered by child spans,
// per root operation. Children of one span never overlap: every traced
// call is made from the benchmark's single caller goroutine.
func (r *report) selfTimes() {
	spans := r.tr.spans
	child := make(map[int]time.Duration)
	roots := 0
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 {
			roots++
		} else {
			child[s.Parent] += s.End - s.Start
		}
	}
	if roots == 0 {
		return
	}
	self := make(map[string]time.Duration)
	for i := range spans {
		s := &spans[i]
		self[s.layer()] += s.End - s.Start - child[s.ID]
	}
	for l, d := range self {
		r.set("self_ms_per_op."+l, ms(d)/float64(roots), "ms")
	}
}

// dump writes the spans as JSON lines.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
