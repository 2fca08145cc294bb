package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer's public API.
// Name is "layer.Call"; Tag qualifies it (a §5.1 phase, "prefix", "cell",
// a scenario name). Spans of one op share Op; Parent is the enclosing
// span's ID, 0 at the top.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Tag    string        `json:"tag,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// layer returns the part of the span name before the first dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory for the traced pass. A nil *tracer is the
// untraced path: do runs the call and records nothing, so both passes share
// one code path per workload.
type tracer struct {
	t0    time.Time
	op    int
	mu    sync.Mutex // guards spans: sweep cells report from pool goroutines
	spans []span
	stack []int // open spans of the calling goroutine
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// beginOp starts a new op id; spans opened afterwards carry it.
func (t *tracer) beginOp() {
	if t != nil {
		t.op++
	}
}

// do runs fn inside a span named name.
func (t *tracer) do(name, tag string, fn func()) {
	if t == nil {
		fn()
		return
	}
	t.mu.Lock()
	s := span{ID: len(t.spans) + 1, Op: t.op, Name: name, Tag: tag}
	if n := len(t.stack); n > 0 {
		s.Parent = t.stack[n-1]
	}
	t.spans = append(t.spans, s)
	t.stack = append(t.stack, s.ID)
	idx := len(t.spans) - 1
	t.spans[idx].Start = time.Since(t.t0)
	t.mu.Unlock()

	fn()

	end := time.Since(t.t0)
	t.mu.Lock()
	t.spans[idx].End = end
	t.stack = t.stack[:len(t.stack)-1]
	t.mu.Unlock()
}

// record adds a span that already finished, timed by someone else: a sweep
// cell reported through experiment.Progress, which ran on a pool worker
// under the currently open span.
func (t *tracer) record(name, tag string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{ID: len(t.spans) + 1, Op: t.op, Name: name, Tag: tag,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)}
	if n := len(t.stack); n > 0 {
		s.Parent = t.stack[n-1]
	}
	t.spans = append(t.spans, s)
}

// find returns the durations of the spans matching name and tag ("" tag
// matches any), in recording order.
func (t *tracer) find(name, tag string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && (tag == "" || s.Tag == tag) {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns each layer's self time over the spans of op: a span's
// duration minus the part of it its children cover. Children may overlap
// (parallel sweep cells), so their union is subtracted, not their sum.
func (t *tracer) selfTimes(op int) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Op == op && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		if s.Op == op {
			self[s.layer()] += s.dur() - covered(s, children[s.ID])
		}
	}
	return self
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	var curStart, curEnd time.Duration
	open := false
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi <= lo {
			continue
		}
		if open && lo <= curEnd {
			curEnd = max(curEnd, hi)
			continue
		}
		if open {
			total += curEnd - curStart
		}
		curStart, curEnd, open = lo, hi, true
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// writeNDJSON writes every span as one JSON object per line.
func (t *tracer) writeNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
