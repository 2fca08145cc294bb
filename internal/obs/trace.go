package obs

import (
	"io"
	"math"
	"strconv"
	"sync"
)

// Week mirrors sim.Week (seconds) without importing the kernel: trace lines
// and metric samples carry both raw sim seconds ("t") and derived weeks
// ("week") so downstream jq/plot pipelines never redo the conversion.
const week = 7 * 24 * 3600

// Sink serializes NDJSON lines from any number of writers onto one
// io.Writer. It is the only concurrency point of the plane: sweep workers
// share a sink while each owns its own Registry/Trace. Write errors are
// sticky and reported once via Err; later lines are dropped silently so a
// full disk cannot wedge a sweep.
type Sink struct {
	mu    sync.Mutex
	w     io.Writer
	lines int64
	err   error
}

// NewSink wraps w. The caller keeps ownership of w (closing, buffering).
func NewSink(w io.Writer) *Sink { return &Sink{w: w} }

// WriteLine writes one line (a terminating '\n' is appended; line must not
// contain one). Safe for concurrent use.
func (s *Sink) WriteLine(line []byte) { s.writeBlock(append(line, '\n'), 1) }

// writeBlock writes a block of whole lines, each ending in '\n', in one
// write under one lock, so lines from concurrent writers interleave per
// block and never mid-line. A failed write sets the sticky error and counts
// none of the block's lines.
func (s *Sink) writeBlock(block []byte, lines int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if _, err := s.w.Write(block); err != nil {
		s.err = err
		return
	}
	s.lines += int64(lines)
}

// Lines returns how many lines were written successfully.
func (s *Sink) Lines() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lines
}

// Err returns the first write error, if any.
func (s *Sink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Trace emits structured run events as NDJSON lines of the shape
//
//	{"t":<sim s>,"week":<t/week>,"event":"<name>",<tags...>,<fields...>}
//
// One Trace belongs to one run at a time; the scratch buffer is reused line
// over line, so Emit allocates only when a line outgrows every previous
// line. Rearm a pooled Trace for the next run with SetTags.
type Trace struct {
	sink *Sink
	tags []F
	buf  []byte
}

// NewTrace returns a trace writing to sink with the given constant tags
// (stamped on every line — e.g. scenario and rep in a sweep).
func NewTrace(sink *Sink, tags ...F) *Trace {
	return &Trace{sink: sink, tags: tags}
}

// SetTags replaces the constant tags; part of the pooled-run Reset contract.
func (t *Trace) SetTags(tags ...F) { t.tags = tags }

// Emit writes one event line. A no-op on a nil Trace.
func (t *Trace) Emit(at float64, event string, fields ...F) {
	if t == nil || t.sink == nil {
		return
	}
	b := t.buf[:0]
	b = append(b, `{"t":`...)
	b = appendJSONFloat(b, at)
	b = append(b, `,"week":`...)
	b = appendJSONFloat(b, at/week)
	b = append(b, `,"event":`...)
	b = appendJSONString(b, event)
	for i := range t.tags {
		b = appendField(b, &t.tags[i])
	}
	for i := range fields {
		b = appendField(b, &fields[i])
	}
	b = append(b, '}')
	t.buf = b
	t.sink.WriteLine(b)
}

// Line renders one standalone NDJSON object from fields (no newline): the
// escape hatch for telemetry records that are not sim-time trace events,
// like the sweep's wall-clock aggregate snapshots.
func Line(fields ...F) []byte {
	b := []byte{'{'}
	for i := range fields {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, fields[i].Key)
		b = append(b, ':')
		b = appendValue(b, &fields[i])
	}
	return append(b, '}')
}

// appendField appends `,"key":value` for one F.
func appendField(b []byte, f *F) []byte {
	b = append(b, ',')
	b = appendJSONString(b, f.Key)
	b = append(b, ':')
	return appendValue(b, f)
}

// appendValue appends one F's value as JSON.
func appendValue(b []byte, f *F) []byte {
	switch f.kind {
	case fieldStr:
		b = appendJSONString(b, f.str)
	case fieldNum:
		b = appendJSONFloat(b, f.num)
	case fieldInt:
		b = strconv.AppendInt(b, f.i, 10)
	}
	return b
}

// appendJSONFloat appends v as a JSON number; NaN and ±Inf (not valid JSON
// numbers) become null so the output always parses.
func appendJSONFloat(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(b, `null`...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendJSONString appends s as a quoted, escaped JSON string. Metric and
// event names here are ASCII identifiers; the escape covers quotes,
// backslashes, and control bytes, which is sufficient for that alphabet
// (and for any UTF-8 payload, which JSON passes through raw).
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\t':
			b = append(b, '\\', 't')
		case c == '\r':
			b = append(b, '\\', 'r')
		case c < 0x20:
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}
