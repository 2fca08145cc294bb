package obs

import (
	"slices"

	"repro/internal/stats"
)

// Kind tells an exporter how to read a series: a Gauge is an instantaneous
// level (queue depth, active hosts), a Counter a cumulative monotone total
// (results received, CPU seconds) whose rate is the interesting signal.
type Kind uint8

const (
	Gauge Kind = iota
	Counter
)

// String returns the NDJSON kind label.
func (k Kind) String() string {
	if k == Counter {
		return "counter"
	}
	return "gauge"
}

// metric is one bound instrument: a closure polled at sample time and the
// ring-capped series its samples land in.
type metric struct {
	kind Kind
	fn   func() float64
	s    *stats.Series
}

// Registry samples a set of bound gauges/counters on a sim-time cadence
// into preallocated stats.Series ring buffers. Memory is bounded: storage
// for every series is capped at maxSamples points, and when a run outlives
// the cap the registry halves its resolution in place (keeps every other
// sample, then records every other tick) — the classic fixed-memory
// profiler decimation, so a surprise month-long run costs no more memory
// than a week-long one and samples stay uniformly spaced.
//
// A Registry belongs to one run at a time; see the package Reset contract
// for how Rebind recycles it between pooled runs.
type Registry struct {
	maxSamples int
	metrics    []metric
	pool       []*stats.Series // retired ring buffers, reused by Gauge/Counter

	stride int // record every stride-th Sample call (doubles on decimation)
	phase  int
	n      int // samples currently held per series

	// Export scratch, reused export over export: the rendered row prefixes
	// and their offsets (row k is rows[rowOff[k]:rowOff[k+1]]), the tag
	// tail, one series head, and the block of lines handed to the sink.
	rows, tail, head, block []byte
	rowOff                  []int
}

// NewRegistry returns an empty registry whose series each hold at most
// maxSamples points (0 means 4096).
func NewRegistry(maxSamples int) *Registry {
	if maxSamples <= 0 {
		maxSamples = 4096
	}
	return &Registry{maxSamples: maxSamples, stride: 1}
}

// Gauge binds an instantaneous instrument under name. The closure is polled
// only at sample time, never on the simulation hot path.
func (r *Registry) Gauge(name string, fn func() float64) { r.bind(name, Gauge, fn) }

// Counter binds a cumulative monotone instrument under name.
func (r *Registry) Counter(name string, fn func() float64) { r.bind(name, Counter, fn) }

// bind adds an instrument. Sample appends one point to every bound series,
// so the export can share one set of sample times only if every binding
// precedes the first Sample since the last Rebind; a later binding is a bug.
func (r *Registry) bind(name string, kind Kind, fn func() float64) {
	if r.n > 0 {
		panic("obs: " + name + " bound after the registry's first Sample")
	}
	var s *stats.Series
	if n := len(r.pool); n > 0 {
		s = r.pool[n-1]
		r.pool[n-1] = nil
		r.pool = r.pool[:n-1]
		s.Name = name
	} else {
		s = stats.NewSeriesCap(name, r.maxSamples)
	}
	r.metrics = append(r.metrics, metric{kind: kind, fn: fn, s: s})
}

// Rebind rearms the registry for the next pooled run: every binding is
// dropped (its closure captures the previous run's engine and servers) and
// its ring buffer recycled, so the next run's Gauge/Counter calls allocate
// nothing. Recorded samples are discarded — export before rebinding.
func (r *Registry) Rebind() {
	for i := range r.metrics {
		s := r.metrics[i].s
		s.Reset()
		r.pool = append(r.pool, s)
		r.metrics[i] = metric{}
	}
	r.metrics = r.metrics[:0]
	r.stride, r.phase, r.n = 1, 0, 0
}

// Sample polls every bound instrument at sim time t. Called from a kernel
// observer ticker; read-only with respect to the model.
func (r *Registry) Sample(t float64) {
	r.phase++
	if r.phase < r.stride {
		return
	}
	r.phase = 0
	if r.n >= r.maxSamples {
		r.decimate()
	}
	for i := range r.metrics {
		m := &r.metrics[i]
		m.s.Add(t, m.fn())
	}
	r.n++
}

// decimate halves resolution in place: keep every other stored sample and
// record every other future tick.
func (r *Registry) decimate() {
	for i := range r.metrics {
		s := r.metrics[i].s
		j := 0
		for k := 0; k < len(s.X); k += 2 {
			s.X[j], s.Y[j] = s.X[k], s.Y[k]
			j++
		}
		s.X, s.Y = s.X[:j], s.Y[:j]
	}
	r.n = (r.n + 1) / 2
	r.stride *= 2
}

// Samples returns how many points each series currently holds.
func (r *Registry) Samples() int { return r.n }

// NumSeries returns how many instruments are bound.
func (r *Registry) NumSeries() int { return len(r.metrics) }

// Each visits every bound series in binding order.
func (r *Registry) Each(fn func(kind Kind, s *stats.Series)) {
	for i := range r.metrics {
		fn(r.metrics[i].kind, r.metrics[i].s)
	}
}

// exportBlock is how many bytes of whole lines WriteNDJSON gathers before
// it hands them to its sink in one write: a block ends with the first line
// that reaches the bound.
const exportBlock = 64 << 10

// WriteNDJSON exports every sample of every series as one NDJSON line
//
//	{"t":<sim s>,"week":<t/week>,"series":"<name>","kind":"gauge","v":<y>,<tags...>}
//
// onto the sink, series by series. Every series shares the sample times
// (see bind), so each row's t/week prefix, each series' name/kind head and
// the tag tail are rendered once and a line costs one float rendering. The
// lines reach the sink in blocks of whole lines, one lock per block.
func (r *Registry) WriteNDJSON(sink *Sink, tags ...F) {
	if len(r.metrics) == 0 || r.n == 0 {
		return
	}
	rows, off := r.rows[:0], append(slices.Grow(r.rowOff[:0], r.n+1), 0)
	for _, t := range r.metrics[0].s.X {
		rows = append(rows, `{"t":`...)
		rows = appendJSONFloat(rows, t)
		rows = append(rows, `,"week":`...)
		rows = appendJSONFloat(rows, t/week)
		off = append(off, len(rows))
	}
	tail := r.tail[:0]
	for j := range tags {
		tail = appendField(tail, &tags[j])
	}
	tail = append(tail, '}', '\n')
	if r.block == nil {
		// Room for a full block plus the line that crosses the bound.
		r.block = make([]byte, 0, exportBlock+4<<10)
	}
	b, lines := r.block[:0], 0
	for i := range r.metrics {
		m := &r.metrics[i]
		head := append(r.head[:0], `,"series":`...)
		head = appendJSONString(head, m.s.Name)
		head = append(head, `,"kind":"`...)
		head = append(head, m.kind.String()...)
		head = append(head, `","v":`...)
		r.head = head
		for k, v := range m.s.Y {
			if len(b) >= exportBlock {
				sink.writeBlock(b, lines)
				b, lines = b[:0], 0
			}
			b = append(b, rows[off[k]:off[k+1]]...)
			b = append(b, head...)
			b = appendJSONFloat(b, v)
			b = append(b, tail...)
			lines++
		}
	}
	sink.writeBlock(b, lines)
	r.rows, r.rowOff, r.tail, r.block = rows, off, tail, b
}
