// Package obs is the observability plane of the simulator: a sim-time
// sampled metrics registry (Registry), a structured NDJSON run-trace
// (Trace), and the Probe that carries both into a campaign or grid run.
//
// The plane is zero-cost when disabled. A nil *Probe is the default
// everywhere: construction-time wiring (project.checkConfig, tenant.bind)
// only installs hooks when the probe is non-nil, so the per-event hot path
// of an unprobed run contains no interface dispatch, no nil-checks on hot
// branches, and no extra allocations — reports stay byte-identical and
// alloc-gated. When a probe IS attached, sampling rides the kernel's
// observer tickers (sim.Engine.ObserveEvery), which are excluded from
// Pending/MaxPending/Executed accounting, and every callback is read-only,
// so even an instrumented run produces a byte-identical Report.
//
// # Reset contract
//
// Like every pooled layer in this repo, the registry is built to be rebound
// between runs without reallocating:
//
//   - Registry.Rebind() drops the gauge bindings of the previous run (their
//     closures capture dead engine/server state) and recycles the series
//     ring buffers into an internal pool; the next run's Gauge/Counter
//     calls pop storage from that pool instead of allocating. Every
//     instrument is bound before the run's first Sample; binding after it
//     panics. The export's scratch buffers stay with the registry.
//   - Trace carries only a sink pointer, per-run tags, and a scratch buffer
//     that is reused line over line; SetTags rearms it for the next run.
//   - Sink is the only shared mutable object: it serializes writes under a
//     mutex, so concurrent sweep workers may write one sink. A registry's
//     metric export reaches it in blocks of whole lines (about 64 KiB), so
//     with several workers the lines of different cells interleave per
//     block, never mid-line; a trace writes line by line.
//
// A probe must never be shared by two concurrently running campaigns — its
// registry gauges capture one run's objects. Share the Sink, not the Probe.
package obs

import (
	"fmt"
	"math"
)

// DefaultSampleEvery is the metrics sampling cadence (in sim seconds) used
// when Probe.SampleEvery is zero: half a sim day, fine enough to resolve
// the weekday/weekend capacity swing the paper's Figure 1 shows.
const DefaultSampleEvery = 43200

// MinSampleEvery is the finest sampling cadence a run accepts, in sim
// seconds. The sampler ticks until the campaign's horizon, MaxWeeks plus a
// 30-day drain (about 3.9e7 s at the default 60 weeks), so this floor
// bounds it to about 4e7 ticks; a cadence of 1e-9 s would ask for 4e16
// and never finish.
const MinSampleEvery = 1.0

// CheckSampleEvery validates a sampling cadence as Probe.SampleEvery
// takes it: 0 means DefaultSampleEvery, and any other value must be finite
// and at least MinSampleEvery.
func CheckSampleEvery(s float64) error {
	if s == 0 || (s >= MinSampleEvery && !math.IsInf(s, 1)) {
		return nil
	}
	return fmt.Errorf("sampling cadence must be 0 (the default, %v s) or a finite number of sim seconds >= %v, got %v",
		DefaultSampleEvery, MinSampleEvery, s)
}

// Probe carries the observability plane into one run. Any field may be nil:
// a probe with only Metrics samples silently, one with only Trace records
// events, and a nil *Probe (the default everywhere) disables the plane
// entirely at construction time.
type Probe struct {
	// Metrics receives sim-time samples of every bound gauge/counter.
	Metrics *Registry
	// Trace receives structured run events (phase transitions, batch
	// feeds, quorum switches, tenant drains, saboteur onsets).
	Trace *Trace
	// SampleEvery is the sim-time sampling cadence in seconds;
	// 0 means DefaultSampleEvery (see CheckSampleEvery).
	SampleEvery float64
}

// Cadence returns the effective sampling interval in sim seconds.
func (p *Probe) Cadence() float64 {
	if p == nil || p.SampleEvery <= 0 {
		return DefaultSampleEvery
	}
	return p.SampleEvery
}

// Emit records one trace event; a no-op when p or p.Trace is nil, so rare
// call sites need no guard of their own.
func (p *Probe) Emit(at float64, event string, fields ...F) {
	if p == nil || p.Trace == nil {
		return
	}
	p.Trace.Emit(at, event, fields...)
}

// fieldKind discriminates the F payload.
type fieldKind uint8

const (
	fieldStr fieldKind = iota
	fieldNum
	fieldInt
)

// F is one key/value field of a trace event or an export tag. Construct
// with Str, Num, or Int; the zero value renders as an empty string.
type F struct {
	Key  string
	str  string
	num  float64
	i    int64
	kind fieldKind
}

// Str returns a string-valued field.
func Str(key, value string) F { return F{Key: key, str: value, kind: fieldStr} }

// Num returns a float-valued field. NaN and ±Inf render as JSON null.
func Num(key string, value float64) F { return F{Key: key, num: value, kind: fieldNum} }

// Int returns an integer-valued field.
func Int(key string, value int64) F { return F{Key: key, i: value, kind: fieldInt} }
