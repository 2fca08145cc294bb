// Package sim implements the discrete-event simulation kernel on which the
// volunteer-grid and dedicated-grid models run.
//
// The kernel is a classic event-list simulator: a binary min-heap of
// timestamped events, a virtual clock that jumps from event to event, and
// tickers for periodic processes (the weekly and daily campaign loops, the
// churn sampler, the metrics sampler). Time is a float64 number of seconds
// since the simulation epoch; the HCMD campaign spans ~26 weeks ≈ 1.6e7 s,
// far below float64 integer precision limits.
//
// Every scheduled event is a value in the heap, ordered by (time, seq),
// where seq is a FIFO counter that breaks ties in scheduling order. An
// event carries its callback and a portable Call descriptor (see
// ExportEvents); scheduling returns no handle. The one handle is the
// Ticker, which owns its pending tick: Stop finds that tick by a linear
// scan and takes it out of the heap at once, so Pending() is exact.
//
// The heap is shallow. Host continuations live in the host kernel's window
// calendar (volunteer.ShardKernel), merged against this heap through
// Peek, TakeSeq and the External* accounting hooks. What remains here are
// deadline-wheel and spool drains, fault-plane upload retries and the
// tickers: on the full-scale phase-I replay only 291,281 of the 9,243,124
// executed events pass through the heap, and it never holds more than 3 at
// once; across the 31-scenario catalog at 1/84 scale it never holds more
// than 8, and a run removes at most 3 events early, all of them ticker
// stops. Standalone uses (the middleware's own tests, the benchmark's hold
// model) still keep tens of thousands of events pending, which is why the
// list stays a heap.
//
// # Reset contract
//
// Engine.Reset rearms an engine for another run, retaining the heap array.
// Everything observable is zeroed — clock, schedule, executed/pending
// counters, the FIFO tie-break sequence — so a reset engine is
// indistinguishable from a fresh one to the model running on it. A ticker
// created before the Reset owns no event afterwards: its Stop does nothing.
package sim

import (
	"fmt"
	"math"
)

// Time is a simulation timestamp in seconds since the simulation epoch.
type Time = float64

// Common durations, in seconds.
const (
	Minute = 60.0
	Hour   = 3600.0
	Day    = 24 * Hour
	Week   = 7 * Day
)

// Call describes what a scheduled event's closure does, in portable terms:
// a kind tag plus the small arguments the closure captured. A run snapshot
// cannot carry the closures themselves (they pin the source context's
// pointers), so the scheduling sites tag their events with a Call and the
// adopting context rebuilds an equivalent closure from the descriptor. Kind 0 (CallNone) marks an untagged event;
// ExportEvents refuses to materialize a schedule containing one.
//
// Field meaning is per-kind and documented at the kind constants; the
// struct is sized so tagging stays a handful of stores on the hot path.
type Call struct {
	Kind   uint8
	K0, K1 uint8
	A0, A1 int32
	F0     float64
}

// Event call kinds. The argument conventions are owned by the packages
// that schedule the events; they are centralized here only so the kind
// space has a single allocator.
const (
	// CallNone marks an event whose scheduling site has not been tagged.
	CallNone uint8 = iota
	// CallWheelDrain: a deadline-wheel drain tick. K0 = deadline class.
	CallWheelDrain
	// CallSpoolDrain: the outage spool drain at a window end.
	CallSpoolDrain
	// CallUploadRetry: a fault-plane upload retry. A0 = host index,
	// A1 = assignment arena index, K0 = outcome, K1 = remaining budget,
	// F0 = reported CPU seconds.
	CallUploadRetry
	// CallTickWeekly, CallTickDaily, CallTickChurn: campaign ticker ticks.
	CallTickWeekly
	CallTickDaily
	CallTickChurn
)

// event is one scheduled callback, stored by value in the heap and ordered
// by (at, seq). A ticker's pending tick carries the ticker in tick and no
// fn; every other event carries fn and no tick.
type event struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among equal timestamps
	fn   func()
	call Call
	tick *Ticker
}

func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// observer reports whether the event is an observer ticker's tick, which
// no counter sees.
func (a *event) observer() bool { return a.tick != nil && a.tick.observer }

// eventHeap is a binary min-heap of events. Hand-rolled so the comparisons
// inline (container/heap pays an interface call per Less/Swap).
type eventHeap []event

func (h *eventHeap) push(ev event) {
	*h = append(*h, event{})
	h.up(len(*h)-1, ev)
}

// up moves ev from the hole at i toward the root until its parent precedes
// it, writing it into its final slot.
func (h eventHeap) up(i int, ev event) {
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// down moves ev from the hole at i toward the leaves until it precedes its
// children, writing it into its final slot.
func (h eventHeap) down(i int, ev event) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&ev) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = ev
}

// remove takes the event at index i out of the heap and returns it.
func (h *eventHeap) remove(i int) event {
	q := *h
	ev := q[i]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the closure and ticker references
	q = q[:n]
	*h = q
	if i < n {
		if i > 0 && last.before(&q[(i-1)/2]) {
			q.up(i, last)
		} else {
			q.down(i, last)
		}
	}
	return ev
}

// Engine is a discrete-event simulator. The zero value is not valid;
// use NewEngine.
type Engine struct {
	now     Time
	queue   eventHeap
	seq     uint64
	nEvent  uint64 // events executed
	live    int    // the exact Pending() count
	maxLive int    // high-water mark of live
}

// NewEngine returns an engine with the clock at 0 and an empty event list.
func NewEngine() *Engine {
	return &Engine{}
}

// Reset rearms the engine for another run: clock back to 0, schedule
// empty, all counters zeroed. The heap array is retained, so a reset
// engine schedules without allocating.
func (e *Engine) Reset() {
	clear(e.queue)
	e.queue = e.queue[:0]
	e.now = 0
	e.seq, e.nEvent = 0, 0
	e.live, e.maxLive = 0, 0
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.nEvent }

// Pending returns the exact number of scheduled events, including the
// external calendar's (see ExternalSchedule) and excluding observer ticks.
func (e *Engine) Pending() int { return e.live }

// MaxPending returns the high-water mark of Pending() over the engine's
// lifetime — the peak event-queue depth, reported by the campaign bench.
func (e *Engine) MaxPending() int { return e.maxLive }

// insert validates ev.at and enters ev into the schedule under the next
// FIFO sequence number, maintaining the live counters. Every scheduling
// path goes through it, so the invariants live in one place.
func (e *Engine) insert(ev event) {
	if ev.at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", ev.at, e.now))
	}
	if math.IsNaN(ev.at) || math.IsInf(ev.at, 0) {
		panic("sim: scheduling event at non-finite time")
	}
	ev.seq = e.seq
	e.seq++
	e.queue.push(ev)
	if ev.observer() {
		// Observer ticks (metrics samplers) ride the schedule but must be
		// invisible to every model-observable counter, so an instrumented
		// run reports the same Pending/MaxPending/Executed as a bare one.
		return
	}
	e.live++
	if e.live > e.maxLive {
		e.maxLive = e.live
	}
}

// Schedule schedules fn to run at absolute time t. Scheduling in the past
// panics: a model that does so is broken, and silently clamping would
// corrupt causality.
func (e *Engine) Schedule(t Time, fn func()) {
	e.insert(event{at: t, fn: fn})
}

// ScheduleAfter schedules fn to run d seconds from now.
func (e *Engine) ScheduleAfter(d float64, fn func()) {
	e.Schedule(e.now+d, fn)
}

// ScheduleCall is Schedule plus a portable Call descriptor, so the event
// survives snapshot materialization (see ExportEvents).
func (e *Engine) ScheduleCall(t Time, fn func(), c Call) {
	e.insert(event{at: t, fn: fn, call: c})
}

// ScheduleAfterCall is ScheduleAfter plus a portable Call descriptor.
func (e *Engine) ScheduleAfterCall(d float64, fn func(), c Call) {
	e.ScheduleCall(e.now+d, fn, c)
}

// Peek returns the (time, seq) ordering key of the next event without
// executing it; ok is false when the schedule is empty. The host kernel
// merges its own event calendars with the engine's schedule through this
// key: the global execution order is exactly "ascending (time, seq)"
// whichever side an event lives on.
func (e *Engine) Peek() (t Time, seq uint64, ok bool) {
	if len(e.queue) == 0 {
		return 0, 0, false
	}
	return e.queue[0].at, e.queue[0].seq, true
}

// TakeSeq hands out the next FIFO tie-break sequence number, exactly as
// scheduling an event here would. An external event calendar (the host
// kernel's window calendar) draws its sequence numbers from the engine's
// counter at the moment it schedules, so ties between external and engine
// events resolve in one global FIFO order.
func (e *Engine) TakeSeq() uint64 {
	s := e.seq
	e.seq++
	return s
}

// ExternalSchedule accounts one externally-stored event as scheduled:
// Pending/MaxPending move exactly as an engine-side Schedule would move
// them. The event itself lives in the caller's calendar, not the heap.
func (e *Engine) ExternalSchedule() {
	e.live++
	if e.live > e.maxLive {
		e.maxLive = e.live
	}
}

// ExternalExecute advances the clock to t and accounts one externally-
// stored event as executed, mirroring what Step does for heap events
// (live--, executed++, clock forward) so kernel counters stay identical
// whichever calendar ran the event. t must not precede the clock.
func (e *Engine) ExternalExecute(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: external event at %v before now %v", t, e.now))
	}
	e.live--
	e.nEvent++
	e.now = t
}

// AdvanceTo moves the clock forward to t if it is ahead, exactly as
// RunUntil does after draining events up to a deadline.
func (e *Engine) AdvanceTo(t Time) {
	if t > e.now {
		e.now = t
	}
}

// Step executes the next event. It returns false when no events remain.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue.remove(0)
	e.now = ev.at
	if !ev.observer() {
		e.live--
		e.nEvent++
	}
	if ev.tick != nil {
		ev.tick.fire()
	} else {
		ev.fn()
	}
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline (if it is ahead of the last event). No float lies
// between deadline and its successor, so this is RunBefore the successor.
func (e *Engine) RunUntil(deadline Time) {
	e.RunBefore(math.Nextafter(deadline, math.Inf(1)))
	e.AdvanceTo(deadline)
}

// RunBefore executes events with timestamps strictly before deadline and
// leaves the clock at the last executed event — it does not advance to
// the deadline and does not run events at it. The snapshot/fork path uses
// it to stop a shared prefix exactly at a divergence time T: events AT T
// (the weekly tick that applies a phase change, say) belong to the
// suffix, where they run under the forked cell's config.
func (e *Engine) RunBefore(deadline Time) {
	for len(e.queue) > 0 && e.queue[0].at < deadline {
		e.Step()
	}
}

// Ticker invokes fn(now) every interval seconds starting at start, until
// Stop is called. fn runs before the next tick is scheduled, so it may
// stop the ticker from within. A ticker owns
// at most one pending tick, which it finds by scanning the heap: campaign
// heaps hold a handful of events (see the package doc).
type Ticker struct {
	engine   *Engine
	interval float64
	fn       func(Time)
	call     Call // the descriptor every tick carries (see Tag)
	observer bool
	stopped  bool
}

// newTicker builds an unarmed ticker, rejecting an interval that is not
// positive and finite: a zero or NaN interval would never advance the
// clock, an infinite one would schedule its second tick at +Inf.
func (e *Engine) newTicker(interval float64, fn func(Time), observer bool) *Ticker {
	if !(interval > 0) || math.IsInf(interval, 1) {
		panic(fmt.Sprintf("sim: ticker interval must be positive and finite, got %v", interval))
	}
	return &Ticker{engine: e, interval: interval, fn: fn, observer: observer}
}

// Every creates and starts a ticker.
func (e *Engine) Every(start Time, interval float64, fn func(Time)) *Ticker {
	t := e.newTicker(interval, fn, false)
	e.insert(event{at: start, tick: t})
	return t
}

// ObserveEvery creates and starts an observer ticker: like Every, except
// its events are excluded from the Pending/MaxPending/Executed accounting,
// so attaching one (a metrics sampler, say) leaves every model-observable
// kernel counter — and therefore the run's Report — byte-identical. The
// contract is that fn is read-only with respect to the model: it may poll
// state but must not schedule, stop, or mutate anything the simulation
// reads.
//
// An observer ticker reschedules itself forever, so it keeps a bare Run()
// loop alive; drive engines carrying observers with RunUntil and Stop the
// ticker when the run's horizon is reached.
func (e *Engine) ObserveEvery(start Time, interval float64, fn func(Time)) *Ticker {
	t := e.newTicker(interval, fn, true)
	e.insert(event{at: start, tick: t})
	return t
}

// DormantTicker builds a ticker that is bound to the engine but has no
// pending tick: Adopt arms it. Snapshot adoption uses the pair to revive a
// mid-run periodic process without scheduling a fresh first tick (which
// would double-fire it).
func (e *Engine) DormantTicker(interval float64, fn func(Time)) *Ticker {
	return e.newTicker(interval, fn, false)
}

// Adopt arms a dormant ticker with an adopted pending tick, keeping its
// original ordering key. Like AdoptEvent it leaves seq and the live
// counters to AdoptState.
func (t *Ticker) Adopt(at Time, seq uint64, c Call) {
	t.call = c
	t.engine.queue.push(event{at: at, seq: seq, call: c, tick: t})
}

// Tag attaches a portable Call descriptor to the ticker's pending tick and
// every later one, so the ticks stay exportable for the ticker's life.
func (t *Ticker) Tag(c Call) {
	t.call = c
	if i := t.pending(); i >= 0 {
		t.engine.queue[i].call = c
	}
}

// pending returns the heap index of the ticker's pending tick, or -1 when
// it has none: it is firing, stopped, dormant, or the engine was Reset.
func (t *Ticker) pending() int {
	for i := range t.engine.queue {
		if t.engine.queue[i].tick == t {
			return i
		}
	}
	return -1
}

// fire runs one tick and schedules the next unless fn stopped the ticker.
func (t *Ticker) fire() {
	e := t.engine
	t.fn(e.now)
	if !t.stopped {
		e.insert(event{at: e.now + t.interval, call: t.call, tick: t})
	}
}

// Stop halts the ticker, taking its pending tick out of the schedule.
// Safe to call multiple times and from within fn.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	if i := t.pending(); i >= 0 {
		e := t.engine
		e.queue.remove(i)
		if !t.observer {
			e.live--
		}
	}
}

// Calendar converts simulation time into calendar-like coordinates used by
// the availability models: day of week and week index.
// The simulation epoch is taken to be a Monday at midnight.
type Calendar struct{}

// DayOfWeek returns the day in [0, 7), 0 = Monday.
func (Calendar) DayOfWeek(t Time) int {
	w := math.Mod(t, Week)
	if w < 0 {
		w += Week
	}
	return int(w / Day)
}

// IsWeekend reports whether t falls on Saturday or Sunday.
func (c Calendar) IsWeekend(t Time) bool {
	d := c.DayOfWeek(t)
	return d >= 5
}

// WeekIndex returns the zero-based week number of t.
func (Calendar) WeekIndex(t Time) int {
	if t < 0 {
		return int(math.Floor(t / Week))
	}
	return int(t / Week)
}
