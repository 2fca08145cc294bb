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
// An event has one form: a value in the heap, ordered by (time, seq), where
// seq is a FIFO counter that breaks ties in scheduling order, carrying a
// portable Call descriptor, the Handler that runs it and an optional
// reference. Step makes the one call h.Handle(call, ref) for every event.
// The middleware server drains its deadline wheels this way, the fault
// plane its outage spools and upload re-sends, the host kernel its
// in-window continuations and late returns, and a Ticker its ticks;
// Schedule wraps a plain closure as a CallFunc event, which stays off
// snapshots. Since the descriptor is what runs, a snapshot carries only
// descriptors (see ExportEvents) and the adopting context hands each to its
// own handler of that kind; the host kernel's calendar continuations join
// the same list in the same CallHost form, so a snapshot holds one event
// schedule. Scheduling returns no handle. The one handle is the Ticker,
// which owns its pending tick: Stop finds that tick by a linear scan and
// takes it out of the heap at once, so the pending count is exact.
// The engine's observable state is one Counters value — clock, FIFO
// sequence, executed, pending and peak pending — which reports read at a
// run's end and a snapshot carries whole.
//
// Most host continuations live in the host kernel's window calendar and
// its idle-retry ring (volunteer.ShardKernel), merged against this heap
// through Peek and the External* accounting hooks. Two kinds wait here, as
// CallHost events: a continuation due inside the kernel's armed window, and
// every late return, its assignment in the reference. On the full-scale
// phase-I replay 457,001 of the 9,243,124 executed events pass through the
// heap: 290,800 wheel drains, 165,720 host continuations (162,987 late
// returns) and 481 ticks. Of the other 8,786,123, 4,635,205 wait in
// calendar windows and 4,150,918, flat idle retries, on the ring.
// One pass of the 31-scenario catalog at 1/84 scale adds 74 spool drains
// and 1,548 upload re-sends. Late returns wait 8–18 days, so they are most
// of the heap: at most 25,108 events on the replay, 1,209 in the catalog.
// A run removes at most 3 events early, all ticker stops at its end.
//
// # Reset contract
//
// Engine.Reset rearms an engine for another run, retaining the heap array.
// Everything observable is zeroed — the schedule and every Counters field
// — so a reset engine is indistinguishable from a fresh one to the model
// running on it. A ticker created before the Reset owns no event
// afterwards: its Stop does nothing.
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

// Call describes a scheduled event in portable terms: a kind tag plus the
// small arguments its handler reads. Step hands it to the Handler the event
// was scheduled with. A run snapshot cannot carry handlers (they pin the
// source context's pointers), so it carries the descriptors, and the
// adopting context hands each to its own handler of that kind. Kind 0
// (CallFunc) marks a closure or an untagged tick; ExportEvents refuses to
// materialize a schedule containing one.
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
	// CallFunc: a closure scheduled with Schedule, or the tick of a ticker
	// created without a descriptor. Neither is portable.
	CallFunc uint8 = iota
	// CallWheelDrain: a deadline-wheel drain tick. K0 = deadline class.
	CallWheelDrain
	// CallSpoolDrain: the fault plane's outage-spool drain at a window end.
	CallSpoolDrain
	// CallUploadRetry: a fault-plane upload re-send. A0 = host index,
	// A1 = assignment arena index (the assignment itself rides in ref),
	// K0 = outcome, K1 = remaining budget, F0 = reported CPU seconds.
	CallUploadRetry
	// CallTickWeekly, CallTickDaily, CallTickChurn: campaign ticker ticks.
	CallTickWeekly
	CallTickDaily
	CallTickChurn
	// CallHost: a host continuation. K0 = continuation kind, A0 = host
	// index, A1 = a late return's assignment arena index (the assignment
	// itself rides in ref), wcg.NilIndex for any other kind.
	CallHost
)

// Handler runs scheduled events: Step hands each event's Call and
// reference to the Handler it was scheduled with.
type Handler interface {
	Handle(c Call, ref any)
}

// funcHandler adapts a closure to Handler. A func value is one pointer, so
// the conversion allocates nothing.
type funcHandler func()

func (f funcHandler) Handle(Call, any) { f() }

// event is one scheduled event, stored by value in the heap and ordered by
// (at, seq): Step hands call and ref to h.
type event struct {
	at   Time
	seq  uint64 // tie-breaker: FIFO among equal timestamps
	call Call
	h    Handler
	ref  any
}

func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// observer reports whether the event is an observer ticker's tick, which
// no counter sees.
func (a *event) observer() bool {
	t, ok := a.h.(*Ticker)
	return ok && t.observer
}

// eventHeap is a binary min-heap of events. Hand-rolled so the comparisons
// inline (container/heap pays an interface call per Less/Swap).
type eventHeap []event

// push adds ev. A full heap doubles its backing array: append grows a
// slice only about 1.25× a step past 256 elements, so a heap that fills to
// hundreds of thousands of events would allocate several times its final
// array. The capacity stays a power of two, below twice the heap's peak,
// since a pooled runner retains the array it ends with.
func (h *eventHeap) push(ev event) {
	q := *h
	if len(q) == cap(q) {
		grown := make(eventHeap, len(q), max(2*cap(q), 1))
		copy(grown, q)
		q = grown
	}
	q = q[:len(q)+1]
	*h = q
	q.up(len(q)-1, ev)
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
	q[n] = event{} // drop the handler and reference
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

// Counters is the engine's observable state as one value. Pending is
// exact: it counts the external calendar's events (see ExternalSchedule)
// and no observer tick, and MaxPending is its high-water mark over the
// engine's lifetime — the peak event-queue depth.
type Counters struct {
	Now        Time   // the clock
	Seq        uint64 // the next FIFO tie-break sequence number
	Executed   uint64 // events executed
	Pending    int    // events scheduled and not yet executed
	MaxPending int    // high-water mark of Pending
}

// Engine is a discrete-event simulator. The zero value is not valid;
// use NewEngine.
type Engine struct {
	queue eventHeap
	n     Counters
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
	e.n = Counters{}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.n.Now }

// Counters returns the engine's counters.
func (e *Engine) Counters() Counters { return e.n }

// count accounts one scheduled event as pending.
func (e *Engine) count() {
	e.n.Pending++
	if e.n.Pending > e.n.MaxPending {
		e.n.MaxPending = e.n.Pending
	}
}

// insert validates ev.at and enters ev into the schedule under the next
// FIFO sequence number, maintaining the live counters. Every scheduling
// path goes through it, so the invariants live in one place.
func (e *Engine) insert(ev event) {
	if ev.at < e.n.Now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", ev.at, e.n.Now))
	}
	if math.IsNaN(ev.at) || math.IsInf(ev.at, 0) {
		panic("sim: scheduling event at non-finite time")
	}
	ev.seq = e.n.Seq
	e.n.Seq++
	e.queue.push(ev)
	if ev.observer() {
		// Observer ticks (metrics samplers) ride the schedule but must be
		// invisible to every model-observable counter, so an instrumented
		// run reports the same Counters as a bare one.
		return
	}
	e.count()
}

// Schedule schedules fn to run at absolute time t, as a CallFunc event.
// Scheduling in the past panics: a model that does so is broken, and
// silently clamping would corrupt causality.
func (e *Engine) Schedule(t Time, fn func()) {
	e.insert(event{at: t, h: funcHandler(fn)})
}

// ScheduleAfter schedules fn to run d seconds from now.
func (e *Engine) ScheduleAfter(d float64, fn func()) {
	e.Schedule(e.n.Now+d, fn)
}

// ScheduleCall schedules the event c at absolute time t: Step hands c and
// ref to h. Unless c is a CallFunc, the event survives snapshot
// materialization (see ExportEvents).
func (e *Engine) ScheduleCall(t Time, c Call, h Handler, ref any) {
	e.insert(event{at: t, call: c, h: h, ref: ref})
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

// ExternalSchedule accounts one externally-stored event as scheduled and
// returns its FIFO tie-break sequence number: Seq, Pending and MaxPending
// move exactly as an engine-side Schedule would move them, so ties between
// the external calendar (the host kernel's window calendar) and the heap
// resolve in one global FIFO order. The event itself lives in the caller's
// calendar, not the heap.
func (e *Engine) ExternalSchedule() uint64 {
	s := e.n.Seq
	e.n.Seq++
	e.count()
	return s
}

// ExternalExecute advances the clock to t and accounts one externally-
// stored event as executed, mirroring what Step does for heap events
// (Pending down, Executed up, clock forward) so kernel counters stay
// identical whichever calendar ran the event. t must not precede the clock.
func (e *Engine) ExternalExecute(t Time) {
	if t < e.n.Now {
		panic(fmt.Sprintf("sim: external event at %v before now %v", t, e.n.Now))
	}
	e.n.Pending--
	e.n.Executed++
	e.n.Now = t
}

// AdvanceTo moves the clock forward to t if it is ahead, exactly as
// RunUntil does after draining events up to a deadline.
func (e *Engine) AdvanceTo(t Time) {
	if t > e.n.Now {
		e.n.Now = t
	}
}

// Step executes the next event. It returns false when no events remain.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue.remove(0)
	e.n.Now = ev.at
	if !ev.observer() {
		e.n.Pending--
		e.n.Executed++
	}
	ev.h.Handle(ev.call, ev.ref)
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
// Stop is called. It is the Handler of its own ticks, and each tick hands
// its descriptor on to the next. fn runs before the next tick is
// scheduled, so it may stop the ticker from within. A ticker owns at most
// one pending tick, which Stop finds by scanning the heap: a campaign stops
// its tickers at its end, when the heap holds a handful of events.
type Ticker struct {
	engine   *Engine
	interval float64
	fn       func(Time)
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

// Every creates and starts a ticker whose ticks carry the descriptor c.
func (e *Engine) Every(start Time, interval float64, c Call, fn func(Time)) *Ticker {
	t := e.newTicker(interval, fn, false)
	e.insert(event{at: start, call: c, h: t})
	return t
}

// ObserveEvery creates and starts an observer ticker: like Every, except
// its events are excluded from the engine's Counters, so attaching one (a
// metrics sampler, say) leaves every model-observable kernel counter — and
// therefore the run's Report — byte-identical. The contract is that fn is
// read-only with respect to the model: it may poll state but must not
// schedule, stop, or mutate anything the simulation reads. Its ticks carry
// no descriptor and never reach a snapshot.
//
// An observer ticker reschedules itself forever, so it keeps a bare Run()
// loop alive; drive engines carrying observers with RunUntil and Stop the
// ticker when the run's horizon is reached.
func (e *Engine) ObserveEvery(start Time, interval float64, fn func(Time)) *Ticker {
	t := e.newTicker(interval, fn, true)
	e.insert(event{at: start, h: t})
	return t
}

// pending returns the heap index of the ticker's pending tick, or -1 when
// it has none: it is firing, stopped, or the engine was Reset.
func (t *Ticker) pending() int {
	for i := range t.engine.queue {
		if tk, ok := t.engine.queue[i].h.(*Ticker); ok && tk == t {
			return i
		}
	}
	return -1
}

// Handle implements Handler: it runs one tick and schedules the next,
// with the same descriptor, unless fn stopped the ticker.
func (t *Ticker) Handle(c Call, _ any) {
	e := t.engine
	t.fn(e.n.Now)
	if !t.stopped {
		e.insert(event{at: e.n.Now + t.interval, call: c, h: t})
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
			e.n.Pending--
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
