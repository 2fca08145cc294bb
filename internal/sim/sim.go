// Package sim implements the discrete-event simulation kernel on which the
// volunteer-grid and dedicated-grid models run.
//
// The kernel is a classic event-list simulator: a binary heap of timestamped
// events, a virtual clock that jumps from event to event, and helpers for
// periodic processes (used by the weekly VFTP samplers and the availability
// models). Time is a float64 number of seconds since the simulation epoch;
// the HCMD campaign spans ~26 weeks ≈ 1.6e7 s, far below float64 integer
// precision limits.
//
// Two design choices keep the hot path cheap on a deep event list:
//
//   - Cancellation is lazy: Cancel marks the event and returns in O(1);
//     the tombstone is discarded when it reaches the top of the heap (or by
//     an amortized sweep if tombstones ever dominate the heap). Pending()
//     stays exact through a live-event counter.
//   - Events scheduled through Schedule/ScheduleAfter (no cancellation
//     handle) are recycled through a free list once they fire, so steady-
//     state simulation allocates no per-event memory. At/After still return
//     a handle and therefore allocate; handles are never recycled, so a
//     stale handle can never cancel an unrelated reused event.
//
// Campaigns no longer give the heap that depth: host continuations live
// in the host kernel's shard calendars (volunteer.ShardKernel), merged
// against this heap through TakeSeq and the External* accounting hooks.
// On the full-scale phase-I replay only 291,281 of the 9,243,124 executed
// events pass through the heap, and it never holds more than 3 at once.
// Across the 31-scenario catalog at 1/84 scale it never holds more than 8,
// with at most 3 cancellations per run (the ticker stops). The deep-heap
// paths (4-ary sift, inline keys, lazy cancellation, the tombstone sweep)
// now serve the benchmark's hold driver and the engine's own tests.
//
// # Reset contract
//
// Engine.Reset rearms an engine for another run while retaining the
// backing storage a run is expensive to rebuild: the heap array, the
// free list's backing array, and the event arena's chunks. Everything
// observable is zeroed — clock, schedule, executed/pending counters, the
// FIFO tie-break sequence — so a reset engine is indistinguishable from a
// fresh one to the model running on it. Event handles returned by
// At/After before the Reset are invalidated: their structs are zeroed and
// re-carved, and passing one to Cancel afterwards corrupts an unrelated
// event. Callers must drop every handle before resetting.
package sim

import (
	"fmt"
	"math"

	"repro/internal/slab"
)

// Time is a simulation timestamp in seconds since the simulation epoch.
type Time = float64

// Common durations, in seconds.
const (
	Second = 1.0
	Minute = 60.0
	Hour   = 3600.0
	Day    = 24 * Hour
	Week   = 7 * Day
	Year   = 365.25 * Day
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

// Event is a scheduled callback. Cancel it via its handle.
type Event struct {
	at       Time
	fn       func()
	call     Call
	inHeap   bool
	canceled bool
	recycle  bool // no handle outstanding; safe to reuse after it pops
	observer bool // excluded from Pending/MaxPending/Executed accounting
}

// Time returns the timestamp the event is scheduled for.
func (e *Event) Time() Time { return e.at }

// Canceled reports whether the event has been cancelled.
func (e *Event) Canceled() bool { return e.canceled }

// entry is one heap slot. The ordering key (timestamp + FIFO sequence)
// lives inline in the slice, so sift comparisons touch contiguous memory
// instead of dereferencing an *Event per comparison; those misses dominate
// on a deep heap. A campaign's heap holds a handful of events (see the
// package doc), so the layout pays off only for deep-heap users such as
// the benchmark's hold driver.
type entry struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among equal timestamps
	ev  *Event
}

func entryLess(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// The heap is 4-ary: half the levels of a binary heap, and the four
// children of a node share cache lines. Hand-rolled so the comparisons
// inline (container/heap pays an interface call per Less/Swap).
const heapArity = 4

type eventHeap []entry

func (h *eventHeap) push(en entry) {
	q := append(*h, en)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !entryLess(q[i], q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

// siftDown moves item from the hole at i toward the leaves of h[:n] until
// the heap property holds, writing it into its final slot.
func siftDown(h []entry, i, n int, item entry) {
	for {
		c := heapArity*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + heapArity
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entryLess(h[j], h[m]) {
				m = j
			}
		}
		if !entryLess(h[m], item) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = item
}

func (h *eventHeap) pop() entry {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = entry{}
	q = q[:n]
	if n > 0 {
		siftDown(q, 0, n, last)
	}
	*h = q
	return top
}

// init re-establishes the heap property over arbitrary contents.
func (h eventHeap) init() {
	n := len(h)
	if n < 2 {
		return
	}
	for i := (n - 2) / heapArity; i >= 0; i-- {
		siftDown(h, i, n, h[i])
	}
}

// Engine is a discrete-event simulator. The zero value is not valid;
// use NewEngine.
type Engine struct {
	now    Time
	queue  eventHeap
	seq    uint64
	nEvent uint64 // events executed

	live       int // scheduled, not cancelled: the exact Pending() count
	tombstones int // cancelled events still sitting in the heap
	maxLive    int // high-water mark of live

	free []*Event          // recycled no-handle events
	slab slab.Arena[Event] // bump allocator backing new events
}

// NewEngine returns an engine with the clock at 0 and an empty event list.
func NewEngine() *Engine {
	return &Engine{}
}

// Reset rearms the engine for another run: clock back to 0, schedule
// empty, all counters zeroed. The heap array, free-list array and event
// arena are retained, so a reset engine schedules without allocating.
// See the package-level Reset contract: all outstanding event handles are
// invalidated.
func (e *Engine) Reset() {
	clear(e.queue)
	e.queue = e.queue[:0]
	clear(e.free)
	e.free = e.free[:0]
	e.slab.Reset()
	e.now = 0
	e.seq, e.nEvent = 0, 0
	e.live, e.tombstones, e.maxLive = 0, 0, 0
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.nEvent }

// Pending returns the exact number of live scheduled events. Cancelled
// events are never counted: Cancel decrements the live counter the moment
// it is called, even though the tombstone leaves the heap lazily.
func (e *Engine) Pending() int { return e.live }

// MaxPending returns the high-water mark of Pending() over the engine's
// lifetime — the peak event-queue depth, reported by the campaign bench.
func (e *Engine) MaxPending() int { return e.maxLive }

// alloc returns an event struct: recycled if one is free, freshly carved
// from the bump slab otherwise. Slab allocation batches the garbage
// collector's work; recycled events make the steady state allocation-free.
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return e.slab.Alloc()
}

// release returns a popped event to the free list if it is recyclable.
// Events created by At/After have a caller-held handle and are never
// reused; recyclable events by construction have no handle outstanding.
func (e *Engine) release(ev *Event) {
	if !ev.recycle {
		return
	}
	ev.fn = nil
	ev.canceled = false
	e.free = append(e.free, ev)
}

// insert validates t and enters ev into the schedule, maintaining the
// FIFO sequence and the live counters. Shared by every scheduling path so
// the invariants live in one place.
func (e *Engine) insert(ev *Event, t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic("sim: scheduling event at non-finite time")
	}
	ev.at = t
	ev.inHeap = true
	e.queue.push(entry{at: t, seq: e.seq, ev: ev})
	e.seq++
	if ev.observer {
		// Observer events (metrics samplers) ride the schedule but must be
		// invisible to every model-observable counter, so an instrumented
		// run reports the same Pending/MaxPending/Executed as a bare one.
		return
	}
	e.live++
	if e.live > e.maxLive {
		e.maxLive = e.live
	}
}

// push schedules fn on a fresh (or recycled) event.
func (e *Engine) push(t Time, fn func(), recycle bool) *Event {
	ev := e.alloc()
	*ev = Event{fn: fn, recycle: recycle}
	e.insert(ev, t)
	return ev
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// a model that does so is broken, and silently clamping would corrupt
// causality. Returns a handle for cancellation.
func (e *Engine) At(t Time, fn func()) *Event {
	return e.push(t, fn, false)
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d float64, fn func()) *Event {
	return e.At(e.now+d, fn)
}

// Schedule schedules fn at absolute time t with no cancellation handle.
// The event struct is recycled after it fires, so hot loops that never
// cancel (host compute completions, the deadline wheel) schedule without
// allocating.
func (e *Engine) Schedule(t Time, fn func()) {
	e.push(t, fn, true)
}

// ScheduleAfter schedules fn to run d seconds from now, with no handle.
func (e *Engine) ScheduleAfter(d float64, fn func()) {
	e.Schedule(e.now+d, fn)
}

// ScheduleCall is Schedule plus a portable Call descriptor, so the event
// survives snapshot materialization (see ExportEvents). Costs the same as
// Schedule apart from a few extra stores.
func (e *Engine) ScheduleCall(t Time, fn func(), c Call) {
	ev := e.alloc()
	*ev = Event{fn: fn, recycle: true, call: c}
	e.insert(ev, t)
}

// ScheduleAfterCall is ScheduleAfter plus a portable Call descriptor.
func (e *Engine) ScheduleAfterCall(d float64, fn func(), c Call) {
	e.ScheduleCall(e.now+d, fn, c)
}

// reschedule re-arms a popped handle event at a new time, reusing its
// struct. Only the Ticker uses it: the caller must own the handle and the
// event must not be in the heap. fn is re-attached because Step detaches
// callbacks from popped events (so fired closures don't outlive them).
func (e *Engine) reschedule(ev *Event, t Time, fn func()) {
	ev.fn = fn
	ev.canceled = false
	e.insert(ev, t)
}

// Cancel removes the event from the schedule in O(1): the event is marked
// and skipped when it surfaces, rather than removed from the middle of the
// heap. Cancelling an already-fired or already-cancelled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.canceled {
		return
	}
	ev.canceled = true
	// A cancelled event's callback never runs: free it now rather than
	// when the tombstone surfaces, so the closure's captures don't stay
	// reachable until the event's (possibly far-future) timestamp.
	ev.fn = nil
	if ev.inHeap {
		if !ev.observer {
			e.live--
		}
		e.tombstones++
		e.maybeSweep()
	}
}

// maybeSweep compacts the heap when tombstones dominate it, bounding the
// memory a cancel-heavy workload can pin. Amortized O(1) per cancel.
func (e *Engine) maybeSweep() {
	if e.tombstones < 1024 || e.tombstones*2 < len(e.queue) {
		return
	}
	kept := e.queue[:0]
	for _, en := range e.queue {
		if en.ev.canceled {
			en.ev.inHeap = false
			en.ev.fn = nil
			e.release(en.ev)
			continue
		}
		kept = append(kept, en)
	}
	for i := len(kept); i < len(e.queue); i++ {
		e.queue[i] = entry{}
	}
	e.queue = kept
	e.queue.init()
	e.tombstones = 0
}

// discardTombstone retires a popped cancelled event.
func (e *Engine) discardTombstone(ev *Event) {
	ev.inHeap = false
	ev.fn = nil
	e.tombstones--
	e.release(ev)
}

// Peek returns the (time, seq) ordering key of the next live event without
// executing it, discarding any tombstones that surface on the way. ok is
// false when no live events remain. The sharded host kernel merges its own
// event calendars with the engine's schedule through this key: the global
// execution order is exactly "ascending (time, seq)" whichever side an
// event lives on.
func (e *Engine) Peek() (t Time, seq uint64, ok bool) {
	for len(e.queue) > 0 {
		next := e.queue[0]
		if next.ev.canceled {
			e.queue.pop()
			e.discardTombstone(next.ev)
			continue
		}
		return next.at, next.seq, true
	}
	return 0, 0, false
}

// TakeSeq hands out the next FIFO tie-break sequence number, exactly as
// scheduling an event here would. An external event calendar (the host
// kernel's shard calendars) draws its sequence numbers from the engine's
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
	for len(e.queue) > 0 {
		en := e.queue.pop()
		ev := en.ev
		if ev.canceled {
			e.discardTombstone(ev)
			continue
		}
		ev.inHeap = false
		// Detach the callback: a popped event may sit in a slab chunk
		// pinned by a long-lived neighbour's handle, and its closure must
		// not stay reachable for the rest of the run.
		fn := ev.fn
		ev.fn = nil
		if !ev.observer {
			e.live--
			e.nEvent++
		}
		e.now = en.at
		e.release(ev)
		fn()
		return true
	}
	return false
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
	for len(e.queue) > 0 {
		next := e.queue[0]
		if next.ev.canceled {
			e.queue.pop()
			e.discardTombstone(next.ev)
			continue
		}
		if next.at >= deadline {
			break
		}
		e.Step()
	}
}

// Ticker invokes fn(now) every interval seconds starting at start, until
// Stop is called or the engine runs out of events. fn runs before the next
// tick is scheduled, so it may stop the ticker from within.
type Ticker struct {
	engine   *Engine
	interval float64
	fn       func(Time)
	tickFn   func() // bound once; re-attached on every reschedule
	ev       *Event
	stopped  bool
}

// Every creates and starts a ticker. interval must be positive.
func (e *Engine) Every(start Time, interval float64, fn func(Time)) *Ticker {
	if interval <= 0 {
		panic("sim: ticker interval must be positive")
	}
	t := &Ticker{engine: e, interval: interval, fn: fn}
	t.tickFn = t.tick
	t.ev = e.At(start, t.tickFn)
	return t
}

// ObserveEvery creates and starts an observer ticker: like Every, except
// its events are excluded from the Pending/MaxPending/Executed accounting,
// so attaching one (a metrics sampler, say) leaves every model-observable
// kernel counter — and therefore the run's Report — byte-identical. The
// contract is that fn is read-only with respect to the model: it may poll
// state but must not schedule, cancel, or mutate anything the simulation
// reads.
//
// An observer ticker reschedules itself forever, so it keeps a bare Run()
// loop alive; drive engines carrying observers with RunUntil and Stop the
// ticker when the run's horizon is reached.
func (e *Engine) ObserveEvery(start Time, interval float64, fn func(Time)) *Ticker {
	if interval <= 0 {
		panic("sim: ticker interval must be positive")
	}
	t := &Ticker{engine: e, interval: interval, fn: fn}
	t.tickFn = t.tick
	ev := e.alloc()
	*ev = Event{fn: t.tickFn, observer: true}
	e.insert(ev, start)
	t.ev = ev
	return t
}

// Tag attaches a portable Call descriptor to the ticker's pending event.
// A ticker reuses one event struct for its whole life and reschedule
// preserves every field except the callback, so tagging once at creation
// keeps the tick exportable forever.
func (t *Ticker) Tag(c Call) { t.ev.call = c }

// DormantTicker builds a ticker that is bound to the engine but has no
// pending event: AttachEvent arms it with an adopted heap entry. Snapshot
// adoption uses the pair to revive a mid-run periodic process without
// scheduling a fresh first tick (which would double-fire it).
func (e *Engine) DormantTicker(interval float64, fn func(Time)) *Ticker {
	if interval <= 0 {
		panic("sim: ticker interval must be positive")
	}
	t := &Ticker{engine: e, interval: interval, fn: fn}
	t.tickFn = t.tick
	return t
}

// TickFn returns the ticker's bound per-tick callback, the func() an
// adopted heap event must invoke so the ticker reschedules itself exactly
// as a natively started one would.
func (t *Ticker) TickFn() func() { return t.tickFn }

// AttachEvent hands the ticker ownership of an adopted event handle.
func (t *Ticker) AttachEvent(ev *Event) { t.ev = ev }

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	t.fn(t.engine.Now())
	if t.stopped {
		return
	}
	// Reuse the popped event struct: the ticker owns the handle, so
	// re-arming it is safe and the ticker never allocates per tick.
	t.engine.reschedule(t.ev, t.engine.Now()+t.interval, t.tickFn)
}

// Stop halts the ticker. Safe to call multiple times and from within fn.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.engine.Cancel(t.ev)
}

// Calendar converts simulation time into calendar-like coordinates used by
// the availability models: day of week, hour of day, and week index.
// The simulation epoch is taken to be a Monday at midnight.
type Calendar struct{}

// HourOfDay returns the hour in [0, 24).
func (Calendar) HourOfDay(t Time) float64 {
	d := math.Mod(t, Day)
	if d < 0 {
		d += Day
	}
	return d / Hour
}

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

// DayIndex returns the zero-based day number of t.
func (Calendar) DayIndex(t Time) int {
	if t < 0 {
		return int(math.Floor(t / Day))
	}
	return int(t / Day)
}
