package sim

import "fmt"

// This file is the engine half of the portable-snapshot contract (see
// internal/snapshot): exporting a schedule as passive descriptors and
// rebuilding it inside a different engine. An event's handler and
// reference belong to the engine's model, so events travel as (time, seq,
// Call) triples and the adopting side hands each descriptor to its own
// handler of that kind; the engine's Counters travel whole.

// PortableEvent is one scheduled event in portable form: its ordering key
// plus its Call descriptor. No pointers — safe to hand to another
// goroutine/engine. The host kernel exports its calendar's continuations
// in the same form, as CallHost events.
type PortableEvent struct {
	At   Time
	Seq  uint64
	Call Call
}

// ExportEvents returns every event in the schedule as portable
// descriptors. It fails if any event is a CallFunc (a closure, or an
// untagged tick) or is an observer tick: neither can be revived on an
// adopting engine. Every scheduling site a snapshot can meet is tagged, so
// the error marks a programming mistake, not a runtime state. Order
// follows the heap array; pushing the events in that order into an empty
// heap (AdoptEvent, AdoptTicker) rebuilds the same array. The list is
// sized for every pending event, the external calendar's included, so the
// host kernel appends its continuations without growing it.
func (e *Engine) ExportEvents() ([]PortableEvent, error) {
	out := make([]PortableEvent, 0, e.n.Pending)
	for i := range e.queue {
		ev := &e.queue[i]
		if ev.observer() {
			return nil, fmt.Errorf("sim: observer event at %v is not portable", ev.at)
		}
		if ev.call.Kind == CallFunc {
			return nil, fmt.Errorf("sim: closure or untagged event at %v (seq %d) is not portable", ev.at, ev.seq)
		}
		out = append(out, PortableEvent{At: ev.at, Seq: ev.seq, Call: ev.call})
	}
	return out, nil
}

// AdoptState overwrites the engine's counters wholesale. The engine must
// be freshly Reset; the caller then replays the exported events through
// AdoptEvent and AdoptTicker. Pending is set directly, not accumulated by
// the adopted events, because it also counts external-calendar events
// that never touch this heap.
func (e *Engine) AdoptState(c Counters) {
	e.n = c
}

// AdoptEvent enters an adopted event directly into the heap with its
// original ordering key, its handler and its resolved reference,
// bypassing insert's monotonic-clock check (an adopted schedule is
// installed after AdoptState has already advanced the clock, and heap
// pushes maintain the invariant under any insertion order). It
// deliberately leaves the counters to AdoptState.
func (e *Engine) AdoptEvent(pe PortableEvent, h Handler, ref any) {
	e.queue.push(event{at: pe.At, seq: pe.Seq, call: pe.Call, h: h, ref: ref})
}

// AdoptTicker revives a periodic process from its adopted pending tick: a
// ticker of the given interval and body, armed with pe's ordering key and
// descriptor in place of a fresh first tick (which would double-fire it).
// Like AdoptEvent it leaves the counters to AdoptState.
func (e *Engine) AdoptTicker(pe PortableEvent, interval float64, fn func(Time)) *Ticker {
	t := e.newTicker(interval, fn, false)
	e.AdoptEvent(pe, t, nil)
	return t
}
