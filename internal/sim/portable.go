package sim

import "fmt"

// This file is the engine half of the portable-snapshot contract (see
// internal/snapshot): exporting a schedule as passive descriptors and
// rebuilding it inside a different engine. An event's handler and
// reference belong to the engine's model, so events travel as (time, seq,
// Call) triples and the adopting side hands each descriptor to its own
// handler of that kind.

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
// heap (AdoptEvent, Ticker.Adopt) rebuilds the same array.
func (e *Engine) ExportEvents() ([]PortableEvent, error) {
	out := make([]PortableEvent, 0, len(e.queue))
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

// ExportState returns the engine's scalar counters for a portable
// snapshot: clock, FIFO sequence, executed count, and the live/max-live
// accounting (which includes externally-scheduled calendar events, so it
// is captured here rather than derived from the exported heap).
func (e *Engine) ExportState() (now Time, seq, nEvent uint64, live, maxLive int) {
	return e.now, e.seq, e.nEvent, e.live, e.maxLive
}

// AdoptState overwrites the engine's scalar counters wholesale. The
// engine must be freshly Reset; the caller then replays the exported
// events through AdoptEvent. live is set directly (not accumulated by
// AdoptEvent) because it also counts external-calendar events that never
// touch this heap.
func (e *Engine) AdoptState(now Time, seq, nEvent uint64, live, maxLive int) {
	e.now = now
	e.seq = seq
	e.nEvent = nEvent
	e.live = live
	e.maxLive = maxLive
}

// AdoptEvent enters an adopted event directly into the heap with its
// original ordering key, its handler and its resolved reference,
// bypassing insert's monotonic-clock check (an adopted schedule is
// installed after AdoptState has already advanced the clock, and heap
// pushes maintain the invariant under any insertion order). It
// deliberately does not touch seq or the live counters — AdoptState owns
// those wholesale. A ticker's tick is adopted through Ticker.Adopt
// instead.
func (e *Engine) AdoptEvent(at Time, seq uint64, c Call, h Handler, ref any) {
	e.queue.push(event{at: at, seq: seq, call: c, h: h, ref: ref})
}
