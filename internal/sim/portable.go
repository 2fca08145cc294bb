package sim

import "fmt"

// This file is the engine half of the portable-snapshot contract (see
// internal/snapshot): exporting a schedule as passive descriptors and
// rebuilding it inside a different engine. An *Event and its closure belong
// to the engine that created them, so events travel as (time, seq, Call)
// triples and the adopting side re-binds callbacks from the Call
// descriptors against its own model objects.

// PortableEvent is one live scheduled event in portable form: its heap
// ordering key plus the Call descriptor its scheduling site tagged it
// with. No pointers — safe to hand to another goroutine/engine.
type PortableEvent struct {
	At   Time
	Seq  uint64
	Call Call
}

// ExportEvents returns every live (non-cancelled) event in the schedule
// as portable descriptors. It fails if any live event is untagged
// (Call.Kind == CallNone) or is an observer event: neither can be rebuilt
// on an adopting engine. Every scheduling site a snapshot can meet is
// tagged, so the error marks a programming mistake, not a runtime state.
// Order follows the heap array and is deterministic for a deterministic
// run; adoption keys only on (At, Seq).
func (e *Engine) ExportEvents() ([]PortableEvent, error) {
	out := make([]PortableEvent, 0, len(e.queue))
	for _, en := range e.queue {
		if en.ev.canceled {
			continue
		}
		if en.ev.observer {
			return nil, fmt.Errorf("sim: observer event at %v is not portable", en.at)
		}
		if en.ev.call.Kind == CallNone {
			return nil, fmt.Errorf("sim: untagged event at %v (seq %d) is not portable", en.at, en.seq)
		}
		out = append(out, PortableEvent{At: en.at, Seq: en.seq, Call: en.ev.call})
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

// AdoptEvent enters a rebuilt event directly into the heap with its
// original ordering key, bypassing insert's monotonic-clock check (an
// adopted schedule is installed after AdoptState has already advanced the
// clock, and heap pushes maintain the invariant under any insertion
// order). It deliberately does not touch seq or the live counters —
// AdoptState owns those wholesale. Returns the handle so tickers can
// re-attach their pending tick.
func (e *Engine) AdoptEvent(at Time, seq uint64, c Call, fn func(), recycle bool) *Event {
	ev := e.alloc()
	*ev = Event{at: at, fn: fn, call: c, recycle: recycle, inHeap: true}
	e.queue.push(entry{at: at, seq: seq, ev: ev})
	return ev
}
