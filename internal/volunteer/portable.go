package volunteer

import (
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/wcg"
)

// Portable kernel snapshots (see the snapshot package doc): self-contained
// copies of the host plane's mutable state that a different pooled run
// context can adopt. Assignments held by hosts — the work buffer and the
// in-flight task — are translated to arena indices at export and resolved
// against the adopter's own server, which has installed the same live
// arena chunks; a pending late return waits in the engine's heap, which
// exports its assignment the same way. The population stream's state
// travels with the columns, so the adopter's next spawn draws the same
// seeds the source's would have.
//
// The calendar's pending continuations — the armed buffer's unread rest,
// every pending window and the idle-retry ring — join the snapshot's one
// event list in the CallHost form a heap continuation exports as, and
// AdoptEvent routes each adopted CallHost event where schedule would put
// it. Where a continuation waits never moves the execution order (Merge
// order in kernel.go), so the adopter runs the source's schedule whatever
// the source's split between heap, windows, buffer and ring.

// exportEvent returns a calendar event in the portable form the engine
// gives a fetch or task-done continuation waiting in its heap: a CallHost
// event with no assignment.
func exportEvent(ev planeEvent) sim.PortableEvent {
	return sim.PortableEvent{At: ev.at, Seq: ev.seq, Call: sim.Call{Kind: sim.CallHost, K0: ev.kind,
		A0: ev.host, A1: wcg.NilIndex}}
}

// appendChunks appends the events of the chunk list from head in portable
// form, skipping the first off events of the head chunk.
func appendChunks(evs []sim.PortableEvent, head *eventChunk, off int) []sim.PortableEvent {
	for ch := head; ch != nil; ch, off = ch.next, 0 {
		for _, ev := range ch.ev[off:ch.n] {
			evs = append(evs, exportEvent(ev))
		}
	}
	return evs
}

// PortableKernel is a self-contained copy of a ShardKernel at an event
// boundary. Safe to publish across goroutines; read-only once built.
type PortableKernel struct {
	flags       []uint8
	speedDown   []float64
	src         []rng.Source
	errorProb   []float64
	abandonProb []float64
	phase       []float64
	onlineSpan  []float64
	joinedAt    []sim.Time
	hardware    []float64
	cpuSpent    []float64
	cur         []int32
	cacheLen    []uint8
	cache       []int32

	active, firstActive int
	rsrc                rng.Source

	window float64

	// The armed window: the calendar's pending events travel in the
	// snapshot's event list.
	win    int
	winEnd sim.Time
	armed  bool
}

// Bytes estimates the portable kernel's memory footprint for the
// snapshot_bytes accounting.
func (p *PortableKernel) Bytes() int {
	return snapshot.Size(p.flags) + snapshot.Size(p.speedDown) +
		snapshot.Size(p.src) +
		snapshot.Size(p.errorProb) + snapshot.Size(p.abandonProb) +
		snapshot.Size(p.phase) + snapshot.Size(p.onlineSpan) +
		snapshot.Size(p.joinedAt) + snapshot.Size(p.hardware) +
		snapshot.Size(p.cpuSpent) + snapshot.Size(p.cur) +
		snapshot.Size(p.cacheLen) + snapshot.Size(p.cache)
}

// ExportPortable deep-copies the kernel's mutable state into a portable
// snapshot, and appends the calendar's pending continuations to events,
// the snapshot's event list: the armed buffer's unread rest, every pending
// window and the idle-retry ring. It does not cover a Mux's columns, so a
// kernel bound to one cannot be snapshotted.
func (k *ShardKernel) ExportPortable(events []sim.PortableEvent) (*PortableKernel, []sim.PortableEvent) {
	if k.mux != nil {
		panic("volunteer: snapshots of a multiplexed kernel are not supported")
	}
	p := &PortableKernel{
		flags:       snapshot.Clone(k.flags),
		speedDown:   snapshot.Clone(k.speedDown),
		src:         snapshot.Clone(k.src),
		errorProb:   snapshot.Clone(k.errorProb),
		abandonProb: snapshot.Clone(k.abandonProb),
		phase:       snapshot.Clone(k.phase),
		onlineSpan:  snapshot.Clone(k.onlineSpan),
		joinedAt:    snapshot.Clone(k.joinedAt),
		hardware:    snapshot.Clone(k.hardware),
		cpuSpent:    snapshot.Clone(k.cpuSpent),
		cacheLen:    snapshot.Clone(k.cacheLen),

		active:      k.active,
		firstActive: k.firstActive,
		rsrc:        *k.r,

		window: k.window,
		win:    k.win,
		winEnd: k.winEnd,
		armed:  k.armed,
	}
	p.cur = make([]int32, len(k.cur))
	for i, a := range k.cur {
		p.cur[i] = wcg.AssignmentIndex(a)
	}
	p.cache = make([]int32, len(k.cache))
	for i, a := range k.cache {
		p.cache[i] = wcg.AssignmentIndex(a)
	}
	c := &k.cal
	for _, ev := range c.cur[c.cursor:] {
		events = append(events, exportEvent(ev))
	}
	for _, win := range c.wins[c.next:] {
		events = appendChunks(events, win.head, 0)
	}
	return p, appendChunks(events, c.ring.head, c.ringOff)
}

// AdoptPortable installs a portable kernel snapshot into this kernel. The
// kernel must have been Reset under the same configuration and window
// width the source ran; every assignment index is resolved through asAt
// against the adopter's server. The calendar is left empty at the
// source's armed window, for AdoptEvent to fill.
func (k *ShardKernel) AdoptPortable(p *PortableKernel, asAt func(int32) *wcg.Assignment) {
	if k.window != p.window {
		panic("volunteer: adopting kernel has a different window width — config mismatch")
	}
	k.flags = append(k.flags[:0], p.flags...)
	k.speedDown = append(k.speedDown[:0], p.speedDown...)
	k.src = append(k.src[:0], p.src...)
	k.errorProb = append(k.errorProb[:0], p.errorProb...)
	k.abandonProb = append(k.abandonProb[:0], p.abandonProb...)
	k.phase = append(k.phase[:0], p.phase...)
	k.onlineSpan = append(k.onlineSpan[:0], p.onlineSpan...)
	k.joinedAt = append(k.joinedAt[:0], p.joinedAt...)
	k.hardware = append(k.hardware[:0], p.hardware...)
	k.cpuSpent = append(k.cpuSpent[:0], p.cpuSpent...)
	k.cur = k.cur[:0]
	for _, ai := range p.cur {
		k.cur = append(k.cur, asAt(ai))
	}
	k.cacheLen = append(k.cacheLen[:0], p.cacheLen...)
	k.cache = k.cache[:0]
	for _, ai := range p.cache {
		k.cache = append(k.cache, asAt(ai))
	}

	k.active, k.firstActive = p.active, p.firstActive
	*k.r = p.rsrc

	k.cal.reset(p.win + 1) // every pending window lies after the armed one
	k.win, k.winEnd, k.armed = p.win, p.winEnd, p.armed
	k.livePlane = 0
}

// AdoptEvent routes an adopted CallHost event, its assignment resolved to
// a (nil unless it is a late return), where schedule would put it: a late
// return, or a continuation due inside the armed window, into the engine's
// heap; any other into its calendar window. An event the source held in
// its armed buffer or on its ring so lands in the heap or a window, which
// changes no execution order (Merge order in kernel.go). Call it after
// AdoptPortable.
func (k *ShardKernel) AdoptEvent(pe sim.PortableEvent, a *wcg.Assignment) {
	if pe.Call.K0 == evLate || pe.At < k.winEnd {
		k.eng.AdoptEvent(pe, k, a)
		return
	}
	k.livePlane++
	k.cal.push(int(pe.At/k.window), planeEvent{at: pe.At, seq: pe.Seq, host: pe.Call.A0, kind: pe.Call.K0})
}
