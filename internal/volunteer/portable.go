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
// exports its assignment the same way. The calendar travels as its pending
// windows' events, the idle-retry ring and the armed buffer's unread
// rest, each in the CallHost form a heap continuation exports as. The
// population stream's state travels with the columns, so the adopter's
// next spawn draws the same seeds the source's would have.

// exportEvent returns a calendar event in the portable form the engine
// gives a fetch or task-done continuation waiting in its heap: a CallHost
// event with no assignment.
func exportEvent(ev planeEvent) sim.PortableEvent {
	return sim.PortableEvent{At: ev.at, Seq: ev.seq, Call: sim.Call{Kind: sim.CallHost, K0: ev.kind,
		A0: ev.host, A1: wcg.NilIndex}}
}

// adoptEvent turns a portable CallHost event back into a calendar event.
func adoptEvent(pe sim.PortableEvent) planeEvent {
	return planeEvent{at: pe.At, seq: pe.Seq, host: pe.Call.A0, kind: pe.Call.K0}
}

// calSpan names one window of a flattened calendar: window w (an absolute
// window number) holds the next n events of the flat list.
type calSpan struct{ w, n int32 }

// flatten returns every pending window's events in portable form, one span
// per non-empty window.
func (c *shardCal) flatten() (evs []sim.PortableEvent, spans []calSpan) {
	pending := c.wins[c.next:]
	n := 0
	for _, win := range pending {
		n += win.n
	}
	evs = make([]sim.PortableEvent, 0, n)
	for i := range pending {
		if pending[i].n == 0 {
			continue
		}
		spans = append(spans, calSpan{w: int32(c.base + c.next + i), n: int32(pending[i].n)})
		for ch := pending[i].head; ch != nil; ch = ch.next {
			for _, ev := range ch.ev[:ch.n] {
				evs = append(evs, exportEvent(ev))
			}
		}
	}
	return evs, spans
}

// exportRing returns the idle-retry ring's unread entries in portable
// form, in ring order.
func (c *shardCal) exportRing() []sim.PortableEvent {
	if c.ring.n == 0 {
		return nil
	}
	evs := make([]sim.PortableEvent, 0, c.ring.n)
	off := c.ringOff
	for ch := c.ring.head; ch != nil; ch, off = ch.next, 0 {
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

	// The calendar: the pending windows as one flat event list named by
	// spans, the idle-retry ring in ring order (its own list: a ring entry
	// and a window's fetch have the same portable form), and the armed
	// window's unconsumed events in merge order.
	events []sim.PortableEvent
	spans  []calSpan
	ring   []sim.PortableEvent
	calCur []sim.PortableEvent
	win    int
	winEnd sim.Time
	armed  bool

	livePlane int
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
		snapshot.Size(p.cacheLen) + snapshot.Size(p.cache) +
		snapshot.Size(p.events) + snapshot.Size(p.spans) + snapshot.Size(p.ring) +
		snapshot.Size(p.calCur)
}

// RingDue counts the ring entries that fall due inside the armed window,
// where the merge reads them beside its buffer and the engine's heap.
func (p *PortableKernel) RingDue() int {
	n := 0
	for _, pe := range p.ring {
		if pe.At < p.winEnd {
			n++
		}
	}
	return n
}

// exportEvents translates events into owned portable form.
func exportEvents(evs []planeEvent) []sim.PortableEvent {
	if len(evs) == 0 {
		return nil
	}
	out := make([]sim.PortableEvent, len(evs))
	for i, ev := range evs {
		out[i] = exportEvent(ev)
	}
	return out
}

// ExportPortable deep-copies the kernel's mutable state into a portable
// snapshot. It does not cover a Mux's columns, so a kernel bound to one
// cannot be snapshotted.
func (k *ShardKernel) ExportPortable() *PortableKernel {
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

		calCur: exportEvents(k.cal.cur[k.cal.cursor:]),
		win:    k.win,
		winEnd: k.winEnd,
		armed:  k.armed,

		livePlane: k.livePlane,
	}
	p.cur = make([]int32, len(k.cur))
	for i, a := range k.cur {
		p.cur[i] = wcg.AssignmentIndex(a)
	}
	p.cache = make([]int32, len(k.cache))
	for i, a := range k.cache {
		p.cache[i] = wcg.AssignmentIndex(a)
	}
	p.events, p.spans = k.cal.flatten()
	p.ring = k.cal.exportRing()
	return p
}

// AdoptPortable installs a portable kernel snapshot into this kernel. The
// kernel must have been Reset under the same configuration and window
// width the source ran; every assignment index is resolved through asAt
// against the adopter's server. Calendar windows are rebuilt from the flat
// event list onto the adopter's own chunks. A window's chunk layout is
// invisible — its barrier arms it into exact (time, seq) order whatever
// the order of its events (see Window arming in kernel.go) — so the
// rebuilt calendar is equivalent to the flattened one. The ring is
// rebuilt in ring order, and stays in (time, seq) order as the adopter
// appends: every adopted entry was scheduled at or before the snapshot's
// clock, under the same IdleRetry.
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

	c := &k.cal
	c.reset(p.win + 1) // every pending window lies after the armed one
	i := 0
	for _, s := range p.spans {
		for end := i + int(s.n); i < end; i++ {
			c.push(int(s.w), adoptEvent(p.events[i]))
		}
	}
	for _, pe := range p.ring {
		c.appendTo(&c.ring, adoptEvent(pe))
	}
	for _, pe := range p.calCur {
		c.cur = append(c.cur, adoptEvent(pe))
	}
	k.win, k.winEnd, k.armed = p.win, p.winEnd, p.armed
	k.livePlane = p.livePlane
}
