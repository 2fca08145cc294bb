package volunteer

import (
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/wcg"
)

// Portable kernel snapshots (see the snapshot package doc): self-contained
// copies of the host plane's mutable state that a different pooled run
// context can adopt. Assignments held by hosts — the work buffer, the
// in-flight task, late-return calendar entries — are translated to arena
// indices at export and resolved against the adopter's own server, which
// has installed the same live arena chunks. The population stream's state
// travels with the columns, so the adopter's next spawn draws the same
// seeds the source's would have.

// exportEvent returns a calendar event in the portable form the engine
// gives a continuation waiting in its heap: a CallHost event, its
// assignment as an arena index.
func exportEvent(ev planeEvent) sim.PortableEvent {
	return sim.PortableEvent{At: ev.at, Seq: ev.seq, Call: sim.Call{Kind: sim.CallHost, K0: ev.kind,
		A0: ev.host, A1: wcg.AssignmentIndex(ev.a), F0: ev.reported}}
}

// adoptEvent resolves a portable CallHost event into a calendar event.
func adoptEvent(pe sim.PortableEvent, asAt func(int32) *wcg.Assignment) planeEvent {
	return planeEvent{at: pe.At, seq: pe.Seq, a: asAt(pe.Call.A1),
		reported: pe.Call.F0, host: pe.Call.A0, kind: pe.Call.K0}
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
	done        []int32
	cpuSpent    []float64
	cur         []int32
	curOutcome  []wcg.Outcome
	curReported []float64
	cacheLen    []int32
	cache       []int32

	active, firstActive int
	rsrc                rng.Source

	window float64

	// The calendar: the pending windows as one flat event list named by
	// spans, and the armed window's unconsumed events in merge order.
	events []sim.PortableEvent
	spans  []calSpan
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
		snapshot.Size(p.done) + snapshot.Size(p.cpuSpent) +
		snapshot.Size(p.cur) + snapshot.Size(p.curOutcome) +
		snapshot.Size(p.curReported) + snapshot.Size(p.cacheLen) +
		snapshot.Size(p.cache) +
		snapshot.Size(p.events) + snapshot.Size(p.spans) + snapshot.Size(p.calCur)
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
		done:        snapshot.Clone(k.done),
		cpuSpent:    snapshot.Clone(k.cpuSpent),
		curOutcome:  snapshot.Clone(k.curOutcome),
		curReported: snapshot.Clone(k.curReported),
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
	return p
}

// AdoptPortable installs a portable kernel snapshot into this kernel. The
// kernel must have been Reset under the same configuration and window
// width the source ran; every assignment index is resolved through asAt
// against the adopter's server. Calendar windows are rebuilt from the flat
// event list onto the adopter's own chunks. A window's chunk layout is
// invisible — its barrier arms it into exact (time, seq) order whatever
// the order of its events (see Window arming in kernel.go) — so the
// rebuilt calendar is equivalent to the flattened one.
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
	k.done = append(k.done[:0], p.done...)
	k.cpuSpent = append(k.cpuSpent[:0], p.cpuSpent...)
	k.cur = k.cur[:0]
	for _, ai := range p.cur {
		k.cur = append(k.cur, asAt(ai))
	}
	k.curOutcome = append(k.curOutcome[:0], p.curOutcome...)
	k.curReported = append(k.curReported[:0], p.curReported...)
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
			c.push(int(s.w), adoptEvent(p.events[i], asAt))
		}
	}
	for _, pe := range p.calCur {
		c.cur = append(c.cur, adoptEvent(pe, asAt))
	}
	k.win, k.winEnd, k.armed = p.win, p.winEnd, p.armed
	k.livePlane = p.livePlane
}
