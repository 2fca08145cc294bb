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
// has replayed the same allocation order. Closure state (the SpawnHint
// callback) is never exported; the adopter re-binds it.

// portablePlaneEvent is a planeEvent with its assignment pointer replaced
// by the assignment's arena index.
type portablePlaneEvent struct {
	at       sim.Time
	seq      uint64
	a        int32
	reported float64
	host     int32
	kind     uint8
}

func exportEvent(ev planeEvent) portablePlaneEvent {
	return portablePlaneEvent{at: ev.at, seq: ev.seq, a: wcg.AssignmentIndex(ev.a),
		reported: ev.reported, host: ev.host, kind: ev.kind}
}

func (pe portablePlaneEvent) adopt(asAt func(int32) *wcg.Assignment) planeEvent {
	return planeEvent{at: pe.at, seq: pe.seq, a: asAt(pe.a),
		reported: pe.reported, host: pe.host, kind: pe.kind}
}

// calSpan names one window of a flattened calendar: window w holds the
// next n events of the flat list.
type calSpan struct{ w, n int32 }

// flatten appends every pending window's events to evs, recording one span
// per non-empty window.
func (c *shardCal) flatten(evs []planeEvent, spans []calSpan) ([]planeEvent, []calSpan) {
	for w := range c.wins {
		if c.wins[w].n == 0 {
			continue
		}
		spans = append(spans, calSpan{w: int32(w), n: int32(c.wins[w].n)})
		for ch := c.wins[w].head; ch != nil; ch = ch.next {
			evs = append(evs, ch.ev[:ch.n]...)
		}
	}
	return evs, spans
}

// rebuild recycles every pending window's chunks and refills the windows
// from a flattened portable calendar: spans name the windows of the flat
// event list, whose assignments asAt resolves. A window's chunk layout is
// invisible — its barrier arms it into exact (time, seq) order whatever
// the order of its events (see Window arming in kernel.go) — so the
// rebuilt calendar is equivalent to the flattened one.
func (c *shardCal) rebuild(spans []calSpan, evs []portablePlaneEvent, asAt func(int32) *wcg.Assignment) {
	for w := range c.wins {
		c.drop(w)
	}
	c.wins = c.wins[:0]
	i := 0
	for _, s := range spans {
		for end := i + int(s.n); i < end; i++ {
			c.push(int(s.w), evs[i].adopt(asAt))
		}
	}
}

// portableCal is one shard's calendar: the pending windows as one flat
// event list named by spans, the armed window's unconsumed events in
// merge order, and the refill queue.
type portableCal struct {
	events []portablePlaneEvent
	spans  []calSpan
	cur    []portablePlaneEvent
	refill []int32
}

// PortableKernel is a self-contained copy of a ShardKernel at an event
// boundary. Safe to publish across goroutines; read-only once built.
type PortableKernel struct {
	flags       []uint8
	speedDown   []float64
	src         []rng.Source
	dec         []decision
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

	pool     []spawnSlot
	poolHead int
	rsrc     rng.Source

	shards int
	window float64

	cals    []portableCal
	win     int
	winEnd  sim.Time
	armed   bool
	overlay []portablePlaneEvent

	livePlane, peekSrc int
}

// Bytes estimates the portable kernel's memory footprint for the
// snapshot_bytes accounting.
func (p *PortableKernel) Bytes() int {
	n := snapshot.Size(p.flags) + snapshot.Size(p.speedDown) +
		snapshot.Size(p.src) + snapshot.Size(p.dec) +
		snapshot.Size(p.errorProb) + snapshot.Size(p.abandonProb) +
		snapshot.Size(p.phase) + snapshot.Size(p.onlineSpan) +
		snapshot.Size(p.joinedAt) + snapshot.Size(p.hardware) +
		snapshot.Size(p.done) + snapshot.Size(p.cpuSpent) +
		snapshot.Size(p.cur) + snapshot.Size(p.curOutcome) +
		snapshot.Size(p.curReported) + snapshot.Size(p.cacheLen) +
		snapshot.Size(p.cache) + snapshot.Size(p.pool) +
		snapshot.Size(p.overlay)
	for i := range p.cals {
		c := &p.cals[i]
		n += snapshot.Size(c.events) + snapshot.Size(c.spans) +
			snapshot.Size(c.cur) + snapshot.Size(c.refill)
	}
	return n
}

// exportEvents translates events into owned portable form.
func exportEvents(evs []planeEvent) []portablePlaneEvent {
	if len(evs) == 0 {
		return nil
	}
	out := make([]portablePlaneEvent, len(evs))
	for i, ev := range evs {
		out[i] = exportEvent(ev)
	}
	return out
}

// ExportPortable deep-copies the kernel's mutable state into a portable
// snapshot. It does not cover a multiplexed kernel's mux columns, so such
// a kernel cannot be snapshotted.
func (k *ShardKernel) ExportPortable() *PortableKernel {
	if k.mux != nil {
		panic("volunteer: snapshots of a multiplexed kernel are not supported")
	}
	p := &PortableKernel{
		flags:       snapshot.Clone(k.flags),
		speedDown:   snapshot.Clone(k.speedDown),
		src:         snapshot.Clone(k.src),
		dec:         snapshot.Clone(k.dec),
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

		pool:     snapshot.Clone(k.pool),
		poolHead: k.poolHead,
		rsrc:     *k.r,

		shards: k.shards,
		window: k.window,

		win:     k.win,
		winEnd:  k.winEnd,
		armed:   k.armed,
		overlay: exportEvents(k.overlay),

		livePlane: k.livePlane,
		peekSrc:   k.peekSrc,
	}
	p.cur = make([]int32, len(k.cur))
	for i, a := range k.cur {
		p.cur[i] = wcg.AssignmentIndex(a)
	}
	p.cache = make([]int32, len(k.cache))
	for i, a := range k.cache {
		p.cache[i] = wcg.AssignmentIndex(a)
	}
	p.cals = make([]portableCal, k.shards)
	var flat []planeEvent
	for sh := range k.cals {
		c, pc := &k.cals[sh], &p.cals[sh]
		flat, pc.spans = c.flatten(flat[:0], nil)
		pc.events = exportEvents(flat)
		pc.cur = exportEvents(c.cur[c.cursor:])
		pc.refill = snapshot.Clone(c.refill)
	}
	return p
}

// AdoptPortable installs a portable kernel snapshot into this kernel. The
// kernel must have been Reset under the same configuration, shard count
// and window width the source ran; every assignment index is resolved
// through asAt against the adopter's server. Calendar windows are rebuilt
// from the flat event lists onto the adopter's own chunks.
func (k *ShardKernel) AdoptPortable(p *PortableKernel, asAt func(int32) *wcg.Assignment) {
	if k.shards != p.shards || k.window != p.window {
		panic("volunteer: adopting kernel has a different shard layout — config mismatch")
	}
	k.flags = append(k.flags[:0], p.flags...)
	k.speedDown = append(k.speedDown[:0], p.speedDown...)
	k.src = append(k.src[:0], p.src...)
	k.dec = append(k.dec[:0], p.dec...)
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

	k.pool = append(k.pool[:0], p.pool...)
	k.poolHead = p.poolHead
	*k.r = p.rsrc

	for sh := range k.cals {
		c, pc := &k.cals[sh], &p.cals[sh]
		c.rebuild(pc.spans, pc.events, asAt)
		c.cur, c.cursor = c.cur[:0], 0
		for _, pe := range pc.cur {
			c.cur = append(c.cur, pe.adopt(asAt))
		}
		c.refill = append(c.refill[:0], pc.refill...)
	}
	k.win, k.winEnd, k.armed = p.win, p.winEnd, p.armed
	k.overlay = k.overlay[:0]
	for _, pe := range p.overlay {
		k.overlay = append(k.overlay, pe.adopt(asAt))
	}
	k.livePlane, k.peekSrc = p.livePlane, p.peekSrc
}
