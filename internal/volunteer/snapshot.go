package volunteer

import (
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/wcg"
)

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
// from a flattened calendar: spans name the windows, ev(i) is the i-th
// event. A window's chunk layout is invisible — its events are sorted by
// (time, seq) at its barrier — so the rebuilt calendar is equivalent to
// the flattened one.
func (c *shardCal) rebuild(spans []calSpan, ev func(i int) planeEvent) {
	for w := range c.wins {
		c.drop(w)
	}
	c.wins = c.wins[:0]
	i := 0
	for _, s := range spans {
		for end := i + int(s.n); i < end; i++ {
			c.push(int(s.w), ev(i))
		}
	}
}

// calSnap captures one shard's calendar: the pending windows flattened
// into one event list, the armed window's merge buffer and cursor, and the
// refill queue.
type calSnap struct {
	events []planeEvent
	spans  []calSpan
	cur    snapshot.Slice[planeEvent]
	cursor int
	refill snapshot.Slice[int32]
}

// KernelSnapshot captures a ShardKernel at an event boundary: every SoA
// column, the spawn-slot pool, the per-shard calendars, the overlay heap,
// the window cursor and the population stream. The SpawnHint callback is
// captured as a func value because the campaign's drain phase nils it. See
// the snapshot package doc.
type KernelSnapshot struct {
	flags       snapshot.Slice[uint8]
	speedDown   snapshot.Slice[float64]
	src         snapshot.Slice[rng.Source]
	dec         snapshot.Slice[decision]
	errorProb   snapshot.Slice[float64]
	abandonProb snapshot.Slice[float64]
	phase       snapshot.Slice[float64]
	onlineSpan  snapshot.Slice[float64]
	joinedAt    snapshot.Slice[sim.Time]
	hardware    snapshot.Slice[float64]
	done        snapshot.Slice[int32]
	cpuSpent    snapshot.Slice[float64]
	cur         snapshot.Slice[*wcg.Assignment]
	curOutcome  snapshot.Slice[wcg.Outcome]
	curReported snapshot.Slice[float64]
	cacheLen    snapshot.Slice[int32]
	cache       snapshot.Slice[*wcg.Assignment]

	active, firstActive int

	pool     snapshot.Slice[spawnSlot]
	poolHead int
	rsrc     rng.Source

	spawnHint func(week float64) int

	cals    []calSnap
	win     int
	winEnd  sim.Time
	armed   bool
	overlay snapshot.Slice[planeEvent]

	livePlane, peekSrc int
}

// Capture records k's complete mutable state. The per-host mux columns of
// a multiplexed kernel are not captured, so such a kernel cannot be
// snapshotted.
func (snap *KernelSnapshot) Capture(k *ShardKernel) {
	if k.mux != nil {
		panic("volunteer: snapshots of a multiplexed kernel are not supported")
	}
	snap.flags.Capture(k.flags)
	snap.speedDown.Capture(k.speedDown)
	snap.src.Capture(k.src)
	snap.dec.Capture(k.dec)
	snap.errorProb.Capture(k.errorProb)
	snap.abandonProb.Capture(k.abandonProb)
	snap.phase.Capture(k.phase)
	snap.onlineSpan.Capture(k.onlineSpan)
	snap.joinedAt.Capture(k.joinedAt)
	snap.hardware.Capture(k.hardware)
	snap.done.Capture(k.done)
	snap.cpuSpent.Capture(k.cpuSpent)
	snap.cur.Capture(k.cur)
	snap.curOutcome.Capture(k.curOutcome)
	snap.curReported.Capture(k.curReported)
	snap.cacheLen.Capture(k.cacheLen)
	snap.cache.Capture(k.cache)

	snap.active, snap.firstActive = k.active, k.firstActive

	snap.pool.Capture(k.pool)
	snap.poolHead = k.poolHead
	snap.rsrc = *k.r
	snap.spawnHint = k.SpawnHint

	for len(snap.cals) < k.shards {
		snap.cals = append(snap.cals, calSnap{})
	}
	snap.cals = snap.cals[:k.shards]
	for sh := range k.cals {
		c, cs := &k.cals[sh], &snap.cals[sh]
		cs.events, cs.spans = c.flatten(cs.events[:0], cs.spans[:0])
		cs.cur.Capture(c.cur)
		cs.cursor = c.cursor
		cs.refill.Capture(c.refill)
	}
	snap.win, snap.winEnd, snap.armed = k.win, k.winEnd, k.armed
	snap.overlay.Capture(k.overlay)
	snap.livePlane, snap.peekSrc = k.livePlane, k.peekSrc
}

// Restore rewinds k to the captured state. k must be the kernel the
// snapshot was captured from, not Reset since (same shard count).
func (snap *KernelSnapshot) Restore(k *ShardKernel) {
	k.flags = snap.flags.Restore()
	k.speedDown = snap.speedDown.Restore()
	k.src = snap.src.Restore()
	k.dec = snap.dec.Restore()
	k.errorProb = snap.errorProb.Restore()
	k.abandonProb = snap.abandonProb.Restore()
	k.phase = snap.phase.Restore()
	k.onlineSpan = snap.onlineSpan.Restore()
	k.joinedAt = snap.joinedAt.Restore()
	k.hardware = snap.hardware.Restore()
	k.done = snap.done.Restore()
	k.cpuSpent = snap.cpuSpent.Restore()
	k.cur = snap.cur.Restore()
	k.curOutcome = snap.curOutcome.Restore()
	k.curReported = snap.curReported.Restore()
	k.cacheLen = snap.cacheLen.Restore()
	k.cache = snap.cache.Restore()

	k.active, k.firstActive = snap.active, snap.firstActive

	k.pool = snap.pool.Restore()
	k.poolHead = snap.poolHead
	*k.r = snap.rsrc
	k.SpawnHint = snap.spawnHint

	for sh := range snap.cals {
		c, cs := &k.cals[sh], &snap.cals[sh]
		c.rebuild(cs.spans, func(i int) planeEvent { return cs.events[i] })
		c.cur = cs.cur.Restore()
		c.cursor = cs.cursor
		c.refill = cs.refill.Restore()
	}
	k.win, k.winEnd, k.armed = snap.win, snap.winEnd, snap.armed
	k.overlay = snap.overlay.Restore()
	k.livePlane, k.peekSrc = snap.livePlane, snap.peekSrc
}

// RunBefore merges and executes events with timestamps strictly before
// deadline, exactly as RunUntil would order them, and stops without
// advancing the clock to the deadline or prepping the window that
// contains it. The snapshot/fork path uses it to end a shared prefix at
// a divergence time T: the window barrier covering T (calendar sorting,
// decision refills, spawn-pool top-up) runs in each forked suffix, under
// the forked cell's config, exactly as a straight run of that cell would
// have run it.
func (k *ShardKernel) RunBefore(deadline sim.Time) {
	e := k.eng
	if !k.armed {
		k.prepWindow(k.win)
		k.armed = true
	}
	for {
		pt, pseq, pok := k.peekPlane()
		et, eseq, eok := e.Peek()
		if pok && (!eok || pt < et || (pt == et && pseq < eseq)) {
			if pt >= deadline {
				break
			}
			ev := k.popPlane()
			k.exec(ev)
			continue
		}
		if eok && et < k.winEnd {
			if et >= deadline {
				break
			}
			e.Step()
			continue
		}
		// Current window exhausted on both calendars; advance the barrier
		// only while the next window can still hold events before the
		// deadline (its start is the current winEnd).
		if k.livePlane == 0 {
			if !eok || et >= deadline {
				break
			}
			k.prepWindow(int(et / k.window))
			continue
		}
		if k.winEnd >= deadline {
			break
		}
		k.prepWindow(k.win + 1)
	}
}
