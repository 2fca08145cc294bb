// The deterministic time-window kernel: the execution half of the
// host plane (see plane.go for the SoA layout).
//
// # Time-window invariant
//
// Host fetch and task-done continuations live in one window calendar,
// indexed by window = floor(time / W), except flat idle retries, which
// live on its idle-retry ring. The window width W is min(IdleRetry, half
// the target task wall time), so almost every continuation lands one or
// more windows ahead of the window that schedules it. The rare one that
// falls due inside the armed window enters the sim.Engine heap instead, as
// a sim.CallHost event that the engine hands back to the kernel's Handle;
// it never enters the armed buffer or the ring. That makes W a pure
// performance knob — correctness holds for any W > 0. A late return (§5.1:
// a device back online days after its deadline) always waits in the heap,
// carrying its assignment, so a calendar entry holds no pointer.
//
// A window's events are appended, unsorted, to a list of fixed-size
// chunks drawn from the calendar's free list, so its memory tracks the
// pending events rather than its peak window. The window table follows
// the pending span rather than the horizon: each barrier compacts the
// consumed prefix in place once it dominates the table, and a table with
// nothing pending starts over after the armed window. At each window
// barrier the calendar arms the new window into one reused merge buffer,
// recycling the window's chunks.
//
// A fetch that comes up empty retries after IdleRetry, or after whatever
// the bound RetryAdvisor makes of it. A retry whose delay is exactly
// IdleRetry and which falls due beyond the armed window is appended to the
// ring, a FIFO on chunks from the same free list: its key is now +
// IdleRetry with a fresh seq, and the clock and the seq counter never go
// back, so append order is (time, seq) order and the ring needs no window
// index and no arming pass. A head chunk read to its end goes back to the
// free list. Stretched retries (backoff, smear) keep to the windows.
//
// Between barriers the kernel merges three sorted sources in global
// ascending (time, seq) order — the armed buffer, the ring's head while it
// falls due before the armed window's end, and the engine's heap — and
// executes the model, drawing every host decision and join inline.
// Everything runs on the caller's goroutine.
//
// # Window arming
//
// Arming is a calendar-queue bucket pass, linear in the window's n events
// rather than a comparison sort: count the events into nb = min(n,
// calBuckets) equal time buckets, b(at) = clamp(⌊(at − w·W)·nb/W⌋, 0,
// nb−1), scatter them stably from the chunks into the merge buffer, and
// sort each bucket by (time, seq) — insertion sort up to insertionCutoff
// events, a comparison sort above it, so a window whose events share one
// time stays O(n log n). The result is the exact (time, seq) order: b is
// non-decreasing in at (IEEE subtraction, multiplication by a positive
// constant, truncation and clamping are all monotone), so bucket order
// never contradicts time order, and the in-bucket sort settles every tie
// by seq. Events reach a window in ascending seq order, which keeps the
// in-bucket sorts near-linear; the order does not depend on it.
//
// # Merge order
//
// Every tie-break seq is drawn from the engine counter as the event is
// scheduled — by the heap's own insert, or by Engine.ExternalSchedule for
// a calendar or ring event — so no two events share a (time, seq) key,
// and every model draw comes from fixed per-host stream positions as the
// merge executes events (the draw order in plane.go). The merge therefore
// has exactly one order: whichever of the armed buffer, the ring and the
// engine heap holds the least (time, seq) key runs next. The ring's head
// competes only while it falls due inside the armed window, since a later
// one may follow events of windows not yet armed; the heap's head is held
// to the same bound. The window width and the delay only decide where an
// event waits, never a value or the execution order: reports are
// byte-identical fresh and pooled (golden-hash tests in internal/project
// pin them). Snapshot adoption relies on the same fact: the adopter routes
// each continuation by schedule's rule (AdoptEvent), wherever the source
// held it — buffer, ring, window or heap — and forks to the source's bytes
// (the fork and adopt hash tests in internal/project pin them).
package volunteer

import (
	"math"
	"slices"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/wcg"
)

// planeEvent kinds.
const (
	evFetch uint8 = iota // idle retry: run the fetch loop again
	evDone               // current task completes on time
	evLate               // abandoned task returns after its deadline
)

// planeEvent is one fetch or task-done continuation in the window
// calendar: 24 bytes, no pointer.
type planeEvent struct {
	at   sim.Time
	seq  uint64
	host int32
	kind uint8
}

func planeEventLess(a, b planeEvent) int {
	switch {
	case a.at != b.at:
		if a.at < b.at {
			return -1
		}
		return 1
	case a.seq < b.seq:
		return -1
	case a.seq > b.seq:
		return 1
	}
	return 0
}

const (
	// chunkEvents is the size of one calendar chunk: with its link and
	// count, 255 events fill the 6,144-byte size class.
	chunkEvents = 255
	// calBuckets is the most time buckets a window's arming pass uses.
	calBuckets = 4096
	// insertionCutoff is the largest bucket the arming pass insertion-sorts;
	// larger buckets fall back to a comparison sort.
	insertionCutoff = 32
)

// eventChunk is a fixed block of one window's events, linked into the
// window's list or into the calendar's free list. The link comes first, so
// the collector scans one word of a chunk.
type eventChunk struct {
	next *eventChunk
	n    int
	ev   [chunkEvents]planeEvent
}

// calWindow is one future window's events: a chunk list, unsorted.
type calWindow struct {
	head, tail *eventChunk
	n          int
}

// compactSlack is the consumed prefix the window table keeps before it
// compacts (see take).
const compactSlack = 1024

// shardCal is the kernel's window calendar: the window table (slot i
// holds window base+i; the slots before next are consumed and empty), the
// idle-retry ring, appended only in (time, seq) order, with the read
// offset in its head chunk (ring.n counts the unread entries), the free
// chunks, the armed window's sorted merge buffer with its read cursor, and
// the arming pass's bucket offsets (scratch, never exported).
type shardCal struct {
	wins       []calWindow
	base, next int
	ring       calWindow
	ringOff    int
	free       *eventChunk
	cur        []planeEvent
	cursor     int
	buckets    [calBuckets]int32
}

// push appends ev to window w, which must lie after the last armed
// window.
func (c *shardCal) push(w int, ev planeEvent) {
	i := w - c.base
	for len(c.wins) <= i {
		c.wins = append(c.wins, calWindow{})
	}
	c.appendTo(&c.wins[i], ev)
}

// appendTo appends ev to the chunk list win, taking a chunk from the free
// list (or allocating one) when its tail chunk is full.
func (c *shardCal) appendTo(win *calWindow, ev planeEvent) {
	t := win.tail
	if t == nil || t.n == chunkEvents {
		nc := c.free
		if nc != nil {
			c.free, nc.next = nc.next, nil
		} else {
			nc = new(eventChunk)
		}
		if t == nil {
			win.head = nc
		} else {
			t.next = nc
		}
		win.tail, t = nc, nc
	}
	t.ev[t.n] = ev
	t.n++
	win.n++
}

// count returns window w's event count.
func (c *shardCal) count(w int) int {
	if i := w - c.base; i >= c.next && i < len(c.wins) {
		return c.wins[i].n
	}
	return 0
}

// take makes window w (of width width) the armed window: its events
// bucketed by time into the merge buffer, each bucket sorted by (time,
// seq), its chunks recycled (see Window arming above). The windows before
// w must hold no events. The windows up to w join the consumed prefix,
// compacted in place once it is longer than both compactSlack and the
// pending rest of the table; a table with no window at or after w starts
// over after w. So the table never exceeds the pending span plus the
// larger of the two, and a pooled kernel grows no new table.
func (c *shardCal) take(w int, width float64) {
	c.cur, c.cursor = c.cur[:0], 0
	i := w - c.base
	switch {
	case i < c.next:
		return // w precedes the table
	case i >= len(c.wins):
		c.wins, c.base, c.next = c.wins[:0], w+1, 0
		return
	}
	n := c.wins[i].n
	if cap(c.cur) < n {
		// At least double, from a chunk's worth of events: windows widen
		// slowly as a run's fleet grows, and each step would allocate.
		c.cur = make([]planeEvent, 0, max(n, 2*cap(c.cur), chunkEvents))
	}
	c.cur = c.cur[:n]
	nb := min(n, calBuckets)
	lo, scale := float64(w)*width, float64(nb)/width
	off := c.buckets[:nb]
	clear(off)
	for ch := c.wins[i].head; ch != nil; ch = ch.next {
		for j := range ch.ev[:ch.n] {
			off[bucketOf(ch.ev[j].at, lo, scale, nb)]++
		}
	}
	var start int32
	for b, cnt := range off {
		off[b] = start
		start += cnt
	}
	for ch := c.wins[i].head; ch != nil; ch = ch.next {
		for j := range ch.ev[:ch.n] {
			b := bucketOf(ch.ev[j].at, lo, scale, nb)
			c.cur[off[b]] = ch.ev[j]
			off[b]++
		}
	}
	start = 0
	for _, end := range off { // off[b] is now bucket b's end
		sortBucket(c.cur[start:end])
		start = end
	}
	c.recycle(&c.wins[i])
	c.next = i + 1
	if c.next > compactSlack && 2*c.next > len(c.wins) {
		n := copy(c.wins, c.wins[c.next:])
		clear(c.wins[n:])
		c.wins, c.base, c.next = c.wins[:n], c.base+c.next, 0
	}
}

// bucketOf is the arming pass's bucket of time at: ⌊(at − lo)·scale⌋
// clamped to [0, nb−1], non-decreasing in at. The clamp is taken in float
// so out-of-range times never reach the integer conversion.
func bucketOf(at, lo sim.Time, scale float64, nb int) int {
	x := (at - lo) * scale
	switch {
	case x >= float64(nb-1):
		return nb - 1
	case x > 0:
		return int(x)
	}
	return 0
}

// sortBucket sorts one bucket by (time, seq): insertion sort up to
// insertionCutoff events, a comparison sort above it.
func sortBucket(s []planeEvent) {
	if len(s) > insertionCutoff {
		slices.SortFunc(s, planeEventLess)
		return
	}
	for i := 1; i < len(s); i++ {
		ev, j := s[i], i
		for ; j > 0 && planeEventLess(ev, s[j-1]) < 0; j-- {
			s[j] = s[j-1]
		}
		s[j] = ev
	}
}

// recycle empties the chunk list win onto the free list without reading
// its events.
func (c *shardCal) recycle(win *calWindow) {
	for ch := win.head; ch != nil; {
		next := ch.next
		ch.n, ch.next = 0, c.free
		c.free = ch
		ch = next
	}
	*win = calWindow{}
}

// popRing consumes the ring's head entry, which must exist, and returns
// the head chunk to the free list once it is read to its end. Only the
// tail chunk is ever partly filled, so a head read to its end is either
// full, with the rest of the ring behind it, or the whole ring.
func (c *shardCal) popRing() {
	c.ring.n--
	c.ringOff++
	if h := c.ring.head; c.ringOff == h.n {
		c.ring.head, c.ringOff = h.next, 0
		if h.next == nil {
			c.ring.tail = nil
		}
		h.n, h.next = 0, c.free
		c.free = h
	}
}

// reset empties the calendar and its ring, keeping their chunks and
// buffers, and starts its table at window w.
func (c *shardCal) reset(w int) {
	for i := c.next; i < len(c.wins); i++ {
		c.recycle(&c.wins[i])
	}
	c.wins, c.base, c.next = c.wins[:0], w, 0
	c.recycle(&c.ring)
	c.ringOff = 0
	c.cur, c.cursor = c.cur[:0], 0
}

// ShardKernel runs a host fleet in SoA form over one deterministic window
// calendar merged against a sim.Engine: the host kernel of every campaign
// and co-run.
type ShardKernel struct {
	eng    *sim.Engine
	server WorkSource   // the one work source: server, fault plane or mux
	mux    *Mux         // server as a Mux (port seeds, export refusal); nil otherwise
	retry  RetryAdvisor // server's optional backoff advisor; nil = flat IdleRetry
	cfg    HostConfig
	r      *rng.Source // population stream: host (and mux port) seeds only

	mu, sigma float64 // speed-down LogNormal parameters (see spawn)
	buffer    int     // effective WorkBuffer (≥ 1)
	window    float64

	// SoA host plane, indexed by host ID (see plane.go).
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
	cur         []*wcg.Assignment
	cacheLen    []uint8
	cache       []*wcg.Assignment // flat slab, buffer slots per host

	active      int
	firstActive int // hosts[:firstActive] are all stopped (stop-oldest cursor)

	cal shardCal // the window calendar

	win    int      // current (armed) window index
	winEnd sim.Time // (win+1)·window
	armed  bool     // first RunUntil preps window 0 lazily

	livePlane int // plane events (pending windows, ring and armed buffer) not yet executed

	// OnSaboteurTurn, if non-nil, is invoked once per saboteur host at the
	// moment it turns permanently bad: the run-trace hook for adversarial
	// onsets. Read-only with respect to the model; cleared by Reset.
	OnSaboteurTurn func(id int, at sim.Time)
}

// NewShardKernel builds an empty fleet bound to the engine and its one
// work source (see Reset). window is the barrier width W in seconds (a
// performance knob — any positive value is correct; see the package notes
// above). The kernel copies r's state and draws host seeds from its own
// stream from then on.
func NewShardKernel(engine *sim.Engine, server WorkSource, cfg HostConfig, r *rng.Source, window float64) *ShardKernel {
	k := &ShardKernel{}
	k.Reset(engine, server, cfg, r, window)
	return k
}

// Reset rearms the kernel for another run on a freshly reset engine and
// work source — a server, the fault plane, or a Mux with its attachments
// in place — with zero hosts joined, a new configuration and seed stream,
// the saboteur hook cleared and every backing array retained (see the
// package Reset contract).
func (k *ShardKernel) Reset(engine *sim.Engine, server WorkSource, cfg HostConfig, r *rng.Source, window float64) {
	if cfg.MeanSpeedDown <= 0 {
		panic("volunteer: mean speed-down must be positive")
	}
	if !(window > 0) {
		panic("volunteer: calendar window must be positive")
	}
	if cfg.WorkBuffer > MaxWorkBuffer {
		panic("volunteer: WorkBuffer above MaxWorkBuffer")
	}
	k.eng = engine
	k.server = server
	k.mux, _ = server.(*Mux)
	k.retry, _ = server.(RetryAdvisor)
	k.OnSaboteurTurn = nil
	k.cfg = cfg
	k.r = r
	k.sigma = cfg.SpeedDownSigma
	k.mu = math.Log(cfg.MeanSpeedDown) + k.sigma*k.sigma/2
	k.buffer = max(cfg.WorkBuffer, 1)
	k.window = window

	k.flags = k.flags[:0]
	k.speedDown = k.speedDown[:0]
	k.src = k.src[:0]
	k.errorProb = k.errorProb[:0]
	k.abandonProb = k.abandonProb[:0]
	k.phase = k.phase[:0]
	k.onlineSpan = k.onlineSpan[:0]
	k.joinedAt = k.joinedAt[:0]
	k.hardware = k.hardware[:0]
	k.cpuSpent = k.cpuSpent[:0]
	clear(k.cur)
	k.cur = k.cur[:0]
	k.cacheLen = k.cacheLen[:0]
	clear(k.cache)
	k.cache = k.cache[:0]
	k.active, k.firstActive = 0, 0

	k.cal.reset(0)
	k.win, k.winEnd = 0, window
	k.armed = false
	k.livePlane = 0
}

// schedule enqueues host h's fetch or task-done continuation at time at.
// One due inside the armed window — the exact comparison, immune to
// division rounding at the boundary — enters the engine's heap as a
// CallHost event (see Handle); any other is a future window's calendar
// event, whose tie-break seq and Pending accounting the engine draws
// exactly as for its own.
func (k *ShardKernel) schedule(h int32, kind uint8, at sim.Time) {
	if at < k.winEnd {
		k.eng.ScheduleCall(at, sim.Call{Kind: sim.CallHost, K0: kind, A0: h, A1: wcg.NilIndex}, k, nil)
		return
	}
	k.livePlane++
	// w ≥ win+1: at ≥ winEnd and (win+1)·W is representable.
	k.cal.push(int(at/k.window), planeEvent{at: at, seq: k.eng.ExternalSchedule(), host: h, kind: kind})
}

// retryAfter schedules host h's next fetch d seconds from now: on the
// idle-retry ring when d is the flat IdleRetry and the retry falls due
// beyond the armed window (see the package notes), otherwise — an
// advisor's backoff or smear, or a retry due inside the armed window —
// through schedule. The seq is drawn exactly as schedule draws it.
func (k *ShardKernel) retryAfter(h int32, d float64) {
	at := k.eng.Now() + d
	if d != k.cfg.IdleRetry || at < k.winEnd {
		k.schedule(h, evFetch, at)
		return
	}
	k.livePlane++
	k.cal.appendTo(&k.cal.ring, planeEvent{at: at, seq: k.eng.ExternalSchedule(), host: h, kind: evFetch})
}

// Handle implements sim.Handler: the engine, having accounted the event as
// executed, hands back a continuation that schedule or fetch (a late
// return) put in its heap.
func (k *ShardKernel) Handle(c sim.Call, ref any) {
	if c.K0 == evLate {
		k.lateReturn(c.A0, ref.(*wcg.Assignment))
		return
	}
	k.run(c.A0, c.K0)
}

// exec runs one calendar event, mirroring the engine's clock/executed
// accounting first (exactly as Step orders it).
func (k *ShardKernel) exec(ev planeEvent) {
	k.eng.ExternalExecute(ev.at)
	k.livePlane--
	k.run(ev.host, ev.kind)
}

// run dispatches a fetch or task-done continuation through the host model.
func (k *ShardKernel) run(h int32, kind uint8) {
	if kind == evFetch {
		k.fetch(h)
		return
	}
	k.taskDone(h)
}

// prepWindow is the window barrier: arm window w.
func (k *ShardKernel) prepWindow(w int) {
	k.win = w
	k.winEnd = float64(w+1) * k.window
	k.cal.take(w, k.window)
}

// RunUntil merges calendar, ring and engine events in global ascending
// (time, seq) order, executing everything with time ≤ deadline and
// advancing the clock to the deadline, exactly as Engine.RunUntil does for
// a single heap.
// Callable repeatedly with growing deadlines (the campaign runs the phase
// horizon, then the straggler drain). No float lies between deadline and
// its successor, so running strictly before the successor runs exactly the
// events at or before the deadline, in the same order.
func (k *ShardKernel) RunUntil(deadline sim.Time) {
	k.RunBefore(math.Nextafter(deadline, math.Inf(1)))
	k.eng.AdvanceTo(deadline)
}

// RunBefore merges calendar, ring and engine events in global ascending
// (time, seq) order, executes those with timestamps strictly before
// deadline, and stops without advancing the clock to the deadline or
// prepping the window that contains it. The snapshot/fork path uses it to
// end a shared prefix at a divergence time T: the window barrier covering
// T, which only arms windows, runs in each forked suffix exactly as a
// straight run of that cell would have run it.
func (k *ShardKernel) RunBefore(deadline sim.Time) {
	e := k.eng
	if !k.armed {
		k.prepWindow(k.win)
		k.armed = true
	}
	c := &k.cal
	for {
		et, eseq, eok := e.Peek()
		// The least plane event of the armed window: the armed buffer's
		// head, or the ring's while it falls due before winEnd (a later
		// ring entry may follow events of windows not yet armed).
		var ev *planeEvent
		if c.cursor < len(c.cur) {
			ev = &c.cur[c.cursor]
		}
		fromRing := false
		if c.ring.n > 0 {
			if r := &c.ring.head.ev[c.ringOff]; r.at < k.winEnd &&
				(ev == nil || r.at < ev.at || (r.at == ev.at && r.seq < ev.seq)) {
				ev, fromRing = r, true
			}
		}
		if ev != nil && (!eok || ev.at < et || (ev.at == et && ev.seq < eseq)) {
			if ev.at >= deadline {
				break
			}
			x := *ev // popRing may recycle the chunk ev points into
			if fromRing {
				c.popRing()
			} else {
				c.cursor++
			}
			k.exec(x)
			continue
		}
		if eok && et < k.winEnd {
			if et >= deadline {
				break
			}
			e.Step()
			continue
		}
		// Current window exhausted on all three sources (any ring or
		// engine head lies in a later window). Advance the barrier —
		// jumping straight to the engine head's window when no plane
		// events remain anywhere — only while the next window can still
		// hold events before the deadline (its start is the current
		// winEnd).
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
