// The deterministic sharded time-window kernel: the execution half of the
// host plane (see plane.go for the SoA layout).
//
// # Shard time-window invariant
//
// Host continuation events (task completions, idle retries, late returns)
// are not stored in the central sim.Engine heap. They live in per-shard
// window calendars: shard = host mod K, window = floor(time / W). The
// window width W is min(IdleRetry, half the target task wall time), so
// almost every continuation lands one or more windows ahead of the window
// that schedules it; the rare event that falls due inside the current
// window goes to a small overlay heap instead, which makes W a pure
// performance knob — correctness holds for any W > 0.
//
// A window's events are appended, unsorted, to a list of fixed-size
// chunks drawn from the shard's free list, so a calendar's memory tracks
// the pending events rather than its peak window. At each window barrier
// the K shard workers run in parallel, touching only their own hosts
// (disjoint array ranges) and their own calendars: they refill the
// consumed per-host decision transcripts (plus, before a weekly tick, the
// spawn slot pool) and arm the new window into one reused per-shard merge
// buffer, recycling its chunks. Between barriers a single goroutine merges
// the K sorted buffers, the overlay heap and the engine's own heap in
// global ascending (time, seq) order and executes the model serially.
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
// # K-invariance
//
// Every tie-break seq is drawn from the engine counter (Engine.TakeSeq) in
// the serial merge, and every model draw comes from fixed per-host stream
// positions (the decision transcripts in plane.go), so the shard count K
// changes only who precomputes a value, never the value or the execution
// order: reports are byte-identical for every K, fresh and pooled
// (golden-hash tests in internal/project pin them).
package volunteer

import (
	"math"
	"slices"
	"sync"

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

// planeEvent is one host continuation in a shard calendar.
type planeEvent struct {
	at       sim.Time
	seq      uint64
	a        *wcg.Assignment // evLate only
	reported float64         // evLate only
	host     int32
	kind     uint8
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
	// chunkEvents is the size of one calendar chunk.
	chunkEvents = 256
	// calBuckets is the most time buckets a window's arming pass uses.
	calBuckets = 4096
	// insertionCutoff is the largest bucket the arming pass insertion-sorts;
	// larger buckets fall back to a comparison sort.
	insertionCutoff = 32
)

// eventChunk is a fixed block of one window's events, linked into the
// window's list or into the shard's free list.
type eventChunk struct {
	ev   [chunkEvents]planeEvent
	n    int
	next *eventChunk
}

// calWindow is one future window's events: a chunk list, unsorted.
type calWindow struct {
	head, tail *eventChunk
	n          int
}

// shardCal is one shard's calendar: the future windows by absolute window
// index, the free chunks, the armed window's sorted merge buffer with its
// read cursor, the hosts whose decision tuple was consumed since the last
// barrier, and the arming pass's bucket offsets (scratch, never exported).
type shardCal struct {
	wins    []calWindow
	free    *eventChunk
	cur     []planeEvent
	cursor  int
	refill  []int32
	buckets [calBuckets]int32
}

// push appends ev to window w, taking a chunk from the free list (or
// allocating one) when the window's tail chunk is full.
func (c *shardCal) push(w int, ev planeEvent) {
	for len(c.wins) <= w {
		c.wins = append(c.wins, calWindow{})
	}
	win := &c.wins[w]
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
	if w < len(c.wins) {
		return c.wins[w].n
	}
	return 0
}

// take makes window w (of width width) the armed window: its events
// bucketed by time into the merge buffer, each bucket sorted by (time,
// seq), its chunks recycled (see Window arming above).
func (c *shardCal) take(w int, width float64) {
	c.cur, c.cursor = c.cur[:0], 0
	if w >= len(c.wins) {
		return
	}
	n := c.wins[w].n
	c.cur = slices.Grow(c.cur, n)[:n]
	nb := min(n, calBuckets)
	lo, scale := float64(w)*width, float64(nb)/width
	off := c.buckets[:nb]
	clear(off)
	for ch := c.wins[w].head; ch != nil; ch = ch.next {
		for i := range ch.ev[:ch.n] {
			off[bucketOf(ch.ev[i].at, lo, scale, nb)]++
		}
	}
	var start int32
	for b, cnt := range off {
		off[b] = start
		start += cnt
	}
	for ch := c.wins[w].head; ch != nil; ch = ch.next {
		for i := range ch.ev[:ch.n] {
			b := bucketOf(ch.ev[i].at, lo, scale, nb)
			c.cur[off[b]] = ch.ev[i]
			off[b]++
		}
	}
	start = 0
	for _, end := range off { // off[b] is now bucket b's end
		sortBucket(c.cur[start:end])
		start = end
	}
	c.drop(w)
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

// drop recycles window w's chunks without reading them.
func (c *shardCal) drop(w int) {
	for ch := c.wins[w].head; ch != nil; {
		next := ch.next
		clear(ch.ev[:ch.n]) // unpin assignments
		ch.n, ch.next = 0, c.free
		c.free = ch
		ch = next
	}
	c.wins[w] = calWindow{}
}

// reset empties the calendar, keeping its chunks and buffers.
func (c *shardCal) reset() {
	for w := range c.wins {
		c.drop(w)
	}
	c.wins = c.wins[:0]
	clear(c.cur)
	c.cur, c.cursor = c.cur[:0], 0
	c.refill = c.refill[:0]
}

// ShardKernel runs a host fleet in SoA form over K deterministic shard
// calendars merged against a sim.Engine: the host kernel of every campaign
// and co-run.
type ShardKernel struct {
	eng    *sim.Engine
	server WorkSource   // single-project work source; nil when multiplexed
	mux    *Mux         // multi-project arbitration (see Multiplex)
	retry  RetryAdvisor // server's optional backoff advisor; nil = flat IdleRetry
	cfg    HostConfig
	r      *rng.Source // population stream: host (and mux port) seeds only

	mu, sigma float64 // speed-down LogNormal parameters (see buildSlot)
	buffer    int     // effective WorkBuffer (≥ 1)
	shards    int
	window    float64

	// SoA host plane, indexed by host ID (see plane.go).
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
	cur         []*wcg.Assignment
	curOutcome  []wcg.Outcome
	curReported []float64
	cacheLen    []int32
	cache       []*wcg.Assignment // flat slab, buffer slots per host

	active      int
	firstActive int // hosts[:firstActive] are all stopped (stop-oldest cursor)

	// Spawn-slot pool (see plane.go), consumed FIFO from poolHead. seedBuf
	// and slots hold the seeds and pool tail a top-up is building.
	pool     []spawnSlot
	poolHead int
	seedBuf  []uint64
	slots    []spawnSlot

	// SpawnHint, set by the campaign, predicts how many hosts the next
	// weekly tick will spawn, so prepWindow can top the slot pool up in
	// parallel before the tick runs. Overprediction is harmless (slots
	// carry pre-drawn seeds; nothing else reads the population stream);
	// nil or underprediction falls back to inline serial builds.
	SpawnHint func(week float64) int

	cals []shardCal // per-shard calendars

	win     int      // current (armed) window index
	winEnd  sim.Time // (win+1)·window
	armed   bool     // first RunUntil preps window 0 lazily
	overlay []planeEvent

	livePlane int // plane events scheduled and not yet executed
	peekSrc   int // peekPlane result: shard index, or overlaySrc / noneSrc

	// The per-shard barrier and slot-building work, bound once as method
	// values so a window barrier allocates nothing.
	barrierFn, slotsFn func(sh int)
}

const (
	overlaySrc = -1
	noneSrc    = -2
)

// NewShardKernel builds an empty fleet bound to the engine and the project
// work source. shards is the worker count K (≥ 1); window is the barrier
// width W in seconds (a performance knob — any positive value is correct;
// see the package notes above). The kernel copies r's state and draws host
// seeds from its own stream from then on.
func NewShardKernel(engine *sim.Engine, server WorkSource, cfg HostConfig, r *rng.Source, shards int, window float64) *ShardKernel {
	k := &ShardKernel{}
	k.Reset(engine, server, cfg, r, shards, window)
	return k
}

// Reset rearms the kernel for another run on a freshly reset engine and
// server: zero hosts joined, new configuration and seed stream, every
// backing array retained (see the package Reset contract).
func (k *ShardKernel) Reset(engine *sim.Engine, server WorkSource, cfg HostConfig, r *rng.Source, shards int, window float64) {
	if cfg.MeanSpeedDown <= 0 {
		panic("volunteer: mean speed-down must be positive")
	}
	if shards < 1 {
		panic("volunteer: shard count must be >= 1")
	}
	if !(window > 0) {
		panic("volunteer: shard window must be positive")
	}
	k.eng = engine
	k.server = server
	k.mux = nil
	k.retry, _ = server.(RetryAdvisor)
	k.cfg = cfg
	k.r = r
	k.sigma = cfg.SpeedDownSigma
	k.mu = math.Log(cfg.MeanSpeedDown) + k.sigma*k.sigma/2
	k.buffer = max(cfg.WorkBuffer, 1)
	k.window = window

	k.flags = k.flags[:0]
	k.speedDown = k.speedDown[:0]
	k.src = k.src[:0]
	k.dec = k.dec[:0]
	k.errorProb = k.errorProb[:0]
	k.abandonProb = k.abandonProb[:0]
	k.phase = k.phase[:0]
	k.onlineSpan = k.onlineSpan[:0]
	k.joinedAt = k.joinedAt[:0]
	k.hardware = k.hardware[:0]
	k.done = k.done[:0]
	k.cpuSpent = k.cpuSpent[:0]
	clear(k.cur)
	k.cur = k.cur[:0]
	k.curOutcome = k.curOutcome[:0]
	k.curReported = k.curReported[:0]
	k.cacheLen = k.cacheLen[:0]
	clear(k.cache)
	k.cache = k.cache[:0]
	k.active, k.firstActive = 0, 0
	k.pool = k.pool[:0]
	k.poolHead = 0

	if shards != len(k.cals) {
		k.cals = make([]shardCal, shards)
	} else {
		for sh := range k.cals {
			k.cals[sh].reset()
		}
	}
	k.shards = shards
	clear(k.overlay)
	k.overlay = k.overlay[:0]
	k.win, k.winEnd = 0, window
	k.armed = false
	k.livePlane = 0
	k.peekSrc = noneSrc
	k.SpawnHint = nil
	if k.barrierFn == nil {
		k.barrierFn, k.slotsFn = k.barrier, k.buildSlots
	}
}

// Multiplex binds the kernel to a multi-project mux instead of a single
// work source: every fetch arbitrates across the mux's attached projects by
// the host's short-term debt, and every spawn draws a second seed, right
// after the host's own, for the host's tie-break stream. Call it after
// NewShardKernel or Reset and before the first spawn, with the mux's
// attachments in place.
func (k *ShardKernel) Multiplex(m *Mux) {
	k.mux = m
	k.server, k.retry = nil, nil
}

// requestWork, complete and deadlineFor route one host's calls to its
// work source: the mux on a multi-project grid, the bound server otherwise.
func (k *ShardKernel) requestWork(h int32) *wcg.Assignment {
	if k.mux != nil {
		return k.mux.RequestWork(int(h))
	}
	return k.server.RequestWork()
}

func (k *ShardKernel) complete(a *wcg.Assignment, oc wcg.Outcome, reported float64, h int32) {
	if k.mux != nil {
		k.mux.CompleteFrom(a, oc, reported, int(h))
		return
	}
	k.server.CompleteFrom(a, oc, reported, int(h))
}

func (k *ShardKernel) deadlineFor(a *wcg.Assignment) float64 {
	if k.mux != nil {
		return k.mux.DeadlineFor(a)
	}
	return k.server.DeadlineFor(a)
}

// scheduleHostEvent enqueues a host continuation at time `at`, drawing the
// tie-break seq and the Pending accounting from the engine exactly as an
// engine-side ScheduleAfter would.
func (k *ShardKernel) scheduleHostEvent(h int32, kind uint8, at sim.Time) {
	k.insert(planeEvent{at: at, seq: k.eng.TakeSeq(), host: h, kind: kind})
}

// scheduleLate enqueues an abandoned-late-return continuation carrying its
// assignment and reported seconds.
func (k *ShardKernel) scheduleLate(h int32, at sim.Time, a *wcg.Assignment, reported float64) {
	k.insert(planeEvent{at: at, seq: k.eng.TakeSeq(), a: a, reported: reported, host: h, kind: evLate})
}

// insert routes one event to the overlay heap (due inside the current
// window — the exact comparison, immune to division rounding at the
// boundary) or to its shard's future-window calendar.
func (k *ShardKernel) insert(ev planeEvent) {
	k.eng.ExternalSchedule()
	k.livePlane++
	if ev.at < k.winEnd {
		k.overlayPush(ev)
		return
	}
	// w ≥ win+1: at ≥ winEnd and (win+1)·W is representable.
	k.cals[int(ev.host)%k.shards].push(int(ev.at/k.window), ev)
}

// overlayPush / overlayPop: a plain binary min-heap on (at, seq).
func (k *ShardKernel) overlayPush(ev planeEvent) {
	q := append(k.overlay, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if planeEventLess(q[i], q[p]) >= 0 {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	k.overlay = q
}

func (k *ShardKernel) overlayPop() planeEvent {
	q := k.overlay
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = planeEvent{}
	q = q[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && planeEventLess(q[c+1], q[c]) < 0 {
			c++
		}
		if planeEventLess(q[c], q[i]) >= 0 {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	k.overlay = q
	return top
}

// peekPlane returns the ordering key of the earliest plane event in the
// current window (across the K sorted merge buffers and the overlay),
// remembering which source holds it for popPlane.
func (k *ShardKernel) peekPlane() (at sim.Time, seq uint64, ok bool) {
	best := noneSrc
	var bt sim.Time
	var bs uint64
	for sh := range k.cals {
		c := &k.cals[sh]
		if c.cursor >= len(c.cur) {
			continue
		}
		ev := &c.cur[c.cursor]
		if best == noneSrc || ev.at < bt || (ev.at == bt && ev.seq < bs) {
			best, bt, bs = sh, ev.at, ev.seq
		}
	}
	if len(k.overlay) > 0 {
		ov := &k.overlay[0]
		if best == noneSrc || ov.at < bt || (ov.at == bt && ov.seq < bs) {
			best, bt, bs = overlaySrc, ov.at, ov.seq
		}
	}
	k.peekSrc = best
	return bt, bs, best != noneSrc
}

// popPlane removes and returns the event peekPlane found.
func (k *ShardKernel) popPlane() planeEvent {
	if k.peekSrc == overlaySrc {
		return k.overlayPop()
	}
	c := &k.cals[k.peekSrc]
	ev := c.cur[c.cursor]
	c.cursor++
	return ev
}

// exec runs one plane event through the host model, mirroring the engine's
// clock/executed accounting first (exactly as Step orders it).
func (k *ShardKernel) exec(ev planeEvent) {
	k.eng.ExternalExecute(ev.at)
	k.livePlane--
	switch ev.kind {
	case evFetch:
		k.fetch(ev.host)
	case evDone:
		k.taskDone(ev.host)
	default:
		k.lateReturn(ev.host, ev.a, ev.reported)
	}
}

// runParallel fans fn(0..shards-1) over goroutines, running shard 0 on the
// caller. Shards touch disjoint host-ID ranges and their own calendars, so
// the barrier is the only synchronization the data plane needs.
func (k *ShardKernel) runParallel(fn func(sh int)) {
	if k.shards == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(k.shards - 1)
	for sh := 1; sh < k.shards; sh++ {
		go func(sh int) {
			defer wg.Done()
			fn(sh)
		}(sh)
	}
	fn(0)
	wg.Wait()
}

// prepWindow is the window barrier: top up the spawn pool if a weekly tick
// falls inside window w, then run every shard's barrier work — in parallel
// when any shard has more than a trivial amount of it.
func (k *ShardKernel) prepWindow(w int) {
	k.win = w
	k.winEnd = float64(w+1) * k.window

	if k.SpawnHint != nil {
		wStart := float64(w) * k.window
		week := math.Ceil(wStart / sim.Week)
		if tick := week * sim.Week; tick >= wStart && tick < k.winEnd {
			if need := k.SpawnHint(week) - (len(k.pool) - k.poolHead); need > 0 {
				k.topUpPool(need)
			}
		}
	}

	for sh := range k.cals {
		if c := &k.cals[sh]; len(c.refill) > 0 || c.count(w) > 1 {
			k.runParallel(k.barrierFn)
			return
		}
	}
	for sh := range k.cals {
		k.barrier(sh)
	}
}

// barrier is one shard's share of a window barrier: refill the consumed
// decision tuples, then arm the window's merge buffer, sorted.
func (k *ShardKernel) barrier(sh int) {
	c := &k.cals[sh]
	for _, h := range c.refill {
		k.dec[h] = computeDecision(&k.src[h], k.errorProb[h], k.abandonProb[h],
			k.cfg.LateReturnProb, k.flags[h]&hfTurned != 0, k.flags[h]&hfSaboteur != 0)
	}
	c.refill = c.refill[:0]
	c.take(k.win, k.window)
}

// topUpPool extends the spawn-slot pool by n slots: seeds drawn serially
// from the population stream in spawn order (host seed, then mux port seed
// on a multiplexed fleet — nothing else reads the stream), slot
// transcripts built in parallel.
func (k *ShardKernel) topUpPool(n int) {
	if k.poolHead > 0 {
		m := copy(k.pool, k.pool[k.poolHead:])
		k.pool = k.pool[:m]
		k.poolHead = 0
	}
	k.seedBuf = k.seedBuf[:0]
	base := len(k.pool)
	for i := 0; i < n; i++ {
		k.seedBuf = append(k.seedBuf, k.r.Uint64())
		var slot spawnSlot
		if k.mux != nil {
			slot.portSeed = k.r.Uint64()
		}
		k.pool = append(k.pool, slot)
	}
	k.slots = k.pool[base:]
	k.runParallel(k.slotsFn)
	k.slots = nil
}

// buildSlots is one shard's share of a pool top-up.
func (k *ShardKernel) buildSlots(sh int) {
	for i := sh; i < len(k.slots); i += k.shards {
		k.buildSlot(&k.slots[i], k.seedBuf[i])
	}
}

// RunUntil merges plane and engine events in global ascending (time, seq)
// order, executing everything with time ≤ deadline and advancing the clock
// to the deadline, exactly as Engine.RunUntil does for a single heap.
// Callable repeatedly with growing deadlines (the campaign runs the phase
// horizon, then the straggler drain). No float lies between deadline and
// its successor, so running strictly before the successor runs exactly the
// events at or before the deadline, in the same order.
func (k *ShardKernel) RunUntil(deadline sim.Time) {
	k.RunBefore(math.Nextafter(deadline, math.Inf(1)))
	k.eng.AdvanceTo(deadline)
}

// RunBefore merges plane and engine events in global ascending (time,
// seq) order, executes those with timestamps strictly before deadline, and
// stops without advancing the clock to the deadline or prepping the window
// that contains it. The snapshot/fork path uses it to end a shared prefix at
// a divergence time T: the window barrier covering T (window arming,
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
		// Current window exhausted on both calendars (any engine head
		// lies in a later window). Advance the barrier — jumping straight
		// to the engine head's window when no plane events remain
		// anywhere — only while the next window can still hold events
		// before the deadline (its start is the current winEnd).
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
