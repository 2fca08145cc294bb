package sim

import (
	"cmp"
	"math"
	"slices"
	"testing"
)

// FuzzEngine is a differential test of the engine: it decodes the input
// into scheduling, ticker, run and reset operations, applies each to an
// Engine and to refEngine, a test-only reference that keeps its schedule in
// an unsorted slice and scans it for the minimum, and after every operation
// compares the fired-callback log, Now, Pending, MaxPending, Executed, the
// Peek key and the ExportEvents set (or its error).
//
// Each operation is two bytes, an opcode and an argument:
//
//	0  Schedule at now + arg%4
//	1  ScheduleCall at now + arg%4
//	2  Every: start now + arg&3, interval 1 + arg>>2&3, stop itself from
//	   within tick arg>>4&3 (0 = never), Tag it when arg&0x40
//	3  ObserveEvery, with Every's argument
//	4  Stop ticker arg%len(tickers), which may predate the last Reset
//	5  Step
//	6  RunBefore(now + arg%8)
//	7  RunUntil(now + arg%8)
//	8  Reset (the harness then binds itself as the HostRunner again)
//	9  ScheduleHost at now + arg%4, handed back to the harness
//
// Times are whole seconds, so equal timestamps are common and the FIFO
// tie-break decides most orders.
func FuzzEngine(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 0, 1, 0, 0, 0, 0, 1, 5, 0, 5, 0, 6, 1, 5, 0, 7, 3},
		{2, 0x45, 2, 0x01, 0, 1, 4, 0, 7, 6, 4, 1, 7, 6, 5, 0},
		{3, 0x00, 1, 2, 7, 3, 4, 0, 1, 1, 7, 3, 5, 0},
		{2, 0x44, 7, 5, 8, 0, 0, 1, 4, 0, 6, 2, 5, 0, 2, 0x41, 7, 2},
		{2, 0x60, 3, 0x25, 0, 0, 7, 7, 4, 1, 0, 2, 5, 0},
		{2, 0x40, 2, 0x40, 0, 0, 1, 0, 4, 1, 6, 1, 5, 0, 8, 0, 4, 0, 5, 0},
		{9, 1, 0, 1, 9, 0, 2, 0x41, 9, 1, 5, 0, 6, 2, 8, 0, 9, 3, 7, 3},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h := newEngineHarness()
		for i := 0; i+1 < len(data) && i < 2*fuzzMaxOps; i += 2 {
			h.apply(data[i]%10, data[i+1])
			h.compare(t, i/2)
		}
	})
}

// Bounds that keep one input cheap, so the fuzzer's minimizer does not
// stall on long inputs: the reference scans its whole schedule per event.
const (
	fuzzMaxOps     = 64 // operations decoded from one input
	fuzzMaxEvents  = 64 // pending non-ticker events
	fuzzMaxTickers = 64 // tickers ever created
	fuzzMaxActive  = 8  // tickers not yet stopped
)

// logEntry is one fired callback: an event's id, or a ticker's id offset
// by tickID, with the clock it fired at.
type logEntry struct {
	id int
	at Time
}

const tickID = 1 << 20

type refTicker struct {
	id       int
	interval float64
	observer bool
	stopAt   int // stop from within this tick (0 = never)
	fired    int
	call     Call
	stopped  bool
}

type refEvent struct {
	at   Time
	seq  uint64
	id   int
	call Call
	tick *refTicker
}

func (ev *refEvent) counted() bool { return ev.tick == nil || !ev.tick.observer }

// refEngine is the reference model: the engine's contract in the fewest
// moving parts.
type refEngine struct {
	now           Time
	seq, executed uint64
	live, maxLive int
	events        []refEvent
	log           []logEntry
}

func (r *refEngine) insert(ev refEvent) {
	ev.seq = r.seq
	r.seq++
	r.events = append(r.events, ev)
	if ev.counted() {
		r.live++
		r.maxLive = max(r.maxLive, r.live)
	}
}

func (r *refEngine) next() int {
	m := -1
	for i := range r.events {
		a := &r.events[i]
		if m < 0 || a.at < r.events[m].at || (a.at == r.events[m].at && a.seq < r.events[m].seq) {
			m = i
		}
	}
	return m
}

func (r *refEngine) step() bool {
	i := r.next()
	if i < 0 {
		return false
	}
	ev := r.events[i]
	r.events = slices.Delete(r.events, i, i+1)
	r.now = ev.at
	if ev.counted() {
		r.live--
		r.executed++
	}
	tk := ev.tick
	if tk == nil {
		r.log = append(r.log, logEntry{ev.id, r.now})
		return true
	}
	tk.fired++
	r.log = append(r.log, logEntry{tickID + tk.id, r.now})
	if tk.fired == tk.stopAt {
		r.stop(tk)
	}
	if !tk.stopped {
		r.insert(refEvent{at: r.now + tk.interval, call: tk.call, tick: tk})
	}
	return true
}

func (r *refEngine) runBefore(deadline Time) {
	for i := r.next(); i >= 0 && r.events[i].at < deadline; i = r.next() {
		r.step()
	}
}

func (r *refEngine) stop(tk *refTicker) {
	if tk.stopped {
		return
	}
	tk.stopped = true
	for i := range r.events {
		if r.events[i].tick == tk {
			r.events = slices.Delete(r.events, i, i+1)
			if !tk.observer {
				r.live--
			}
			return
		}
	}
}

// engineHarness drives an Engine and a refEngine through the same
// operations.
type engineHarness struct {
	e       *Engine
	r       refEngine
	log     []logEntry // the engine's fired callbacks
	tickers []*Ticker
	refs    []*refTicker
	nextID  int
	checked int // log entries already compared
}

func newEngineHarness() *engineHarness {
	h := &engineHarness{e: NewEngine()}
	h.e.BindHost(h)
	return h
}

// RunHost logs a CallHost event as fired under the id its A0 carries, or
// under -1 when the ref handed back is not the id it was scheduled with.
func (h *engineHarness) RunHost(c Call, ref any) {
	id := int(c.A0)
	if ref != id || c.Kind != CallHost {
		id = -1
	}
	h.log = append(h.log, logEntry{id, h.e.Now()})
}

func (h *engineHarness) apply(op, arg byte) {
	e, r := h.e, &h.r
	switch op {
	case 0, 1:
		if len(r.events) >= fuzzMaxEvents {
			return
		}
		id := h.nextID
		h.nextID++
		at := e.Now() + float64(arg%4)
		fn := func() { h.log = append(h.log, logEntry{id, e.Now()}) }
		var c Call
		if op == 0 {
			e.Schedule(at, fn)
		} else {
			c = Call{Kind: CallSpoolDrain, A0: int32(id)}
			e.ScheduleCall(at, fn, c)
		}
		r.insert(refEvent{at: at, id: id, call: c})
	case 2, 3:
		active := 0
		for _, rt := range h.refs {
			if !rt.stopped {
				active++
			}
		}
		if len(h.refs) >= fuzzMaxTickers || active >= fuzzMaxActive {
			return
		}
		rt := &refTicker{id: len(h.refs), interval: float64(1 + arg>>2&3), observer: op == 3, stopAt: int(arg >> 4 & 3)}
		start := e.Now() + float64(arg&3)
		var tk *Ticker
		fired := 0
		fn := func(now Time) {
			fired++
			h.log = append(h.log, logEntry{tickID + rt.id, now})
			if fired == rt.stopAt {
				tk.Stop()
			}
		}
		if rt.observer {
			tk = e.ObserveEvery(start, rt.interval, fn)
		} else {
			tk = e.Every(start, rt.interval, fn)
		}
		r.insert(refEvent{at: start, tick: rt})
		if arg&0x40 != 0 {
			rt.call = Call{Kind: CallTickDaily, A0: int32(rt.id)}
			tk.Tag(rt.call)
			for i := range r.events {
				if r.events[i].tick == rt {
					r.events[i].call = rt.call
				}
			}
		}
		h.tickers = append(h.tickers, tk)
		h.refs = append(h.refs, rt)
	case 4:
		if len(h.tickers) == 0 {
			return
		}
		i := int(arg) % len(h.tickers)
		h.tickers[i].Stop()
		r.stop(h.refs[i])
	case 5:
		e.Step()
		r.step()
	case 6:
		d := e.Now() + float64(arg%8)
		e.RunBefore(d)
		r.runBefore(d)
	case 7:
		d := e.Now() + float64(arg%8)
		e.RunUntil(d)
		r.runBefore(math.Nextafter(d, math.Inf(1)))
		r.now = max(r.now, d)
	case 8:
		e.Reset()
		e.BindHost(h)
		r.now, r.seq, r.executed, r.live, r.maxLive = 0, 0, 0, 0, 0
		r.events = r.events[:0]
	case 9:
		if len(r.events) >= fuzzMaxEvents {
			return
		}
		id := h.nextID
		h.nextID++
		at := e.Now() + float64(arg%4)
		e.ScheduleHost(at, Call{A0: int32(id)}, id)
		r.insert(refEvent{at: at, id: id, call: Call{Kind: CallHost, A0: int32(id)}})
	}
}

func (h *engineHarness) compare(t *testing.T, op int) {
	t.Helper()
	e, r := h.e, &h.r
	if !slices.Equal(h.log[h.checked:], r.log[h.checked:]) {
		t.Fatalf("op %d: fired %v, reference fired %v", op, h.log[h.checked:], r.log[h.checked:])
	}
	h.checked = len(h.log)
	if e.Now() != r.now || e.Pending() != r.live || e.MaxPending() != r.maxLive || e.Executed() != r.executed {
		t.Fatalf("op %d: now %v pending %d max %d executed %d; reference %v %d %d %d", op,
			e.Now(), e.Pending(), e.MaxPending(), e.Executed(), r.now, r.live, r.maxLive, r.executed)
	}
	at, seq, ok := e.Peek()
	if i := r.next(); ok != (i >= 0) || ok && (at != r.events[i].at || seq != r.events[i].seq) {
		t.Fatalf("op %d: Peek = (%v, %d, %v), reference head %d of %v", op, at, seq, ok, i, r.events)
	}
	got, err := e.ExportEvents()
	var want []PortableEvent
	portable := true
	for _, ev := range r.events {
		portable = portable && ev.counted() && ev.call.Kind != CallNone
		want = append(want, PortableEvent{At: ev.at, Seq: ev.seq, Call: ev.call})
	}
	if (err == nil) != portable {
		t.Fatalf("op %d: ExportEvents error %v, reference portable %v", op, err, portable)
	}
	bySeq := func(a, b PortableEvent) int { return cmp.Compare(a.Seq, b.Seq) }
	slices.SortFunc(got, bySeq)
	slices.SortFunc(want, bySeq)
	if err == nil && !slices.Equal(got, want) {
		t.Fatalf("op %d: ExportEvents = %v, reference %v", op, got, want)
	}
}
