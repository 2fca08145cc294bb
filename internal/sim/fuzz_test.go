package sim

import (
	"cmp"
	"math"
	"slices"
	"testing"
)

// FuzzEngine is a differential test of the engine: it decodes the input
// into scheduling, ticker, run, reset and adoption operations, applies each
// to an Engine and to refEngine, a test-only reference that keeps its
// schedule in an unsorted slice and scans it for the minimum, and after
// every operation compares the fired-event log, the Counters, the Peek key
// and the ExportEvents set (or its error).
//
// Each operation is two bytes, an opcode (the byte mod 11) and an
// argument:
//
//	0  Schedule at now + arg%4
//	1  ScheduleCall at now + arg%4: a CallSpoolDrain the harness handles
//	2  Every: start now + arg&3, interval 1 + arg>>2&3, stop itself from
//	   within tick arg>>4&3 (0 = never), its ticks carrying a
//	   CallTickDaily descriptor when arg&0x40 and none (CallFunc) otherwise
//	3  ObserveEvery, with Every's argument (an observer has no descriptor)
//	4  Stop ticker arg%len(tickers), which may predate the last Reset
//	5  Step
//	6  RunBefore(now + arg%8)
//	7  RunUntil(now + arg%8)
//	8  Reset
//	9  ScheduleCall at now + arg%4: a CallHost the harness handles, its id
//	   as the reference
//	10 when the reference's schedule is portable, move the harness onto a
//	   fresh engine rebuilt from Counters and ExportEvents: AdoptState,
//	   AdoptEvent with the harness as the handler, and each live ticker
//	   rebuilt from its pending tick with AdoptTicker
//
// Times are whole seconds, so equal timestamps are common and the FIFO
// tie-break decides most orders. The seeds' opcode bytes all lie below 10,
// so a new opcode, which changes the modulus, changes no seed's meaning.
func FuzzEngine(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 0, 1, 0, 0, 0, 0, 1, 5, 0, 5, 0, 6, 1, 5, 0, 7, 3},
		{2, 0x45, 2, 0x01, 0, 1, 4, 0, 7, 6, 4, 1, 7, 6, 5, 0},
		{3, 0x00, 1, 2, 7, 3, 4, 0, 1, 1, 7, 3, 5, 0},
		{2, 0x44, 7, 5, 8, 0, 0, 1, 4, 0, 6, 2, 5, 0, 2, 0x41, 7, 2},
		{2, 0x60, 3, 0x25, 0, 0, 7, 7, 4, 1, 0, 2, 5, 0},
		{2, 0x40, 2, 0x40, 0, 0, 1, 0, 4, 1, 6, 1, 5, 0, 8, 0, 4, 0, 5, 0},
		{9, 1, 0, 1, 9, 0, 2, 0x41, 9, 1, 5, 0, 6, 2, 8, 0, 9, 3, 7, 3},
		{1, 1, 2, 0x65, 9, 2, 10, 0, 5, 0, 10, 0, 7, 7, 4, 0, 0, 1, 10, 0, 8, 0, 10, 0, 9, 3, 7, 3},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h := &engineHarness{e: NewEngine()}
		for i := 0; i+1 < len(data) && i < 2*fuzzMaxOps; i += 2 {
			h.apply(data[i]%11, data[i+1])
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
	log     []logEntry // the engine's fired events
	tickers []*Ticker
	fns     []func(Time) // each ticker's callback, for a rebuilt ticker
	refs    []*refTicker
	nextID  int
	checked int // log entries already compared
}

// Handle logs an event as fired under the id its A0 carries, or under -1
// when the ref handed back is not the one it was scheduled with: its id
// for a CallHost, nil otherwise.
func (h *engineHarness) Handle(c Call, ref any) {
	id := int(c.A0)
	var want any
	if c.Kind == CallHost {
		want = id
	}
	if ref != want {
		id = -1
	}
	h.log = append(h.log, logEntry{id, h.e.Now()})
}

func (h *engineHarness) apply(op, arg byte) {
	e, r := h.e, &h.r
	switch op {
	case 0, 1, 9:
		if len(r.events) >= fuzzMaxEvents {
			return
		}
		id := h.nextID
		h.nextID++
		at := e.Now() + float64(arg%4)
		var c Call
		switch op {
		case 0:
			e.Schedule(at, func() { h.log = append(h.log, logEntry{id, h.e.Now()}) })
		case 1:
			c = Call{Kind: CallSpoolDrain, A0: int32(id)}
			e.ScheduleCall(at, c, h, nil)
		case 9:
			c = Call{Kind: CallHost, A0: int32(id)}
			e.ScheduleCall(at, c, h, id)
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
		fired := 0
		fn := func(now Time) {
			fired++
			h.log = append(h.log, logEntry{tickID + rt.id, now})
			if fired == rt.stopAt {
				h.tickers[rt.id].Stop()
			}
		}
		var tk *Ticker
		if rt.observer {
			tk = e.ObserveEvery(start, rt.interval, fn)
		} else {
			if arg&0x40 != 0 {
				rt.call = Call{Kind: CallTickDaily, A0: int32(rt.id)}
			}
			tk = e.Every(start, rt.interval, rt.call, fn)
		}
		r.insert(refEvent{at: start, call: rt.call, tick: rt})
		h.tickers = append(h.tickers, tk)
		h.fns = append(h.fns, fn)
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
		r.now, r.seq, r.executed, r.live, r.maxLive = 0, 0, 0, 0, 0
		r.events = r.events[:0]
	case 10:
		for _, ev := range r.events {
			if !ev.counted() || ev.call.Kind == CallFunc {
				return
			}
		}
		evs, err := e.ExportEvents()
		if err != nil {
			panic(err) // the last compare saw the reference call it portable
		}
		adopted := NewEngine()
		adopted.AdoptState(e.Counters())
		for _, pe := range evs {
			switch pe.Call.Kind {
			case CallTickDaily:
				i := pe.Call.A0
				h.tickers[i] = adopted.AdoptTicker(pe, h.refs[i].interval, h.fns[i])
			case CallHost:
				adopted.AdoptEvent(pe, h, int(pe.Call.A0))
			default:
				adopted.AdoptEvent(pe, h, nil)
			}
		}
		h.e = adopted
	}
}

func (h *engineHarness) compare(t *testing.T, op int) {
	t.Helper()
	e, r := h.e, &h.r
	if !slices.Equal(h.log[h.checked:], r.log[h.checked:]) {
		t.Fatalf("op %d: fired %v, reference fired %v", op, h.log[h.checked:], r.log[h.checked:])
	}
	h.checked = len(h.log)
	if n, rn := e.Counters(), (Counters{Now: r.now, Seq: r.seq, Executed: r.executed, Pending: r.live, MaxPending: r.maxLive}); n != rn {
		t.Fatalf("op %d: counters %+v, reference %+v", op, n, rn)
	}
	at, seq, ok := e.Peek()
	if i := r.next(); ok != (i >= 0) || ok && (at != r.events[i].at || seq != r.events[i].seq) {
		t.Fatalf("op %d: Peek = (%v, %d, %v), reference head %d of %v", op, at, seq, ok, i, r.events)
	}
	got, err := e.ExportEvents()
	var want []PortableEvent
	portable := true
	for _, ev := range r.events {
		portable = portable && ev.counted() && ev.call.Kind != CallFunc
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
