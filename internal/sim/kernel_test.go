package sim

import (
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/rng"
)

// The engine contract beyond plain ordering: FIFO ties across every
// scheduling path, ticker stops that take the pending tick out of the heap
// at once, events handed back to the handler they were scheduled with, and
// a Reset that leaves nothing behind. FuzzEngine checks the same contract
// against a reference model.

// handlerFunc adapts a function to Handler.
type handlerFunc func(c Call, ref any)

func (f handlerFunc) Handle(c Call, ref any) { f(c, ref) }

func TestScheduleFIFOWithAt(t *testing.T) {
	// Ties at one timestamp run in scheduling order whichever path
	// scheduled them, a ticker's first tick and handled events included.
	e := NewEngine()
	var order []int
	h := handlerFunc(func(c Call, _ any) { order = append(order, int(c.A0)) })
	e.Schedule(5, func() { order = append(order, 0) })
	e.ScheduleCall(5, Call{Kind: CallSpoolDrain, A0: 1}, h, nil)
	tk := e.Every(5, 1, Call{}, func(Time) { order = append(order, 2) })
	e.ScheduleAfter(5, func() { order = append(order, 3) })
	e.ScheduleCall(5, Call{Kind: CallHost, A0: 4}, h, nil)
	e.RunUntil(5)
	tk.Stop()
	if len(order) != 5 {
		t.Fatalf("mixed-path ties ran %v, want 5 events", order)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("mixed-path ties not FIFO: %v", order)
		}
	}
}

func TestScheduleCallHandsBackToHandler(t *testing.T) {
	// An event is its descriptor: Step hands the Call, unchanged, and the
	// ref back to the handler it was scheduled with, after the clock and
	// the counters moved exactly as for any other event. Its seq comes
	// from the counter ExternalSchedule draws from.
	e := NewEngine()
	type fired struct {
		c   Call
		ref any
		now Time
	}
	var log []fired
	h := handlerFunc(func(c Call, ref any) {
		if n := e.Counters(); n.Pending != 1 || n.Executed != 1 {
			t.Errorf("handler sees pending %d, executed %d; want 1 and 1", n.Pending, n.Executed)
		}
		log = append(log, fired{c, ref, e.Now()})
	})
	x := new(int)
	c := Call{Kind: CallHost, K0: 2, A0: 7, A1: 9, F0: 1.5}
	e.ScheduleCall(3, c, h, x)
	if seq := e.ExternalSchedule(); seq != 1 {
		t.Fatalf("ExternalSchedule after one event drew seq %d, want 1", seq)
	}
	if _, seq, _ := e.Peek(); seq != 0 {
		t.Fatalf("the event holds seq %d, want 0", seq)
	}
	e.Run()
	if want := (fired{c, x, 3}); len(log) != 1 || log[0] != want {
		t.Fatalf("handler got %+v, want %+v", log, want)
	}
}

func TestHostEventsRoundTrip(t *testing.T) {
	// Events export as their descriptors; adopted with the adopter's
	// handler and, for a CallHost, the ref its A1 resolves to, they run on
	// the adopting engine in the source's order, at the source's times.
	refs := []*int{new(int), new(int), new(int)}
	type fired struct {
		id  int32
		ref any
		now Time
	}
	record := func(e *Engine, log *[]fired) Handler {
		return handlerFunc(func(c Call, ref any) { *log = append(*log, fired{c.A0, ref, e.Now()}) })
	}
	src := NewEngine()
	var want []fired
	hs := record(src, &want)
	for i, at := range []Time{4, 2, 4, 1, 3, 2} {
		if i%2 == 0 {
			a := int32(i / 2)
			src.ScheduleCall(at, Call{Kind: CallHost, A0: int32(i), A1: a}, hs, refs[a])
		} else {
			src.ScheduleCall(at, Call{Kind: CallSpoolDrain, A0: int32(i)}, hs, nil)
		}
	}
	src.Step()
	evs, err := src.ExportEvents()
	if err != nil {
		t.Fatal(err)
	}
	dst := NewEngine()
	var got []fired
	hd := record(dst, &got)
	dst.AdoptState(src.Counters())
	for _, pe := range evs {
		var ref any
		if pe.Call.Kind == CallHost {
			ref = refs[pe.Call.A1]
		}
		dst.AdoptEvent(pe, hd, ref)
	}
	src.Run()
	dst.Run()
	want = want[1:] // the step before the export
	if len(got) != 5 || !slices.Equal(got, want) {
		t.Fatalf("adopted engine fired %v, source %v", got, want)
	}
	if got, want := dst.Counters(), src.Counters(); got != want {
		t.Fatalf("adopted engine ends at %+v, source at %+v", got, want)
	}
}

func TestMaxPending(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.Schedule(float64(i+1), func() {})
	}
	if e.Counters().MaxPending != 5 {
		t.Fatalf("max pending = %d, want 5", e.Counters().MaxPending)
	}
	e.Run()
	if e.Counters().MaxPending != 5 {
		t.Fatalf("max pending after run = %d, want 5 (high-water mark)", e.Counters().MaxPending)
	}
	e.Schedule(100, func() {})
	if e.Counters().MaxPending != 5 {
		t.Fatalf("max pending = %d, want 5 (1 live < old peak)", e.Counters().MaxPending)
	}
}

func TestStopTakesTickOutOfHeap(t *testing.T) {
	// Stop removes a pending tick from anywhere in a deep heap, sifting
	// the heap's last event up or down into the hole: Pending drops at
	// once and every other event still runs in (time, FIFO) order.
	e := NewEngine()
	r := rng.New(3)
	const n, k = 2000, 200
	type firing struct {
		at Time
		id int
	}
	var fired []firing
	for i := 0; i < n; i++ {
		e.Schedule(math.Floor(r.Float64()*100), func() { fired = append(fired, firing{e.Now(), i}) })
	}
	tickers := make([]*Ticker, k)
	for i := range tickers {
		tickers[i] = e.Every(math.Floor(r.Float64()*100), 1, Call{}, func(Time) { t.Error("a stopped ticker fired") })
	}
	for i, tk := range tickers {
		tk.Stop()
		if want := n + k - i - 1; e.Counters().Pending != want {
			t.Fatalf("Pending after %d stops = %d, want %d", i+1, e.Counters().Pending, want)
		}
	}
	e.Run()
	ordered := sort.SliceIsSorted(fired, func(a, b int) bool {
		return fired[a].at < fired[b].at || fired[a].at == fired[b].at && fired[a].id < fired[b].id
	})
	if len(fired) != n || !ordered {
		t.Fatalf("fired %d events (in order: %v), want %d in (time, FIFO) order", len(fired), ordered, n)
	}
}

func TestTickerNaNIntervalPanics(t *testing.T) {
	// A NaN interval passes an `interval <= 0` guard; the ticker
	// constructor shared by Every, ObserveEvery and AdoptTicker must
	// reject it, and ±Inf, before anything is scheduled.
	for _, iv := range []float64{nan(), math.Inf(1), math.Inf(-1)} {
		for name, build := range map[string]func(*Engine){
			"Every":        func(e *Engine) { e.Every(0, iv, Call{}, func(Time) {}) },
			"ObserveEvery": func(e *Engine) { e.ObserveEvery(0, iv, func(Time) {}) },
			"AdoptTicker": func(e *Engine) {
				e.AdoptTicker(PortableEvent{Call: Call{Kind: CallTickDaily}}, iv, func(Time) {})
			},
		} {
			e := NewEngine()
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s with interval %v: no panic at construction", name, iv)
					}
				}()
				build(e)
			}()
			if _, _, ok := e.Peek(); ok {
				t.Errorf("%s with interval %v scheduled a tick before panicking", name, iv)
			}
		}
	}
}

func TestTickerDoesNotAllocatePerTick(t *testing.T) {
	e := NewEngine()
	ticks := 0
	tk := e.Every(0, 1, Call{}, func(Time) { ticks++ })
	e.RunUntil(10000)
	tk.Stop()
	if ticks != 10001 {
		t.Fatalf("ticks = %d", ticks)
	}
	// A tick is a value in the heap: rescheduling one allocates nothing.
	tk = e.Every(e.Now(), 1, Call{}, func(Time) { ticks++ })
	if allocs := testing.AllocsPerRun(10, func() { e.RunUntil(e.Now() + 100) }); allocs != 0 {
		t.Fatalf("ticking allocated %v times per 100 ticks", allocs)
	}
	tk.Stop()
}

func TestResetIndistinguishableFromFresh(t *testing.T) {
	// A reset engine must replay a schedule exactly like a fresh one:
	// same clock, same FIFO tie-breaks, same counters.
	run := func(e *Engine) (order []int, executed uint64, maxPending int) {
		e.Schedule(5, func() { order = append(order, 0) })
		e.Schedule(5, func() { order = append(order, 1) })
		tk := e.Every(3, 1, Call{}, func(Time) { order = append(order, 2) })
		tk.Stop()
		e.ScheduleAfter(5, func() { order = append(order, 3) })
		e.Run()
		n := e.Counters()
		return order, n.Executed, n.MaxPending
	}
	fresh := NewEngine()
	o1, x1, m1 := run(fresh)

	reused := NewEngine()
	for i := 0; i < 1000; i++ { // dirty the heap
		reused.Schedule(float64(i), func() {})
	}
	stale := reused.Every(0, 7, Call{}, func(Time) {})
	reused.ScheduleCall(600, Call{Kind: CallHost}, handlerFunc(func(Call, any) {}), nil)
	reused.RunUntil(500)
	reused.Reset()
	if n := reused.Counters(); n != (Counters{}) {
		t.Fatalf("reset engine not pristine: %+v", n)
	}
	reused.Schedule(5, func() {})
	stale.Stop() // owns no event after the Reset: must not touch the new schedule
	if reused.Counters().Pending != 1 {
		t.Fatalf("a ticker stopped after Reset changed Pending to %d, want 1", reused.Counters().Pending)
	}
	reused.Reset()
	o2, x2, m2 := run(reused)
	if len(o1) != len(o2) {
		t.Fatalf("orders differ: %v vs %v", o1, o2)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("orders differ: %v vs %v", o1, o2)
		}
	}
	if x1 != x2 || m1 != m2 {
		t.Fatalf("counters differ: executed %d vs %d, max pending %d vs %d", x1, x2, m1, m2)
	}
}

func TestResetRetainsStorage(t *testing.T) {
	// The steady state of a run-reset-run loop must not allocate: the
	// second run reuses the first run's heap array.
	e := NewEngine()
	const n = 3 * 1024
	run := func() {
		for i := 0; i < n; i++ {
			e.Schedule(float64(i), func() {})
		}
		e.Run()
	}
	run()
	e.Reset()
	allocs := testing.AllocsPerRun(1, func() {
		run()
		e.Reset()
	})
	// The heap array is retained and the closures capture nothing, so
	// per-event allocations must be gone entirely.
	if allocs > float64(n)/100 {
		t.Fatalf("reused run made %v allocations for %d events", allocs, n)
	}
}

func BenchmarkScheduleStep(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+1, fn)
		e.Step()
	}
}
