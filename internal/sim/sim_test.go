package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wrong order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("ties not FIFO: %v", order)
		}
	}
}

func TestOrderingProperty(t *testing.T) {
	r := rng.New(99)
	f := func(n uint8) bool {
		e := NewEngine()
		count := int(n%100) + 1
		times := make([]float64, count)
		var fired []float64
		for i := 0; i < count; i++ {
			times[i] = r.Float64() * 1000
			ti := times[i]
			e.Schedule(ti, func() { fired = append(fired, ti) })
		}
		e.Run()
		if len(fired) != count {
			return false
		}
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleDuringRun(t *testing.T) {
	e := NewEngine()
	var fired []float64
	e.Schedule(10, func() {
		e.ScheduleAfter(5, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 1 || fired[0] != 15 {
		t.Fatalf("nested schedule wrong: %v", fired)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.Schedule(5, func() {})
}

func TestScheduleNaNPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling at NaN")
		}
	}()
	e.Schedule(nan(), func() {})
}

func nan() float64 {
	z := 0.0
	return z / z
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []float64
	for _, ts := range []float64{5, 15, 25} {
		ts := ts
		e.Schedule(ts, func() { fired = append(fired, ts) })
	}
	e.RunUntil(20)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want 2 events", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("clock = %v, want 20", e.Now())
	}
	e.RunUntil(30)
	if len(fired) != 3 || e.Now() != 30 {
		t.Fatalf("after second RunUntil: fired=%v now=%v", fired, e.Now())
	}
}

// TestRunUntilDeadlineTies pins the boundary RunUntil and RunBefore share:
// an event exactly at the deadline runs under RunUntil, not RunBefore, and
// one at the deadline's float successor runs under neither.
func TestRunUntilDeadlineTies(t *testing.T) {
	const d = 20.0
	var fired []float64
	e := NewEngine()
	for _, ts := range []float64{d, d, math.Nextafter(d, math.Inf(1))} {
		ts := ts
		e.Schedule(ts, func() { fired = append(fired, ts) })
	}
	e.RunBefore(d)
	if len(fired) != 0 || e.Now() != 0 {
		t.Fatalf("RunBefore(%v) fired %v, now %v; want nothing", d, fired, e.Now())
	}
	e.RunUntil(d)
	if len(fired) != 2 || e.Now() != d {
		t.Fatalf("RunUntil(%v) fired %v, now %v; want both ties", d, fired, e.Now())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("clock = %v", e.Now())
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	var ticks []float64
	tk := e.Every(0, 10, Call{}, func(now Time) {
		ticks = append(ticks, now)
		if now >= 50 {
			// stop from within the callback
		}
	})
	e.RunUntil(45)
	tk.Stop()
	e.RunUntil(100)
	if len(ticks) != 5 { // 0,10,20,30,40
		t.Fatalf("ticks = %v", ticks)
	}
}

func TestTickerStopWithin(t *testing.T) {
	e := NewEngine()
	count := 0
	var tk *Ticker
	tk = e.Every(0, 1, Call{}, func(now Time) {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	e.Run()
	if count != 3 {
		t.Fatalf("count = %d", count)
	}
	tk.Stop() // double-stop is safe
}

func TestTickerBadInterval(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive interval")
		}
	}()
	e.Every(0, 0, Call{}, func(Time) {})
}

func TestExecutedCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(float64(i), func() {})
	}
	e.Run()
	if e.Counters().Executed != 7 {
		t.Fatalf("executed = %d", e.Counters().Executed)
	}
	if e.Counters().Pending != 0 {
		t.Fatalf("pending = %d", e.Counters().Pending)
	}
}

func TestCalendar(t *testing.T) {
	var c Calendar
	if c.DayOfWeek(0) != 0 {
		t.Fatal("epoch should be Monday")
	}
	if c.DayOfWeek(5*Day) != 5 || !c.IsWeekend(5*Day) {
		t.Fatal("day 5 should be Saturday")
	}
	if c.IsWeekend(2 * Day) {
		t.Fatal("Wednesday is not a weekend")
	}
	if c.WeekIndex(8*Day) != 1 {
		t.Fatalf("week index = %d", c.WeekIndex(8*Day))
	}
}

func TestCalendarNegativeTime(t *testing.T) {
	var c Calendar
	if d := c.DayOfWeek(-1 * Hour); d != 6 {
		t.Fatalf("day of week of -1h = %d, want 6 (Sunday)", d)
	}
	if c.WeekIndex(-1) != -1 {
		t.Fatalf("week index of -1s = %d", c.WeekIndex(-1))
	}
}

func TestManyEventsStress(t *testing.T) {
	e := NewEngine()
	r := rng.New(5)
	const n = 100000
	count := 0
	for i := 0; i < n; i++ {
		e.Schedule(r.Float64()*1e6, func() { count++ })
	}
	e.Run()
	if count != n {
		t.Fatalf("count = %d, want %d", count, n)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	r := rng.New(1)
	times := make([]float64, 10000)
	for i := range times {
		times[i] = r.Float64() * 1e6
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for _, ts := range times {
			e.Schedule(ts, func() {})
		}
		e.Run()
	}
}
