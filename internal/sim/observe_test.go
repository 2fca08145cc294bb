package sim

import "testing"

// TestObserveEveryInvisible is the observer-lane contract: a sampling
// ticker rides the event heap but must not move Pending, MaxPending or
// Executed — the counters a probed simulation reports byte-identically to
// an unprobed one.
func TestObserveEveryInvisible(t *testing.T) {
	run := func(observe bool) (ticks int, executed uint64, maxPending int) {
		e := NewEngine()
		for i := 0; i < 5; i++ {
			d := float64(i + 1)
			e.ScheduleAfter(d, func() {})
		}
		var obs *Ticker
		if observe {
			obs = e.ObserveEvery(0, 0.5, func(Time) { ticks++ })
		}
		e.RunUntil(10)
		if obs != nil {
			obs.Stop()
		}
		n := e.Counters()
		return ticks, n.Executed, n.MaxPending
	}

	_, plainExec, plainMax := run(false)
	ticks, obsExec, obsMax := run(true)
	if ticks < 20 {
		t.Fatalf("observer ticked %d times, want ≥ 20", ticks)
	}
	if obsExec != plainExec {
		t.Errorf("Executed with observer = %d, without = %d (observer leaked into the count)", obsExec, plainExec)
	}
	if obsMax != plainMax {
		t.Errorf("MaxPending with observer = %d, without = %d", obsMax, plainMax)
	}
}

// TestObserveEveryPending asserts the live count never includes the
// observer event, even while it is the only thing scheduled.
func TestObserveEveryPending(t *testing.T) {
	e := NewEngine()
	tick := e.ObserveEvery(0, 1, func(Time) {})
	if e.Counters().Pending != 0 {
		t.Fatalf("Pending = %d with only an observer scheduled, want 0", e.Counters().Pending)
	}
	e.RunUntil(5)
	if e.Counters().Pending != 0 {
		t.Errorf("Pending = %d after observer ticks, want 0", e.Counters().Pending)
	}
	if e.Counters().Executed != 0 {
		t.Errorf("Executed = %d, observer ticks must not count", e.Counters().Executed)
	}
	tick.Stop()
	if e.Counters().Pending != 0 {
		t.Errorf("Pending = %d after Stop, want 0 (cancel decremented for an observer)", e.Counters().Pending)
	}
}

// TestObserveEveryOrdering verifies observers see a consistent clock: each
// callback fires at its scheduled sim time interleaved with model events.
func TestObserveEveryOrdering(t *testing.T) {
	e := NewEngine()
	var log []Time
	e.ObserveEvery(0, 2, func(now Time) { log = append(log, now) })
	e.ScheduleAfter(3, func() { log = append(log, -3) })
	e.RunUntil(6)
	want := []Time{0, 2, -3, 4, 6}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log[%d] = %v, want %v (full: %v)", i, log[i], want[i], log)
		}
	}
}
