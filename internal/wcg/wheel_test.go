package wcg

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
)

// Tests for the deadline wheel and the O(1) counters: exact timeout
// timestamps, issue-order draining, lazily discarded returned copies, the
// mid-flight quorum switch completing workunits without further copies,
// and counter exactness against brute-force scans.

func TestDeadlineWheelExactTimestamp(t *testing.T) {
	engine, srv := newTestServer(q1Config())
	srv.AddWorkunit(wu(1, 100), 0)
	var a *Assignment
	engine.Schedule(7, func() { a = srv.RequestWork() })
	due := 7 + srv.Deadline()
	engine.RunUntil(due - 1e-9)
	if srv.Stats.TimedOut != 0 {
		t.Fatal("timed out before the deadline")
	}
	engine.RunUntil(due)
	if srv.Stats.TimedOut != 1 {
		t.Fatalf("timeout did not fire at exactly IssuedAt+Deadline: %+v", srv.Stats)
	}
	_ = a
}

func TestDeadlineWheelIssueOrder(t *testing.T) {
	engine, srv := newTestServer(q1Config())
	for i := int64(0); i < 3; i++ {
		srv.AddWorkunit(wu(i, 100), 0)
	}
	var issued []sim.Time
	for i := 0; i < 3; i++ {
		i := i
		engine.Schedule(float64(i)*sim.Hour, func() {
			a := srv.RequestWork()
			if a == nil {
				t.Errorf("no work at issue %d", i)
				return
			}
			issued = append(issued, engine.Now())
		})
	}
	var timeoutsAt []sim.Time
	prev := int64(0)
	engine.Every(0, sim.Minute, sim.Call{}, func(now sim.Time) {
		if srv.Stats.TimedOut > prev {
			for ; prev < srv.Stats.TimedOut; prev++ {
				timeoutsAt = append(timeoutsAt, now)
			}
		}
		if now > 20*sim.Day {
			t.Fatal("runaway")
		}
	})
	engine.RunUntil(12 * sim.Day)
	if len(timeoutsAt) != 3 {
		t.Fatalf("timeouts = %d, want 3", len(timeoutsAt))
	}
	for i, ts := range timeoutsAt {
		// The minute-resolution sampler sees each timeout within one tick
		// of its exact due time, in issue order.
		due := issued[i] + srv.Deadline()
		if ts < due || ts > due+sim.Minute {
			t.Fatalf("timeout %d observed at %v, due %v", i, ts, due)
		}
	}
}

func TestDeadlineWheelReturnedCopiesDiscarded(t *testing.T) {
	engine, srv := newTestServer(q1Config())
	const n = 50
	for i := int64(0); i < n; i++ {
		srv.AddWorkunit(wu(i, 100), 0)
	}
	for i := 0; i < n; i++ {
		a := srv.RequestWork()
		if a == nil {
			t.Fatalf("no work at %d", i)
		}
		srv.Complete(a, OutcomeValid, 10)
	}
	engine.RunUntil(30 * sim.Day)
	if srv.Stats.TimedOut != 0 {
		t.Fatalf("returned copies timed out: %+v", srv.Stats)
	}
	if w := &srv.wheels[0]; w.dlHead != len(w.dlq) {
		t.Fatalf("ring not drained: head %d of %d", w.dlHead, len(w.dlq))
	}
}

// TestQuorumLoweredMidFlightCompletes is the §5.1 switch corner: a workunit
// holding one valid return under quorum 2 completes via maybeComplete when
// the quorum drops to 1 — without a further copy being issued.
func TestQuorumLoweredMidFlightCompletes(t *testing.T) {
	cfg := Config{InitialQuorum: 2, SteadyQuorum: 1, QuorumSwitchTime: 20 * sim.Day, Deadline: 5 * sim.Day}
	engine, srv := newTestServer(cfg)
	srv.AddWorkunit(wu(1, 100), 0)
	a1 := srv.RequestWork()
	a2 := srv.RequestWork()
	if a1 == nil || a2 == nil {
		t.Fatal("quorum 2 should issue two copies")
	}
	srv.Complete(a1, OutcomeValid, 10) // one valid return; quorum 2 not met
	if srv.Stats.Completed != 0 {
		t.Fatal("completed under quorum 2 with one return")
	}
	// The second copy is abandoned: its timeout re-enqueues the workunit.
	engine.RunUntil(6 * sim.Day)
	if srv.Stats.TimedOut != 1 {
		t.Fatalf("timeouts = %d", srv.Stats.TimedOut)
	}
	if !srv.HasWork() {
		t.Fatal("workunit should need a copy before the switch")
	}
	// Past the switch the stored valid return suffices: the next work
	// request completes the workunit instead of handing out a copy.
	engine.RunUntil(21 * sim.Day)
	if srv.RequestWork() != nil {
		t.Fatal("no copy should be issued after the quorum drop")
	}
	if srv.Stats.Completed != 1 {
		t.Fatalf("quorum drop did not complete the workunit: %+v", srv.Stats)
	}
	if srv.Stats.Sent != 2 {
		t.Fatalf("sent = %d, want 2", srv.Stats.Sent)
	}
	if srv.HasWork() || srv.PendingCount() != 0 {
		t.Fatalf("counters stale after switch: HasWork=%v pending=%d", srv.HasWork(), srv.PendingCount())
	}
}

// TestTimeoutLateValidWasted: a copy times out, the replacement validates
// the workunit, and the original's late valid return is counted as Wasted
// with its CPU accounted — the §5.1 late-return path on the wheel.
func TestTimeoutLateValidWasted(t *testing.T) {
	engine, srv := newTestServer(q1Config())
	srv.AddWorkunit(wu(1, 100), 0)
	a := srv.RequestWork()
	engine.RunUntil(srv.Deadline() + sim.Day)
	if srv.Stats.TimedOut != 1 {
		t.Fatalf("timeouts = %d", srv.Stats.TimedOut)
	}
	b := srv.RequestWork()
	if b == nil {
		t.Fatal("no replacement after timeout")
	}
	srv.Complete(b, OutcomeValid, 100)
	srv.Complete(a, OutcomeValid, 900) // late return of the timed-out copy
	if srv.Stats.Wasted != 1 || srv.Stats.Completed != 1 {
		t.Fatalf("late valid return not wasted: %+v", srv.Stats)
	}
	if srv.Stats.WastedSeconds != 900 {
		t.Fatalf("late CPU not accounted as wasted: %v", srv.Stats.WastedSeconds)
	}
}

// TestInvalidReenqueueCounters: an invalid result re-enqueues the workunit
// and the O(1) counters stay exact through the round trip.
func TestInvalidReenqueueCounters(t *testing.T) {
	_, srv := newTestServer(q1Config())
	srv.AddWorkunit(wu(1, 100), 0)
	if srv.PendingCount() != 1 || !srv.HasWork() {
		t.Fatal("fresh workunit not pending")
	}
	a := srv.RequestWork()
	if srv.PendingCount() != 0 || srv.HasWork() {
		t.Fatal("issued workunit still pending")
	}
	srv.Complete(a, OutcomeInvalid, 50)
	if srv.PendingCount() != 1 || !srv.HasWork() {
		t.Fatal("invalid result did not re-enqueue")
	}
	b := srv.RequestWork()
	srv.Complete(b, OutcomeValid, 100)
	if srv.PendingCount() != 0 || srv.HasWork() {
		t.Fatal("counters nonzero after completion")
	}
	if srv.Stats.Completed != 1 || srv.Stats.Invalid != 1 {
		t.Fatalf("stats: %+v", srv.Stats)
	}
}

// TestDrainReentrantRequestWorkSingleChain: an OnComplete hook that calls
// RequestWork from inside a deadline drain arms the wheel reentrantly; the
// drain's tail must not fork a second permanent drain chain.
func TestDrainReentrantRequestWorkSingleChain(t *testing.T) {
	cfg := Config{InitialQuorum: 2, SteadyQuorum: 1, QuorumSwitchTime: 3 * sim.Day, Deadline: 5 * sim.Day}
	engine, srv := newTestServer(cfg)
	srv.AddWorkunit(wu(1, 100), 0)
	srv.AddWorkunit(wu(2, 100), 0)
	srv.OnComplete = func(*WUState) { srv.RequestWork() }
	a1 := srv.RequestWork() // WU1 copy 1
	a2 := srv.RequestWork() // WU1 copy 2
	if a1 == nil || a2 == nil || a1.WU != a2.WU {
		t.Fatal("expected two copies of WU1 under quorum 2")
	}
	srv.Complete(a1, OutcomeValid, 10) // one return banked; a2 stays out
	// At a2's deadline the drain lowers outstanding, the quorum (now 1)
	// completes WU1, and the hook's RequestWork hands out WU2 — arming the
	// wheel from inside the drain.
	engine.RunUntil(5 * sim.Day)
	if srv.Stats.Completed != 1 || srv.Stats.TimedOut != 1 {
		t.Fatalf("drain-time completion missing: %+v", srv.Stats)
	}
	if !srv.wheels[0].armed {
		t.Fatal("wheel disarmed with a copy outstanding")
	}
	// Exactly one drain event may be live: a forked chain would show up as
	// a second pending engine event.
	if engine.Counters().Pending != 1 {
		t.Fatalf("pending events = %d, want 1 (single drain chain)", engine.Counters().Pending)
	}
}

// brute-force reference for the counters.
func scanCounts(s *Server) (pending, needy int) {
	for i := s.qHead; i < len(s.queue); i++ {
		st := s.queue[i]
		if st == nil || st.Completed {
			continue
		}
		pending++
		if int(st.validReturns+st.outstanding) < s.quorum() {
			needy++
		}
	}
	return
}

func TestCountersMatchBruteForce(t *testing.T) {
	cfg := Config{InitialQuorum: 2, SteadyQuorum: 1, QuorumSwitchTime: 40 * sim.Day, Deadline: 6 * sim.Day}
	engine, srv := newTestServer(cfg)
	r := rng.New(123)
	var out []*Assignment
	nextID := int64(0)
	for step := 0; step < 4000; step++ {
		switch {
		case r.Bernoulli(0.3):
			srv.AddWorkunit(wu(nextID, 10), 0)
			nextID++
		case r.Bernoulli(0.5):
			if a := srv.RequestWork(); a != nil {
				out = append(out, a)
			}
		case len(out) > 0:
			i := int(r.Uint64() % uint64(len(out)))
			a := out[i]
			out = append(out[:i], out[i+1:]...)
			oc := OutcomeValid
			if r.Bernoulli(0.2) {
				oc = OutcomeInvalid
			}
			srv.Complete(a, oc, 1)
		}
		if r.Bernoulli(0.05) {
			engine.RunUntil(engine.Now() + sim.Day) // let deadlines fire
		}
		wantPending, wantNeedy := scanCounts(srv)
		if got := srv.PendingCount(); got != wantPending {
			t.Fatalf("step %d: PendingCount %d, scan %d", step, got, wantPending)
		}
		if got := srv.HasWork(); got != (wantNeedy > 0) {
			t.Fatalf("step %d: HasWork %v, scan needy %d", step, got, wantNeedy)
		}
	}
}
