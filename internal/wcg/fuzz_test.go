package wcg

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/workunit"
)

// pickScheduler maps a fuzz byte to a scheduler policy (nil = default
// FIFO), covering every implementation including the seeded-random one.
func pickScheduler(b uint8, seed uint64) Scheduler {
	switch b % 5 {
	case 1:
		return FIFOScheduler{}
	case 2:
		return LIFOScheduler{}
	case 3:
		return RandomScheduler{Seed: seed + 1}
	case 4:
		return BatchPriorityScheduler{}
	}
	return nil
}

// pickValidator maps a fuzz byte to a validation policy (nil = default).
func pickValidator(b uint8) Validator {
	switch b % 3 {
	case 1:
		return QuorumValidator{}
	case 2:
		return AdaptiveValidator{Streak: int(b%5) + 1}
	}
	return nil
}

// pickDeadlinePolicy maps a fuzz byte to a deadline policy (nil = default
// single class at cfg.Deadline).
func pickDeadlinePolicy(b uint8) DeadlinePolicy {
	switch b % 3 {
	case 1:
		return UniformDeadline{}
	case 2:
		return DeadlineClasses{
			{MaxRefSeconds: 100, Deadline: 3 * sim.Day},
			{Deadline: 5 * sim.Day},
		}
	}
	return nil
}

// TestServerInvariantsUnderRandomTraffic drives the server with randomized
// agent behaviour (complete / error / vanish / late return, random delays,
// mid-run quorum switch) under a randomized scheduler × validator ×
// deadline-policy combination and asserts the accounting invariants hold
// in every reachable state.
func TestServerInvariantsUnderRandomTraffic(t *testing.T) {
	f := func(seed uint64, nWU8, schedPick, valPick, dlPick uint8, quorum2 bool) bool {
		r := rng.New(seed)
		engine := sim.NewEngine()
		initial := 1
		if quorum2 {
			initial = 2
		}
		srv := NewServer(engine, Config{
			InitialQuorum:    initial,
			SteadyQuorum:     1,
			QuorumSwitchTime: 30 * sim.Day,
			Deadline:         5 * sim.Day,
			Scheduler:        pickScheduler(schedPick, seed),
			Validator:        pickValidator(valPick),
			DeadlinePolicy:   pickDeadlinePolicy(dlPick),
		})
		nWU := int(nWU8%40) + 1
		for i := 0; i < nWU; i++ {
			ref := 60 + float64(i%2)*80 // straddles the two-class cut at 100
			srv.AddWorkunit(workunit.Workunit{ID: int64(i), ISepLo: 1, ISepHi: 2, RefSeconds: ref}, i%4)
		}
		// A pool of randomized agents served by one polling loop; the
		// agent slot doubles as the host identity so adaptive validation
		// sees stable hosts building streaks.
		agents := r.Intn(8) + 1
		var loop func()
		loop = func() {
			for k := 0; k < agents; k++ {
				a := srv.RequestWork()
				if a == nil {
					break
				}
				host := k
				switch r.Intn(10) {
				case 0: // vanish: deadline will fire
				case 1: // invalid result after a short delay
					delay := r.Float64() * 3 * sim.Day
					engine.ScheduleAfter(delay, func() { srv.CompleteFrom(a, OutcomeInvalid, delay, host) })
				case 2: // very late valid result (after the deadline)
					delay := 5*sim.Day + r.Float64()*10*sim.Day
					engine.ScheduleAfter(delay, func() { srv.CompleteFrom(a, OutcomeValid, delay, host) })
				default: // normal valid result
					delay := r.Float64() * 2 * sim.Day
					engine.ScheduleAfter(delay, func() { srv.CompleteFrom(a, OutcomeValid, delay, host) })
				}
			}
			engine.ScheduleAfter(6*sim.Hour, loop)
		}
		loop()
		engine.RunUntil(200 * sim.Day)

		st := srv.Stats
		// Invariants.
		if st.Completed != int64(nWU) {
			return false // everything must eventually complete
		}
		if st.Useful+st.Wasted+st.Invalid != st.Received {
			return false
		}
		if st.Valid > st.Received || st.Completed > st.Valid {
			return false
		}
		if st.Sent < st.Completed {
			return false
		}
		if st.RedundancyFactor() < 1 {
			return false
		}
		// No workunit may have negative outstanding copies, whichever
		// structure the scheduler keeps them in.
		bad := false
		srv.schedEach(func(wuState *WUState) {
			if wuState.outstanding < 0 {
				bad = true
			}
		})
		return !bad
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// --- Differential fuzzing: production server vs brute-force reference ---

// Non-commensurate deadlines: timeout events must never share a timestamp
// with the 6-hour polling grid or with the other class's timeouts, so the
// two implementations cannot diverge on same-time event ordering that the
// specification leaves open.
const (
	diffDL0     = 3*sim.Day + 1001.7
	diffDL1     = 7*sim.Day + 517.3
	diffCut     = 100.0
	diffHorizon = 250 * sim.Day
)

// trafficServer is the driver-facing surface shared by the production
// server and the reference implementation.
type trafficServer interface {
	add(wu workunit.Workunit, batch int)
	request() (handle any, ok bool)
	finish(handle any, oc Outcome, cpuSeconds float64, host int)
}

type realTraffic struct{ s *Server }

func (r realTraffic) add(wu workunit.Workunit, batch int) { r.s.AddWorkunit(wu, batch) }
func (r realTraffic) request() (any, bool) {
	if a := r.s.RequestWork(); a != nil {
		return a, true
	}
	return nil, false
}
func (r realTraffic) finish(h any, oc Outcome, cpu float64, host int) {
	r.s.CompleteFrom(h.(*Assignment), oc, cpu, host)
}

type refTraffic struct{ s *refServer }

func (r refTraffic) add(wu workunit.Workunit, batch int) { r.s.addWorkunit(wu, batch) }
func (r refTraffic) request() (any, bool) {
	if a := r.s.requestWork(); a != nil {
		return a, true
	}
	return nil, false
}
func (r refTraffic) finish(h any, oc Outcome, cpu float64, host int) {
	r.s.completeResult(h.(*refAssignment), oc, cpu, host)
}

// driveTraffic runs the scripted randomized workload against one server:
// a fixed agent pool polling every six hours, each granted copy drawn to
// complete, err, vanish, or return very late. The draw sequence depends
// only on the sequence of granted requests, so two semantically
// equivalent servers see bit-identical traffic.
func driveTraffic(engine *sim.Engine, ts trafficServer, seed uint64, nWU, agents int) {
	r := rng.New(seed)
	for i := 0; i < nWU; i++ {
		ref := 40 + r.Float64()*120 // straddles the class cut at diffCut
		ts.add(workunit.Workunit{ID: int64(i), ISepLo: 1, ISepHi: 2, RefSeconds: ref}, r.Intn(5))
	}
	var loop func()
	loop = func() {
		for k := 0; k < agents; k++ {
			h, ok := ts.request()
			if !ok {
				break
			}
			host := k
			switch r.Intn(12) {
			case 0: // vanish: the deadline fires
			case 1, 2: // invalid result
				d := r.Float64() * 2 * sim.Day
				engine.ScheduleAfter(d, func() { ts.finish(h, OutcomeInvalid, d, host) })
			case 3: // very late valid result (after every class deadline)
				d := 8*sim.Day + r.Float64()*8*sim.Day
				engine.ScheduleAfter(d, func() { ts.finish(h, OutcomeValid, d, host) })
			default: // normal valid result
				d := r.Float64() * 2 * sim.Day
				engine.ScheduleAfter(d, func() { ts.finish(h, OutcomeValid, d, host) })
			}
		}
		engine.ScheduleAfter(6*sim.Hour, loop)
	}
	loop()
	engine.RunUntil(diffHorizon)
}

// TestPolicyCombosMatchReference is the policy layer's differential safety
// net: every deterministic scheduler × validator × deadline-class
// combination must produce, under identical randomized traffic, exactly
// the Stats and queue depth of the brute-force reference server. (The
// seeded-random scheduler is excluded — its draw sequence is an
// implementation detail — and is covered by the invariant fuzz above.)
func TestPolicyCombosMatchReference(t *testing.T) {
	f := func(seed uint64, schedPick, nWU8 uint8, quorum2, adaptive, twoClass bool) bool {
		nWU := int(nWU8%30) + 5
		agents := int(seed%6) + 2
		initial := 1
		if quorum2 {
			initial = 2
		}
		threshold := int(seed%4) + 2
		switchTime := 30*sim.Day + 7777.7

		cfg := Config{
			InitialQuorum:    initial,
			SteadyQuorum:     1,
			QuorumSwitchTime: switchTime,
			Deadline:         diffDL0,
		}
		rcfg := refConfig{
			initialQuorum: initial,
			steadyQuorum:  1,
			switchTime:    switchTime,
			classCut:      nil,
			classDeadline: []float64{diffDL0},
			adaptive:      adaptive,
			threshold:     threshold,
		}
		switch schedPick % 3 {
		case 0:
			cfg.Scheduler, rcfg.sched = FIFOScheduler{}, refFIFO
		case 1:
			cfg.Scheduler, rcfg.sched = LIFOScheduler{}, refLIFO
		case 2:
			cfg.Scheduler, rcfg.sched = BatchPriorityScheduler{}, refBatch
		}
		if adaptive {
			cfg.Validator = AdaptiveValidator{Streak: threshold}
		}
		if twoClass {
			cfg.DeadlinePolicy = DeadlineClasses{
				{MaxRefSeconds: diffCut, Deadline: diffDL0},
				{Deadline: diffDL1},
			}
			rcfg.classCut = []float64{diffCut}
			rcfg.classDeadline = []float64{diffDL0, diffDL1}
		}

		realEngine := sim.NewEngine()
		real := NewServer(realEngine, cfg)
		driveTraffic(realEngine, realTraffic{real}, seed, nWU, agents)

		refEngine := sim.NewEngine()
		ref := newRefServer(refEngine, rcfg)
		driveTraffic(refEngine, refTraffic{ref}, seed, nWU, agents)

		if real.Stats != ref.stats {
			t.Logf("combo sched=%d q=%d adaptive=%v 2class=%v seed=%d:\nreal: %+v\nref:  %+v",
				schedPick%3, initial, adaptive, twoClass, seed, real.Stats, ref.stats)
			return false
		}
		if real.PendingCount() != ref.pendingCount() {
			t.Logf("pending mismatch: real %d, ref %d", real.PendingCount(), ref.pendingCount())
			return false
		}
		if real.Stats.Completed == 0 {
			t.Logf("degenerate run: nothing completed")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestServerDrainAfterQuorumDrop floods the server during the quorum-2 era
// and checks no workunit is orphaned by the switch (the regression the
// maybeComplete fix addresses).
func TestServerDrainAfterQuorumDrop(t *testing.T) {
	engine := sim.NewEngine()
	srv := NewServer(engine, Config{
		InitialQuorum:    2,
		SteadyQuorum:     1,
		QuorumSwitchTime: 10 * sim.Day,
		Deadline:         3 * sim.Day,
	})
	const n = 200
	for i := 0; i < n; i++ {
		srv.AddWorkunit(workunit.Workunit{ID: int64(i), ISepLo: 1, ISepHi: 1, RefSeconds: 1}, 0)
	}
	// Era 1: every workunit gets exactly one valid return; the second copy
	// vanishes (timeout).
	for {
		a := srv.RequestWork()
		if a == nil {
			break
		}
		if a.WU.validReturns == 0 && a.WU.outstanding == 1 {
			srv.Complete(a, OutcomeValid, 1)
		}
		// else: leave the copy to time out
	}
	// Cross the switch and let the timeouts + reissues play out.
	engine.RunUntil(60 * sim.Day)
	for {
		a := srv.RequestWork()
		if a == nil {
			break
		}
		srv.Complete(a, OutcomeValid, 1)
	}
	engine.RunUntil(120 * sim.Day)
	// One more pass: reissues scheduled by late timeouts.
	for {
		a := srv.RequestWork()
		if a == nil {
			break
		}
		srv.Complete(a, OutcomeValid, 1)
	}
	if srv.Stats.Completed != n {
		t.Fatalf("completed %d of %d after quorum drop", srv.Stats.Completed, n)
	}
}
