package wcg

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/slab"
	"repro/internal/workunit"
)

// stillLive reports whether index i of arena a holds a live object: the
// arena panics when asked to release a slot that is not live, so a release
// that returns means the server never released it. Used only once a run is
// over, on indices nothing reads again.
func stillLive[T any](a *slab.Arena[T], i int) (live bool) {
	defer func() { live = recover() == nil }()
	a.Release(i)
	return
}

// TestEveryObjectReleasedOnce drives the server under every scheduler,
// validator and deadline policy with agents that report each copy (valid
// on time, invalid, or valid after its deadline) or drop it, exactly once,
// across several arena chunks. A release of a slot that is not live panics
// inside the run, so no object is released twice; once every workunit is
// completed and every deadline has passed, no object may still be live.
func TestEveryObjectReleasedOnce(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			r := rng.New(seed)
			engine := sim.NewEngine()
			srv := NewServer(engine, Config{
				InitialQuorum:    2,
				SteadyQuorum:     1,
				QuorumSwitchTime: 20 * sim.Day,
				Deadline:         5 * sim.Day,
				Scheduler:        pickScheduler(uint8(seed), seed),
				Validator:        pickValidator(uint8(seed)),
				DeadlinePolicy:   pickDeadlinePolicy(uint8(seed)),
			})
			const nWU = 3 * slab.Chunk
			for i := 0; i < nWU; i++ {
				srv.AddWorkunit(workunit.Workunit{RefSeconds: 60 + float64(i%2)*80}, i%7)
			}
			var loop func()
			loop = func() {
				for host := 0; host < 60; host++ {
					a := srv.RequestWorkFor(host)
					if a == nil {
						break
					}
					h := host
					switch r.Intn(10) {
					case 0: // abandoned, never returned
						srv.Drop(a)
					case 1:
						delay := r.Float64() * 3 * sim.Day
						engine.ScheduleAfter(delay, func() { srv.CompleteFrom(a, OutcomeInvalid, delay, h) })
					case 2: // returned after its deadline
						delay := 5*sim.Day + r.Float64()*10*sim.Day
						engine.ScheduleAfter(delay, func() { srv.CompleteFrom(a, OutcomeValid, delay, h) })
					default:
						delay := r.Float64() * 2 * sim.Day
						engine.ScheduleAfter(delay, func() { srv.CompleteFrom(a, OutcomeValid, delay, h) })
					}
				}
				if srv.Stats.Completed < nWU {
					engine.ScheduleAfter(6*sim.Hour, loop)
				}
			}
			loop()
			engine.RunUntil(400 * sim.Day)
			if srv.Stats.Completed != nWU || engine.Pending() != 0 || srv.RequestWork() != nil {
				t.Fatalf("run not over: %d of %d completed, %d events pending", srv.Stats.Completed, nWU, engine.Pending())
			}
			if srv.Stats.Sent < 2*slab.Chunk || srv.Stats.LateReturns == 0 || srv.Stats.Invalid == 0 {
				t.Fatalf("traffic too thin to cover recycling: %+v", srv.Stats)
			}
			for i := 0; i < nWU; i++ {
				if stillLive(&srv.wuArena, i) {
					t.Fatalf("workunit %d never released", i)
				}
			}
			for i := 0; i < int(srv.Stats.Sent); i++ {
				if stillLive(&srv.asArena, i) {
					t.Fatalf("copy %d never released", i)
				}
			}
		})
	}
}

// TestSecondLetGoPanics: a holder lets go of a copy once, by reporting or
// dropping it; a second report or drop panics with a wcg: message before
// any counter moves.
func TestSecondLetGoPanics(t *testing.T) {
	_, srv := newTestServer(q1Config())
	for i := int64(0); i < 4; i++ {
		srv.AddWorkunit(wu(i, 100), 0)
	}
	reported, dropped := srv.RequestWork(), srv.RequestWork()
	srv.Complete(reported, OutcomeValid, 100)
	srv.Drop(dropped)
	for _, c := range []struct {
		name string
		call func()
	}{
		{"report after report", func() { srv.Complete(reported, OutcomeValid, 100) }},
		{"drop after report", func() { srv.Drop(reported) }},
		{"drop after drop", func() { srv.Drop(dropped) }},
		{"report after drop", func() { srv.Complete(dropped, OutcomeValid, 100) }},
	} {
		before := srv.Stats
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "wcg: ") {
					t.Errorf("%s: panic %q, want a wcg: message", c.name, msg)
				}
			}()
			c.call()
		}()
		if srv.Stats != before {
			t.Errorf("%s moved the counters: %+v, was %+v", c.name, srv.Stats, before)
		}
	}
}
