package wcg

// Unit tests for the policy layer: dispatch order per scheduler, adaptive
// trust mechanics, deadline classes on their own wheels, and the Reset
// contract across policy switches.

import (
	"testing"

	"repro/internal/sim"
)

func withScheduler(sched Scheduler) Config {
	cfg := q1Config()
	cfg.Scheduler = sched
	return cfg
}

// issueOrder adds n workunits and records the order their IDs go out in.
func issueOrder(t *testing.T, cfg Config, n int) []int64 {
	t.Helper()
	_, srv := newTestServer(cfg)
	ids := make(map[*WUState]int64)
	for i := 0; i < n; i++ {
		ids[srv.AddWorkunit(wu(int64(i), 100), i)] = int64(i)
	}
	var order []int64
	for {
		a := srv.RequestWork()
		if a == nil {
			break
		}
		order = append(order, ids[a.WU])
		srv.Complete(a, OutcomeValid, 1)
	}
	if len(order) != n {
		t.Fatalf("issued %d of %d", len(order), n)
	}
	return order
}

func TestSchedulerDispatchOrder(t *testing.T) {
	const n = 6
	fifo := issueOrder(t, withScheduler(FIFOScheduler{}), n)
	lifo := issueOrder(t, withScheduler(LIFOScheduler{}), n)
	def := issueOrder(t, Config{InitialQuorum: 1, SteadyQuorum: 1, Deadline: 10 * sim.Day}, n)
	for i := 0; i < n; i++ {
		if fifo[i] != int64(i) {
			t.Fatalf("FIFO order: %v", fifo)
		}
		if lifo[i] != int64(n-1-i) {
			t.Fatalf("LIFO order: %v", lifo)
		}
		if def[i] != fifo[i] {
			t.Fatalf("nil scheduler is not FIFO: %v", def)
		}
	}
}

func TestRandomSchedulerDeterministicInSeed(t *testing.T) {
	a := issueOrder(t, withScheduler(RandomScheduler{Seed: 7}), 20)
	b := issueOrder(t, withScheduler(RandomScheduler{Seed: 7}), 20)
	c := issueOrder(t, withScheduler(RandomScheduler{Seed: 8}), 20)
	same, diff := true, false
	for i := range a {
		same = same && a[i] == b[i]
		diff = diff || a[i] != c[i]
	}
	if !same {
		t.Fatalf("same seed, different order:\n%v\n%v", a, b)
	}
	if !diff {
		t.Fatalf("different seeds, identical order: %v", a)
	}
}

// TestBatchPrioritySeniority: a senior batch's reissue preempts junior
// batches even after the senior bucket drained once.
func TestBatchPrioritySeniority(t *testing.T) {
	engine, srv := newTestServer(withScheduler(BatchPriorityScheduler{}))
	// Batch 7 enqueued first → senior, whatever its numeric id.
	// The calls run in source order (left to right in the literal).
	ids := map[*WUState]int64{
		srv.AddWorkunit(wu(70, 100), 7): 70,
		srv.AddWorkunit(wu(0, 100), 0):  0,
		srv.AddWorkunit(wu(1, 100), 0):  1,
	}

	a := srv.RequestWork()
	if ids[a.WU] != 70 {
		t.Fatalf("first issue = %d, want the senior batch's 70", ids[a.WU])
	}
	// The senior copy vanishes; its timeout re-enqueues it behind the
	// junior batch's fresh workunits — seniority must still win.
	b := srv.RequestWork()
	if ids[b.WU] != 0 {
		t.Fatalf("second issue = %d, want 0", ids[b.WU])
	}
	engine.RunUntil(srv.Deadline() + sim.Hour)
	if srv.Stats.TimedOut != 2 {
		t.Fatalf("timeouts = %d, want 2", srv.Stats.TimedOut)
	}
	c := srv.RequestWork()
	if ids[c.WU] != 70 {
		t.Fatalf("post-timeout issue = %d, want the reissued senior 70", ids[c.WU])
	}
}

// TestAdaptiveTrustCompletesAlone: under quorum 2, a host that has banked
// Streak valid results validates workunits alone; an invalid result
// forfeits the trust.
func TestAdaptiveTrustCompletesAlone(t *testing.T) {
	cfg := Config{
		InitialQuorum: 2, SteadyQuorum: 2, Deadline: 10 * sim.Day,
		Validator: AdaptiveValidator{Streak: 3},
	}
	_, srv := newTestServer(cfg)
	const host = 5
	// Exactly the workunits the script consumes, so the invalid result's
	// re-enqueue lands at the queue head.
	for i := 0; i < 5; i++ {
		srv.AddWorkunit(wu(int64(i), 100), 0)
	}
	// Build the streak: three workunits completed the hard way, two valid
	// results each (host + a partner host).
	for i := 0; i < 3; i++ {
		a, b := srv.RequestWork(), srv.RequestWork()
		if a.WU != b.WU {
			t.Fatal("quorum 2 should issue two copies of the same workunit")
		}
		srv.CompleteFrom(a, OutcomeValid, 1, host)
		srv.CompleteFrom(b, OutcomeValid, 1, 99)
	}
	if srv.Stats.Completed != 3 {
		t.Fatalf("completed %d while building trust", srv.Stats.Completed)
	}
	// Trusted now: one copy from the host completes the workunit even
	// though the quorum-2 partner copy is still out.
	a, b := srv.RequestWork(), srv.RequestWork()
	srv.CompleteFrom(a, OutcomeValid, 1, host)
	if srv.Stats.Completed != 4 {
		t.Fatalf("trusted host's result did not validate alone: %+v", srv.Stats)
	}
	srv.CompleteFrom(b, OutcomeValid, 1, 99) // partner comes back: wasted
	if srv.Stats.Wasted != 1 {
		t.Fatalf("redundant partner copy not wasted: %+v", srv.Stats)
	}
	// An invalid result forfeits the streak: the next valid result no
	// longer completes alone.
	c, d := srv.RequestWork(), srv.RequestWork()
	srv.CompleteFrom(c, OutcomeInvalid, 1, host)
	e := srv.RequestWork() // replacement copy for the invalid result
	if e == nil || e.WU != c.WU {
		t.Fatal("invalid result should re-enqueue its workunit first")
	}
	srv.CompleteFrom(e, OutcomeValid, 1, host)
	if srv.Stats.Completed != 4 {
		t.Fatalf("untrusted host completed alone after forfeiting: %+v", srv.Stats)
	}
	_ = d
}

// TestAnonymousResultsNeverTrusted: results reported without a host
// identity must not build or use streaks.
func TestAnonymousResultsNeverTrusted(t *testing.T) {
	cfg := Config{
		InitialQuorum: 2, SteadyQuorum: 2, Deadline: 10 * sim.Day,
		Validator: AdaptiveValidator{Streak: 1},
	}
	_, srv := newTestServer(cfg)
	for i := 0; i < 8; i++ {
		srv.AddWorkunit(wu(int64(i), 100), 0)
	}
	for i := 0; i < 4; i++ {
		a, b := srv.RequestWork(), srv.RequestWork()
		srv.Complete(a, OutcomeValid, 1) // anonymous
		if a.WU.Completed && b.WU == a.WU && srv.Stats.Completed > int64(i) && !b.returned {
			t.Fatalf("anonymous result completed a quorum-2 workunit alone at %d", i)
		}
		srv.Complete(b, OutcomeValid, 1)
	}
	if srv.Stats.Completed != 4 {
		t.Fatalf("completed = %d, want 4", srv.Stats.Completed)
	}
}

// TestDeadlineClassesExactTimeouts: each class's wheel fires at exactly
// IssuedAt + its own deadline.
func TestDeadlineClassesExactTimeouts(t *testing.T) {
	short, long := 4*sim.Day, 9*sim.Day
	cfg := q1Config()
	cfg.DeadlinePolicy = DeadlineClasses{
		{MaxRefSeconds: 150, Deadline: short},
		{Deadline: long},
	}
	_, srv := newTestServer(cfg)
	engine := srv.engine
	srv.AddWorkunit(wu(1, 100), 0) // short class
	srv.AddWorkunit(wu(2, 500), 0) // long class
	a := srv.RequestWork()
	b := srv.RequestWork()
	if got := srv.DeadlineFor(a); got != short {
		t.Fatalf("short-class deadline = %v, want %v", got, short)
	}
	if got := srv.DeadlineFor(b); got != long {
		t.Fatalf("long-class deadline = %v, want %v", got, long)
	}
	engine.RunUntil(short - 1e-9)
	if srv.Stats.TimedOut != 0 {
		t.Fatal("short class fired early")
	}
	engine.RunUntil(short)
	if srv.Stats.TimedOut != 1 {
		t.Fatalf("short class did not fire at its deadline: %+v", srv.Stats)
	}
	engine.RunUntil(long - 1e-9)
	if srv.Stats.TimedOut != 1 {
		t.Fatal("long class fired early")
	}
	engine.RunUntil(long)
	if srv.Stats.TimedOut != 2 {
		t.Fatalf("long class did not fire at its deadline: %+v", srv.Stats)
	}
}

// TestResetAcrossPolicySwitches: a server run under non-default policies,
// Reset to defaults, must be indistinguishable from a fresh default
// server — and vice versa.
func TestResetAcrossPolicySwitches(t *testing.T) {
	policyCfg := DefaultConfig()
	policyCfg.Scheduler = BatchPriorityScheduler{}
	policyCfg.Validator = AdaptiveValidator{Streak: 2}
	policyCfg.DeadlinePolicy = DeadlineClasses{
		{MaxRefSeconds: 150, Deadline: 3 * sim.Day},
		{Deadline: 8 * sim.Day},
	}

	freshEngine := sim.NewEngine()
	want := driveServer(t, freshEngine, NewServer(freshEngine, DefaultConfig()))
	freshEngine2 := sim.NewEngine()
	wantPolicy := driveServer(t, freshEngine2, NewServer(freshEngine2, policyCfg))

	engine := sim.NewEngine()
	s := NewServer(engine, policyCfg)
	driveServer(t, engine, s) // dirty buckets, wheels and trust table
	engine.Reset()
	s.Reset(DefaultConfig())
	if got := driveServer(t, engine, s); got != want {
		t.Fatalf("policy→default reset diverged:\nfresh:  %+v\nreused: %+v", want, got)
	}
	engine.Reset()
	s.Reset(policyCfg)
	if got := driveServer(t, engine, s); got != wantPolicy {
		t.Fatalf("default→policy reset diverged:\nfresh:  %+v\nreused: %+v", wantPolicy, got)
	}
}

func TestPolicyValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	engine := sim.NewEngine()
	mustPanic("zero adaptive streak", func() {
		NewServer(engine, Config{InitialQuorum: 1, SteadyQuorum: 1, Deadline: 1,
			Validator: AdaptiveValidator{}})
	})
	mustPanic("empty deadline classes", func() {
		NewServer(engine, Config{InitialQuorum: 1, SteadyQuorum: 1, Deadline: 1,
			DeadlinePolicy: DeadlineClasses{}})
	})
	mustPanic("non-positive class deadline", func() {
		NewServer(engine, Config{InitialQuorum: 1, SteadyQuorum: 1, Deadline: 1,
			DeadlinePolicy: DeadlineClasses{{MaxRefSeconds: 10, Deadline: 0}, {Deadline: 1}}})
	})
	mustPanic("non-increasing class bounds", func() {
		NewServer(engine, Config{InitialQuorum: 1, SteadyQuorum: 1, Deadline: 1,
			DeadlinePolicy: DeadlineClasses{
				{MaxRefSeconds: 10, Deadline: 1},
				{MaxRefSeconds: 10, Deadline: 1},
				{Deadline: 1},
			}})
	})
}

// TestPolicyNames pins the diagnostic names scenario tables print.
func TestPolicyNames(t *testing.T) {
	for want, got := range map[string]string{
		"fifo":           FIFOScheduler{}.String(),
		"lifo":           LIFOScheduler{}.String(),
		"random":         RandomScheduler{}.String(),
		"batch-priority": BatchPriorityScheduler{}.String(),
		"quorum-switch":  QuorumValidator{}.String(),
		"adaptive-10":    AdaptiveValidator{Streak: 10}.String(),
		"uniform":        UniformDeadline{}.String(),
		"classes-2":      DeadlineClasses{{MaxRefSeconds: 1, Deadline: 1}, {Deadline: 1}}.String(),
	} {
		if want != got {
			t.Fatalf("policy name %q, want %q", got, want)
		}
	}
}

// TestWorkunitsOutliveQuorumSwitchUnderPolicies: the quorum-drop recount
// must stay exact for bucketed and stack schedulers too.
func TestQuorumRecountPerScheduler(t *testing.T) {
	for _, sched := range []Scheduler{FIFOScheduler{}, LIFOScheduler{}, RandomScheduler{Seed: 3}, BatchPriorityScheduler{}} {
		cfg := Config{
			InitialQuorum: 2, SteadyQuorum: 1,
			QuorumSwitchTime: 10 * sim.Day, Deadline: 30 * sim.Day,
			Scheduler: sched,
		}
		engine, srv := newTestServer(cfg)
		const n = 20
		ids := make(map[*WUState]int64)
		for i := 0; i < n; i++ {
			ids[srv.AddWorkunit(wu(int64(i), 100), i%3)] = int64(i)
		}
		// One valid return each; the partner copies stay out.
		seen := make(map[int64]bool)
		for {
			a := srv.RequestWork()
			if a == nil {
				break
			}
			if id := ids[a.WU]; !seen[id] {
				seen[id] = true
				srv.Complete(a, OutcomeValid, 1)
			}
		}
		if srv.Stats.Completed != 0 {
			t.Fatalf("%v: completed under quorum 2 with one return", sched)
		}
		// Past the switch no further copy goes out, and once the partner
		// copies time out the banked returns complete everything under
		// the dropped quorum — whatever structure the scheduler uses.
		engine.RunUntil(11 * sim.Day)
		if srv.RequestWork() != nil {
			t.Fatalf("%v: copy issued after quorum drop", sched)
		}
		engine.RunUntil(31 * sim.Day) // past the partner copies' deadline
		if srv.Stats.Completed != n {
			t.Fatalf("%v: completed %d of %d after quorum drop, stats %+v", sched, srv.Stats.Completed, n, srv.Stats)
		}
		if srv.PendingCount() != 0 || srv.HasWork() {
			t.Fatalf("%v: counters stale after drop: pending=%d hasWork=%v",
				sched, srv.PendingCount(), srv.HasWork())
		}
	}
}
