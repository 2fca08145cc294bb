package volunteer

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/wcg"
)

// popStats runs a fleet of n hosts under the given profiles against a
// generously stocked quorum-1 server and returns the server stats.
func popStats(t *testing.T, profiles []BehaviorProfile, n int, until sim.Time) wcg.Stats {
	t.Helper()
	engine := sim.NewEngine()
	srv := makeServer(t, engine, 4000, 3600)
	cfg := DefaultHostConfig()
	cfg.Profiles = profiles
	k := newKernel(engine, srv, cfg, 99)
	k.SetTarget(n)
	k.RunUntil(until)
	return srv.Stats
}

// TestSaboteurCohortMonotonic: growing the saboteur cohort drives
// Stats.Invalid up and the useful fraction down, monotonically.
func TestSaboteurCohortMonotonic(t *testing.T) {
	fracs := []float64{0, 0.05, 0.2, 0.5}
	var invalid []int64
	var useful []float64
	for _, f := range fracs {
		st := popStats(t, SaboteurProfiles(f, DefaultHostConfig().ErrorProb, 0.25), 60, 8*sim.Week)
		if st.Received == 0 {
			t.Fatalf("frac %v: no results", f)
		}
		invalid = append(invalid, st.Invalid)
		useful = append(useful, st.UsefulFraction())
	}
	for i := 1; i < len(fracs); i++ {
		if invalid[i] <= invalid[i-1] {
			t.Fatalf("Invalid not increasing with cohort size: %v → %v", fracs, invalid)
		}
		if useful[i] >= useful[i-1] {
			t.Fatalf("UsefulFraction not decreasing with cohort size: %v → %v", fracs, useful)
		}
	}
}

// TestSaboteurTurnsPermanently: once a saboteur host's error draw fires,
// every further result it reports is invalid — including late returns of
// abandoned tasks, which must not hand the host valid results to rebuild
// validation trust with. This is the correlation adaptive replication is
// designed to catch.
func TestSaboteurTurnsPermanently(t *testing.T) {
	engine := sim.NewEngine()
	srv := makeServer(t, engine, 500, 3600)
	cfg := DefaultHostConfig()
	cfg.LateReturnProb = 1 // every abandoned task comes back late
	cfg.Profiles = []BehaviorProfile{
		{Name: "saboteur", Weight: 1, ErrorProb: 0.3, AbandonProb: 0.2, Saboteur: true},
	}
	k := newKernel(engine, srv, cfg, 12)
	k.SetTarget(1)
	turned := func() bool { return k.flags[0]&hfTurned != 0 }
	// Run until the host has turned, then measure: every subsequent
	// result must be invalid.
	for engine.Now() < 52*sim.Week && !turned() {
		k.RunUntil(engine.Now() + sim.Day)
	}
	if !turned() {
		t.Fatal("saboteur never turned at ErrorProb 0.3")
	}
	validAtTurn, invalidAtTurn := srv.Stats.Valid, srv.Stats.Invalid
	k.RunUntil(engine.Now() + 8*sim.Week)
	if srv.Stats.Valid != validAtTurn {
		t.Fatalf("turned saboteur returned %d further valid results", srv.Stats.Valid-validAtTurn)
	}
	if srv.Stats.Invalid <= invalidAtTurn {
		t.Fatal("turned saboteur stopped reporting results")
	}
}

// TestProfileWeightsRespected: cohort shares converge to the normalized
// weights.
func TestProfileWeightsRespected(t *testing.T) {
	engine := sim.NewEngine()
	srv := makeServer(t, engine, 10, 3600)
	cfg := DefaultHostConfig()
	cfg.Profiles = []BehaviorProfile{
		{Name: "a", Weight: 3, ErrorProb: 0.01, AbandonProb: -1},
		{Name: "b", Weight: 1, ErrorProb: 0.10, AbandonProb: -1},
	}
	k := newKernel(engine, srv, cfg, 5)
	const n = 8000
	k.SetTarget(n)
	// The kernel stores resolved behaviour, not the cohort index: the
	// cohorts' distinct error rates identify them.
	counts := [2]int{}
	for _, p := range k.errorProb {
		if p == cfg.Profiles[0].ErrorProb {
			counts[0]++
		} else {
			counts[1]++
		}
	}
	share := float64(counts[0]) / n
	if math.Abs(share-0.75) > 0.02 {
		t.Fatalf("cohort a share %v, want ≈ 0.75 (counts %v)", share, counts)
	}
}

func TestProfileValidation(t *testing.T) {
	engine := sim.NewEngine()
	srv := makeServer(t, engine, 1, 1)
	cfg := DefaultHostConfig()
	cfg.Profiles = []BehaviorProfile{{Name: "void", Weight: 0}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero total weight")
		}
	}()
	newKernel(engine, srv, cfg, 1).SetTarget(1)
}

// TestDiurnalDelayArithmetic pins the window-walking math against
// hand-computed cases (14h online window starting at phase 0).
func TestDiurnalDelayArithmetic(t *testing.T) {
	const on = 14 * sim.Hour
	cases := []struct {
		now, wall, want float64
	}{
		// Inside the window with room to finish.
		{0, 2 * sim.Hour, 2 * sim.Hour},
		{10 * sim.Hour, 4 * sim.Hour, 4 * sim.Hour},
		// Ends exactly at the window edge: no offline gap is added.
		{10 * sim.Hour, 4*sim.Hour + 0, 4 * sim.Hour},
		// Spills into the next day: remainder after the 10h gap.
		{10 * sim.Hour, 6 * sim.Hour, 4*sim.Hour + 10*sim.Hour + 2*sim.Hour},
		// Starts while offline: waits for the next window.
		{15 * sim.Hour, 1 * sim.Hour, 9*sim.Hour + 1*sim.Hour},
		// Several full windows.
		{0, 30 * sim.Hour, 2*(10*sim.Hour) + 30*sim.Hour},
	}
	for i, c := range cases {
		got := diurnalDelay(c.now, c.wall, 0, on)
		if math.Abs(got-c.want) > 1e-6 {
			t.Fatalf("case %d: diurnalDelay(%v, %v) = %v, want %v", i, c.now, c.wall, got, c.want)
		}
	}
	// Phase shifts the window: at now=phase the host has a full window.
	if got := diurnalDelay(20*sim.Hour, 14*sim.Hour, 20*sim.Hour, on); got != 14*sim.Hour {
		t.Fatalf("phase-aligned window: %v", got)
	}
}

// TestDiurnalStretchesElapsedNotReported: a diurnal host takes longer on
// the wall clock but reports the same run time — availability is not
// accounting.
func TestDiurnalStretchesElapsedNotReported(t *testing.T) {
	run := func(profiles []BehaviorProfile) (done sim.Time, reported float64) {
		engine := sim.NewEngine()
		srv := makeServer(t, engine, 3, 3600)
		cfg := DefaultHostConfig()
		cfg.AbandonProb = 0
		cfg.ErrorProb = 0
		cfg.Profiles = profiles
		srv.OnComplete = func(*wcg.WUState) { done = engine.Now() }
		k := newKernel(engine, srv, cfg, 44)
		k.SetTarget(1)
		k.RunUntil(26 * sim.Week)
		return done, k.cpuSpent[0]
	}
	flatDone, flatCPU := run(nil)
	diurnalDone, diurnalCPU := run(DiurnalProfiles(10, 0))
	if diurnalDone <= flatDone {
		t.Fatalf("diurnal host finished no later: %v vs %v", diurnalDone, flatDone)
	}
	// Same seed, same speed-down sample, same reported time per task.
	if math.Abs(diurnalCPU-flatCPU) > 1e-9 {
		t.Fatalf("diurnal availability changed reported CPU: %v vs %v", diurnalCPU, flatCPU)
	}
}

// TestDiurnalDeterministic: a profiled fleet is bit-deterministic in
// its seed (the per-host phase draws come from the host streams, nothing
// global).
func TestDiurnalDeterministic(t *testing.T) {
	a := popStats(t, DiurnalProfiles(DefaultOnlineHours, DefaultHostConfig().ErrorProb), 40, 6*sim.Week)
	b := popStats(t, DiurnalProfiles(DefaultOnlineHours, DefaultHostConfig().ErrorProb), 40, 6*sim.Week)
	if a != b {
		t.Fatalf("same seed, different stats:\n%+v\n%+v", a, b)
	}
}
