package project

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/wcg"
)

// forkDivergence is where the fork tests branch: the default quorum
// switch time, the first moment the quorum what-ifs below can observably
// differ from the base configuration.
const forkDivergence = 14 * sim.Week

// quorumWhatIf derives the what-if cell from a base config — the quorum
// switch moved later, behavior-identical to the base before week 14. A
// fork shares the base's dataset and cost matrix by pointer, exactly as
// the experiment catalog's mutators do.
func quorumWhatIf(base Config) Config {
	base.Server.QuorumSwitchTime = 20 * sim.Week
	return base
}

// forkHash runs base to the divergence time on a runner, snapshots, and
// returns the report hash of the fork finished under cell.
func forkHash(t *testing.T, r *Runner, base, cell Config) string {
	t.Helper()
	r.Begin(base)
	r.RunTo(forkDivergence)
	r.Snapshot()
	return reportHash(t, r.Fork(cell))
}

// TestForkEqualsStraightRun is the fork-identity pin: a run forked at the
// divergence time must hash byte-identically to a straight run of the
// forked config — from a fresh and from a dirty (pooled) runner, and
// repeatedly from one snapshot. Forking the base config itself must
// reproduce the goldenSeed777 bytes, so the whole snapshot/adopt cycle is
// anchored to the pre-fork golden hash.
func TestForkEqualsStraightRun(t *testing.T) {
	base := determinismConfig(t, 777)
	cell := quorumWhatIf(base)

	straightCell := reportHash(t, New(cell).Run())
	if straightCell == goldenSeed777 {
		t.Fatal("quorum what-if did not change the report — divergence fixture is dead")
	}

	r := NewRunner()
	r.Begin(base)
	r.RunTo(forkDivergence)
	r.Snapshot()
	if got := reportHash(t, r.Fork(base)); got != goldenSeed777 {
		t.Errorf("fork(base) hash = %s, want golden %s", got, goldenSeed777)
	}
	if got := reportHash(t, r.Fork(cell)); got != straightCell {
		t.Errorf("fork(cell) hash = %s, want straight-run %s", got, straightCell)
	}
	// Same snapshot again: the adoption must leave no residue.
	if got := reportHash(t, r.Fork(cell)); got != straightCell {
		t.Error("second fork(cell) hash differs — restore leaks state")
	}

	// Dirty runner: arenas carry a finished unrelated run.
	dirty := NewRunner()
	dirty.Run(determinismConfig(t, 778))
	if got := forkHash(t, dirty, base, cell); got != straightCell {
		t.Errorf("pooled fork(cell) hash = %s, want %s", got, straightCell)
	}
}

// TestForkRestoreContinuesPrefix pins the prefix-tree walk: fork a group,
// restore, run the prefix further, snapshot again, fork again — each fork
// still byte-identical to its straight run.
func TestForkRestoreContinuesPrefix(t *testing.T) {
	base := determinismConfig(t, 777)
	cell := quorumWhatIf(base)
	straightCell := reportHash(t, New(cell).Run())

	r := NewRunner()
	r.Begin(base)
	r.RunTo(forkDivergence)
	r.Snapshot()
	if got := reportHash(t, r.Fork(cell)); got != straightCell {
		t.Fatalf("first-group fork hash = %s, want %s", got, straightCell)
	}
	r.Restore()
	r.RunTo(15 * sim.Week)
	r.Snapshot()
	if got := reportHash(t, r.Fork(base)); got != goldenSeed777 {
		t.Errorf("second-group fork(base) at week 15 hash = %s, want golden %s", got, goldenSeed777)
	}
}

// TestForkWithFaultPlane extends the identity pin to a run with every
// fault class enabled: the snapshot must carry the fault plane (retry
// budgets, upload sequences, churn accumulator) byte-exactly.
func TestForkWithFaultPlane(t *testing.T) {
	base := faultStressConfig(t, 777)
	cell := quorumWhatIf(base)

	straightBase := reportHash(t, New(base).Run())
	straightCell := reportHash(t, New(cell).Run())
	if straightCell == straightBase {
		t.Fatal("fault what-if did not change the report")
	}

	r := NewRunner()
	r.Begin(base)
	r.RunTo(forkDivergence)
	r.Snapshot()
	if got := reportHash(t, r.Fork(base)); got != straightBase {
		t.Errorf("fault fork(base) hash = %s, want %s", got, straightBase)
	}
	if got := reportHash(t, r.Fork(cell)); got != straightCell {
		t.Errorf("fault fork(cell) hash = %s, want %s", got, straightCell)
	}
}

// TestForkRejectsBindTimeChanges pins the fork contract: a fork that
// changes a bind-time field must panic, naming it, instead of returning
// the prefix config's behaviour under the new config's name. The project
// layer refuses its own fields and the host model, which the host kernel
// fixes at Reset; the server refuses its deadline and policies, which it
// binds at Reset. The refusal leaves the context as it was: a quorum
// what-if still forks to its straight run, and so do explicit default
// policies, which resolve like nil ones.
func TestForkRejectsBindTimeChanges(t *testing.T) {
	base := determinismConfig(t, 777)
	r := NewRunner()
	r.Begin(base)
	r.RunTo(forkDivergence)
	r.Snapshot()
	for _, tc := range []struct {
		name, prefix string
		mutate       func(*Config)
	}{
		{"seed", "project: ", func(c *Config) { c.Seed = 778 }},
		{"Host", "project: ", func(c *Config) { c.Host.ErrorProb = 0.2 }},
		{"Deadline", "wcg: ", func(c *Config) { c.Server.Deadline = 4 * sim.Day }},
		{"Scheduler", "wcg: ", func(c *Config) { c.Server.Scheduler = wcg.LIFOScheduler{} }},
		{"Validator", "wcg: ", func(c *Config) { c.Server.Validator = wcg.AdaptiveValidator{Streak: 5} }},
		{"DeadlinePolicy", "wcg: ", func(c *Config) {
			c.Server.DeadlinePolicy = wcg.DeadlineClasses{{MaxRefSeconds: 3 * 3600, Deadline: 4 * sim.Day}, {Deadline: 8 * sim.Day}}
		}},
	} {
		cell := base
		tc.mutate(&cell)
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, tc.prefix) || !strings.Contains(msg, tc.name) {
					t.Errorf("fork changing %s panicked with %q, want a %q message naming it", tc.name, msg, tc.prefix)
				}
			}()
			r.Fork(cell)
		}()
	}

	cell := quorumWhatIf(base)
	if got, want := reportHash(t, r.Fork(cell)), reportHash(t, New(cell).Run()); got != want {
		t.Errorf("quorum what-if after refused forks hashes %s, want straight-run %s", got, want)
	}
	defaults := base
	defaults.Server.Scheduler = wcg.FIFOScheduler{}
	defaults.Server.Validator = wcg.QuorumValidator{}
	defaults.Server.DeadlinePolicy = wcg.UniformDeadline{}
	if got := reportHash(t, r.Fork(defaults)); got != goldenSeed777 {
		t.Errorf("fork with explicit default policies hashes %s, want golden %s", got, goldenSeed777)
	}
}

// TestRunDropsSnapshot pins the Runner lifecycle: Run rewinds the arenas a
// held snapshot was taken from, so Snapshot → Run → Fork must refuse to
// fork rather than resume a context Run has replaced.
func TestRunDropsSnapshot(t *testing.T) {
	base := determinismConfig(t, 777)
	other := base
	other.Seed = 778
	r := NewRunner()
	r.Begin(base)
	r.RunTo(forkDivergence)
	r.Snapshot()
	r.Run(other)
	defer func() {
		if p := recover(); p != "project: Restore/Fork without a Snapshot" {
			t.Errorf("Fork after Run panicked with %v, want the missing-snapshot panic", p)
		}
	}()
	r.Fork(base)
}

// TestMaterializeEveryWeek makes a non-portable event a test failure
// rather than a runtime state: on the determinism, fault-stress and
// host-stress configurations, the run context must materialize at every
// weekly boundary up to completion, and at weeks 1, 9, 14 and the last a
// second runner that adopts the snapshot must fork(base) to the straight
// run's bytes.
func TestMaterializeEveryWeek(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"determinism-777", determinismConfig(t, 777)},
		{"fault-stress-777", faultStressConfig(t, 777)},
		{"stress-909", hostStressConfig(t, 909)},
	} {
		base := tc.cfg
		straight := New(base).Run()
		last := int(math.Min(math.Ceil(straight.WeeksElapsed), base.MaxWeeks))
		if last <= 14 {
			t.Fatalf("%s: run completes at week %d, before the checked weeks", tc.name, last)
		}
		want := reportHash(t, straight)
		check := map[int]bool{1: true, 9: true, 14: true, last: true}

		pub, ad := NewRunner(), NewRunner()
		pub.Begin(base)
		for w := 1; w <= last; w++ {
			pub.RunTo(sim.Time(w) * sim.Week)
			ps, err := pub.Materialize()
			if err != nil {
				t.Fatalf("%s: Materialize at week %d: %v", tc.name, w, err)
			}
			if !check[w] {
				continue
			}
			ad.AdoptSnapshot(ps)
			if got := reportHash(t, ad.Fork(base)); got != want {
				t.Errorf("%s: adopted fork(base) at week %d hash = %s, want straight-run %s",
					tc.name, w, got, want)
			}
		}
	}
}

// TestMaterializeInsideWindows snapshots a run whose host continuations
// often fall due inside the armed window, where they wait in the engine's
// heap: 60-hour workunits make the window 30 h wide, and a 10 h deadline
// plus at most an hour of delay brings an abandoned task's late return
// (which waits in the heap whatever the window) back inside it.
// Materialized every 30 h in the middle of a window (at a window's end
// every continuation due inside it has run), the snapshots must hold
// pending late returns — CallHost events with an assignment index; 6
// across 84 snapshots — and calendar continuations due inside the armed
// window, from the armed buffer's unread rest or the idle-retry ring,
// which the adopter moves into its engine's heap (299 across them);
// and a runner that adopts any of them must fork(base) to the straight
// run's bytes.
func TestMaterializeInsideWindows(t *testing.T) {
	base := insideWindowsConfig(t, 777)
	straight := New(base).Run()
	end := math.Min(math.Ceil(straight.WeeksElapsed), base.MaxWeeks) * sim.Week
	want := reportHash(t, straight)

	pub, ad := NewRunner(), NewRunner()
	pub.Begin(base)
	late, moved := 0, 0
	for at := 15 * sim.Hour; at <= end; at += 30 * sim.Hour {
		pub.RunTo(at)
		ps, err := pub.Materialize()
		if err != nil {
			t.Fatalf("Materialize at %v h: %v", at/sim.Hour, err)
		}
		for _, pe := range ps.events {
			if pe.Call.Kind == sim.CallHost && pe.Call.A1 != wcg.NilIndex {
				late++
			}
		}
		ad.AdoptSnapshot(ps)
		moved += heapLen(t, ad) - heapLen(t, pub)
		if got := reportHash(t, ad.Fork(base)); got != want {
			t.Errorf("adopted fork(base) at %v h hash = %s, want straight-run %s", at/sim.Hour, got, want)
		}
	}
	if late == 0 {
		t.Fatal("no snapshot holds a pending late return in the engine's heap")
	}
	if moved == 0 {
		t.Fatal("no snapshot holds a calendar continuation due inside the armed window")
	}
}

// insideWindowsConfig is TestMaterializeInsideWindows' configuration: a
// 30-hour window, and late returns due inside it.
func insideWindowsConfig(t *testing.T, seed uint64) Config {
	cfg := determinismConfig(t, seed)
	cfg.ControlWeeks = 0
	cfg.HHours = 60
	cfg.Host.IdleRetry = 2 * sim.Day
	cfg.Server.Deadline = 10 * sim.Hour
	cfg.Host.LateDelayMax = sim.Hour
	return cfg
}

// FuzzMaterializeAnywhere extends the weekly and mid-window adoption pins
// to any event boundary. It runs one of three configurations — the
// determinism, fault-stress and 30-hour-window ones, by shape % 3 — under
// seed 700 + seed to a fuzzed time, frac/65535 of the straight run's span
// up to its completion week, materializes there and adopts the snapshot
// on a fresh runner, whose fork of the base config must hash to the
// straight run. Straight runs are cached by shape and seed.
func FuzzMaterializeAnywhere(f *testing.F) {
	f.Add(uint16(0), uint8(77), uint8(0))
	f.Add(uint16(29000), uint8(77), uint8(0))
	f.Add(uint16(41000), uint8(78), uint8(1))
	f.Add(uint16(65535), uint8(1), uint8(1))
	f.Add(uint16(12345), uint8(77), uint8(2))
	f.Add(uint16(50000), uint8(9), uint8(2))
	shapes := [...]func(*testing.T, uint64) Config{determinismConfig, faultStressConfig, insideWindowsConfig}
	type straightRun struct {
		cfg  Config
		hash string
		span sim.Time
	}
	var mu sync.Mutex
	runs := map[[2]uint8]straightRun{}
	f.Fuzz(func(t *testing.T, frac uint16, seed, shape uint8) {
		shape %= uint8(len(shapes))
		key := [2]uint8{shape, seed}
		mu.Lock()
		s, ok := runs[key]
		mu.Unlock()
		if !ok {
			cfg := shapes[shape](t, 700+uint64(seed))
			rep := New(cfg).Run()
			span := math.Min(math.Ceil(rep.WeeksElapsed), cfg.MaxWeeks) * sim.Week
			s = straightRun{cfg, reportHash(t, rep), span}
			mu.Lock()
			runs[key] = s
			mu.Unlock()
		}
		at := s.span * float64(frac) / math.MaxUint16
		pub := NewRunner()
		pub.Begin(s.cfg)
		pub.RunTo(at)
		ps, err := pub.Materialize()
		if err != nil {
			t.Fatalf("Materialize at %v s: %v", at, err)
		}
		ad := NewRunner()
		ad.AdoptSnapshot(ps)
		if got := reportHash(t, ad.Fork(s.cfg)); got != s.hash {
			t.Errorf("shape %d, seed %d: adopted fork(base) at %v s hash = %s, want straight-run %s",
				shape, 700+int(seed), at, got, s.hash)
		}
	})
}

// heapLen returns the number of events in r's engine heap.
func heapLen(t *testing.T, r *Runner) int {
	t.Helper()
	evs, err := r.c.engine.ExportEvents()
	if err != nil {
		t.Fatal(err)
	}
	return len(evs)
}
