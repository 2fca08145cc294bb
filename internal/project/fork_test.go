package project

import (
	"math"
	"testing"

	"repro/internal/sim"
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

// TestForkRejectsBindTimeChanges pins applyConfig's guard: a fork that
// changes a bind-time field must panic instead of silently producing a
// report from a context built for a different configuration.
func TestForkRejectsBindTimeChanges(t *testing.T) {
	r := NewRunner()
	r.Begin(determinismConfig(t, 777))
	r.RunTo(forkDivergence)
	r.Snapshot()
	bad := determinismConfig(t, 777)
	bad.Seed = 778
	func() {
		defer func() {
			if recover() == nil {
				t.Error("fork with a different seed did not panic")
			}
		}()
		r.Fork(bad)
	}()
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
