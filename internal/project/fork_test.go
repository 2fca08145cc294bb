package project

import (
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
// forked config — at K=1 and at K=4, from a fresh and
// from a dirty (pooled) runner, and repeatedly from one snapshot. Forking
// the base config itself must reproduce the goldenSeed777 bytes, so the
// whole snapshot/restore cycle is anchored to the pre-fork golden hash.
func TestForkEqualsStraightRun(t *testing.T) {
	for _, shards := range []int{0, 4} {
		base := determinismConfig(t, 777)
		base.Shards = shards
		cell := quorumWhatIf(base)

		straightCell := reportHash(t, New(cell).Run())
		if straightCell == goldenSeed777 {
			t.Fatalf("shards=%d: quorum what-if did not change the report — divergence fixture is dead", shards)
		}

		r := NewRunner()
		r.Begin(base)
		r.RunTo(forkDivergence)
		r.Snapshot()
		if got := reportHash(t, r.Fork(base)); got != goldenSeed777 {
			t.Errorf("shards=%d: fork(base) hash = %s, want golden %s", shards, got, goldenSeed777)
		}
		if got := reportHash(t, r.Fork(cell)); got != straightCell {
			t.Errorf("shards=%d: fork(cell) hash = %s, want straight-run %s", shards, got, straightCell)
		}
		// Same snapshot again: the restore must leave no residue.
		if got := reportHash(t, r.Fork(cell)); got != straightCell {
			t.Errorf("shards=%d: second fork(cell) hash differs — restore leaks state", shards)
		}

		// Dirty runner: arenas carry a finished unrelated run.
		dirty := NewRunner()
		dirty.Run(determinismConfig(t, 778))
		if got := forkHash(t, dirty, base, cell); got != straightCell {
			t.Errorf("shards=%d: pooled fork(cell) hash = %s, want %s", shards, got, straightCell)
		}
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
	for _, shards := range []int{0, 4} {
		base := faultStressConfig(t, 777)
		base.Shards = shards
		cell := quorumWhatIf(base)

		straightBase := reportHash(t, New(base).Run())
		straightCell := reportHash(t, New(cell).Run())
		if straightCell == straightBase {
			t.Fatalf("shards=%d: fault what-if did not change the report", shards)
		}

		r := NewRunner()
		r.Begin(base)
		r.RunTo(forkDivergence)
		r.Snapshot()
		if got := reportHash(t, r.Fork(base)); got != straightBase {
			t.Errorf("shards=%d: fault fork(base) hash = %s, want %s", shards, got, straightBase)
		}
		if got := reportHash(t, r.Fork(cell)); got != straightCell {
			t.Errorf("shards=%d: fault fork(cell) hash = %s, want %s", shards, got, straightCell)
		}
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
