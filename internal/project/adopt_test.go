package project

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/sim"
)

// materialize runs base to at (the fork divergence time, in most tests) on
// a fresh publisher runner and captures the portable snapshot, failing the
// test if the context cannot be made portable (every test fixture here
// must be).
func materialize(t *testing.T, base Config, at sim.Time) (*Runner, *PortableSnapshot) {
	t.Helper()
	pub := NewRunner()
	pub.Begin(base)
	pub.RunTo(at)
	ps, err := pub.Materialize()
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	return pub, ps
}

// TestAdoptEqualsStraightRun is the portable-snapshot identity pin: a
// snapshot materialized on one runner and adopted into a different one
// must fork reports byte-identical to the publisher's own forks and to a
// straight run — into a fresh and a dirty (pooled) adopter, and
// repeatedly into the same adopter.
func TestAdoptEqualsStraightRun(t *testing.T) {
	base := determinismConfig(t, 777)
	cell := quorumWhatIf(base)
	straightCell := reportHash(t, New(cell).Run())

	pub, ps := materialize(t, base, forkDivergence)

	// Fresh adopter: base fork reproduces the golden bytes, cell fork the
	// straight run, and a second fork off the adopted context leaves no
	// residue.
	ad := NewRunner()
	ad.AdoptSnapshot(ps)
	ad.Snapshot()
	if got := reportHash(t, ad.Fork(base)); got != goldenSeed777 {
		t.Errorf("adopted fork(base) hash = %s, want golden %s", got, goldenSeed777)
	}
	if got := reportHash(t, ad.Fork(cell)); got != straightCell {
		t.Errorf("adopted fork(cell) hash = %s, want straight-run %s", got, straightCell)
	}

	// Repeated adoption of the same (shared, read-only) snapshot.
	ad.AdoptSnapshot(ps)
	ad.Snapshot()
	if got := reportHash(t, ad.Fork(cell)); got != straightCell {
		t.Error("re-adopted fork(cell) hash differs — adoption mutates the snapshot or leaks state")
	}

	// Dirty adopter: arenas carry a finished unrelated run.
	dirty := NewRunner()
	dirty.Run(determinismConfig(t, 778))
	dirty.AdoptSnapshot(ps)
	dirty.Snapshot()
	if got := reportHash(t, dirty.Fork(cell)); got != straightCell {
		t.Errorf("pooled adopted fork(cell) hash = %s, want %s", got, straightCell)
	}

	// Materialize is non-destructive: the publisher can still snapshot and
	// fork its live context afterwards.
	pub.Snapshot()
	if got := reportHash(t, pub.Fork(cell)); got != straightCell {
		t.Errorf("publisher fork(cell) after Materialize hash = %s, want %s", got, straightCell)
	}
}

// TestAdoptWithFaultPlane extends the adoption identity pin to a run with
// every fault class enabled: outage spool, upload retries in flight,
// churn accumulator and per-host fault tables all cross the portability
// boundary. The week-14 snapshot holds no spool drain and no retry, so a
// second one is taken at the end of that week's maintenance window
// (week 14 + 2 d 6 h), where results are spooled and a retry is pending.
func TestAdoptWithFaultPlane(t *testing.T) {
	base := faultStressConfig(t, 777)
	cell := quorumWhatIf(base)
	straightBase := reportHash(t, New(base).Run())
	straightCell := reportHash(t, New(cell).Run())

	_, ps := materialize(t, base, forkDivergence)
	ad := NewRunner()
	ad.AdoptSnapshot(ps)
	ad.Snapshot()
	if got := reportHash(t, ad.Fork(base)); got != straightBase {
		t.Errorf("fault adopted fork(base) hash = %s, want %s", got, straightBase)
	}
	if got := reportHash(t, ad.Fork(cell)); got != straightCell {
		t.Errorf("fault adopted fork(cell) hash = %s, want %s", got, straightCell)
	}

	_, ps = materialize(t, base, forkDivergence+2*sim.Day+6*sim.Hour)
	var drains, retries int
	for _, pe := range ps.events {
		switch pe.Call.Kind {
		case sim.CallSpoolDrain:
			drains++
		case sim.CallUploadRetry:
			retries++
		}
	}
	if drains != 1 || retries != 1 {
		t.Fatalf("mid-window snapshot holds %d spool drains and %d upload retries, want one of each", drains, retries)
	}
	dirty := NewRunner()
	dirty.Run(faultStressConfig(t, 778))
	for name, r := range map[string]*Runner{"fresh": NewRunner(), "dirty": dirty} {
		r.AdoptSnapshot(ps)
		r.Snapshot()
		if got := reportHash(t, r.Fork(base)); got != straightBase {
			t.Errorf("%s adopter of the mid-window snapshot: fork(base) hash = %s, want %s", name, got, straightBase)
		}
	}
}

// TestAdoptConcurrent races several adopters over one published snapshot
// — the parallel fan-out's sharing pattern. Run under -race this pins the
// read-only contract; the hashes pin byte-identity per adopter.
func TestAdoptConcurrent(t *testing.T) {
	base := determinismConfig(t, 777)
	cell := quorumWhatIf(base)
	straightCell := reportHash(t, New(cell).Run())

	_, ps := materialize(t, base, forkDivergence)
	const n = 4
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ad := NewRunner()
			ad.AdoptSnapshot(ps)
			ad.Snapshot()
			if got := reportHash(t, ad.Fork(cell)); got != straightCell {
				errs <- fmt.Errorf("concurrent adopted fork hash = %s, want %s", got, straightCell)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
