package project

import (
	"fmt"
	"sync"
	"testing"
)

// materialize runs base to the fork divergence time on a fresh publisher
// runner and captures the portable snapshot, failing the test if the
// context cannot be made portable (every test fixture here must be).
func materialize(t *testing.T, base Config) (*Runner, *PortableSnapshot) {
	t.Helper()
	pub := NewRunner()
	pub.Begin(base)
	pub.RunTo(forkDivergence)
	ps, err := pub.Materialize()
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	return pub, ps
}

// TestAdoptEqualsStraightRun is the portable-snapshot identity pin: a
// snapshot materialized on one runner and adopted into a different one
// must fork reports byte-identical to the in-place fork path and to a
// straight run — at K=1 and at K=4, into a fresh and
// a dirty (pooled) adopter, and repeatedly into the same adopter.
func TestAdoptEqualsStraightRun(t *testing.T) {
	for _, shards := range []int{0, 4} {
		base := determinismConfig(t, 777)
		base.Shards = shards
		cell := quorumWhatIf(base)
		straightCell := reportHash(t, New(cell).Run())

		pub, ps := materialize(t, base)

		// Fresh adopter: base fork reproduces the golden bytes, cell fork
		// the straight run, and a second fork off the adopted context
		// leaves no residue.
		ad := NewRunner()
		ad.AdoptSnapshot(ps)
		ad.Snapshot()
		if got := reportHash(t, ad.Fork(base)); got != goldenSeed777 {
			t.Errorf("shards=%d: adopted fork(base) hash = %s, want golden %s", shards, got, goldenSeed777)
		}
		if got := reportHash(t, ad.Fork(cell)); got != straightCell {
			t.Errorf("shards=%d: adopted fork(cell) hash = %s, want straight-run %s", shards, got, straightCell)
		}

		// Repeated adoption of the same (shared, read-only) snapshot.
		ad.AdoptSnapshot(ps)
		ad.Snapshot()
		if got := reportHash(t, ad.Fork(cell)); got != straightCell {
			t.Errorf("shards=%d: re-adopted fork(cell) hash differs — adoption mutates the snapshot or leaks state", shards)
		}

		// Dirty adopter: arenas carry a finished unrelated run.
		dirty := NewRunner()
		dirty.Run(determinismConfig(t, 778))
		dirty.AdoptSnapshot(ps)
		dirty.Snapshot()
		if got := reportHash(t, dirty.Fork(cell)); got != straightCell {
			t.Errorf("shards=%d: pooled adopted fork(cell) hash = %s, want %s", shards, got, straightCell)
		}

		// Materialize is non-destructive: the publisher can still snapshot
		// and fork in place afterwards.
		pub.Snapshot()
		if got := reportHash(t, pub.Fork(cell)); got != straightCell {
			t.Errorf("shards=%d: publisher fork(cell) after Materialize hash = %s, want %s", shards, got, straightCell)
		}
	}
}

// TestAdoptWithFaultPlane extends the adoption identity pin to a run with
// every fault class enabled: outage spool, upload retries in flight,
// churn accumulator and per-host fault tables all cross the portability
// boundary.
func TestAdoptWithFaultPlane(t *testing.T) {
	for _, shards := range []int{0, 4} {
		base := faultStressConfig(t, 777)
		base.Shards = shards
		cell := quorumWhatIf(base)
		straightBase := reportHash(t, New(base).Run())
		straightCell := reportHash(t, New(cell).Run())

		_, ps := materialize(t, base)
		ad := NewRunner()
		ad.AdoptSnapshot(ps)
		ad.Snapshot()
		if got := reportHash(t, ad.Fork(base)); got != straightBase {
			t.Errorf("shards=%d: fault adopted fork(base) hash = %s, want %s", shards, got, straightBase)
		}
		if got := reportHash(t, ad.Fork(cell)); got != straightCell {
			t.Errorf("shards=%d: fault adopted fork(cell) hash = %s, want %s", shards, got, straightCell)
		}
	}
}

// TestAdoptConcurrent races several adopters over one published snapshot
// — the parallel fan-out's sharing pattern. Run under -race this pins the
// read-only contract; the hashes pin byte-identity per adopter.
func TestAdoptConcurrent(t *testing.T) {
	base := determinismConfig(t, 777)
	base.Shards = 4
	cell := quorumWhatIf(base)
	straightCell := reportHash(t, New(cell).Run())

	_, ps := materialize(t, base)
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
