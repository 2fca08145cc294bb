package experiment

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/project"
	"repro/internal/sim"
)

// TestSweepIsolatesPanickingCell: a scenario whose cells panic (here via a
// mutator that poisons the config — HostScale < 0 panics in the project
// layer's checkConfig) must not crash the sweep process. The cells are
// retried once, recorded as failed, excluded from the checkpoint, and the
// sweep reports an error while the healthy scenarios' results survive.
func TestSweepIsolatesPanickingCell(t *testing.T) {
	path := filepath.Join(t.TempDir(), "panic.ckpt.jsonl")
	ckpt, err := OpenCheckpoint(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt.Close()

	scenarios := []Scenario{
		{Name: "healthy", Description: "no-op", Mutate: func(*project.Config) {}},
		{Name: "poison", Description: "panics every attempt", Mutate: func(cfg *project.Config) {
			cfg.HostScale = -1
		}},
	}
	sw, err := Run(context.Background(), Options{
		Base:       testBase(t),
		Scenarios:  scenarios,
		Reps:       2,
		Workers:    4,
		Checkpoint: ckpt,
	})
	if err == nil {
		t.Fatal("sweep with a poisoned scenario returned no error")
	}
	if !strings.Contains(err.Error(), "failed after a retry") {
		t.Fatalf("unexpected sweep error: %v", err)
	}
	if sw == nil {
		t.Fatal("failed sweep returned no partial results")
	}
	if len(sw.Results) != 2 {
		t.Fatalf("healthy cells = %d, want 2", len(sw.Results))
	}
	for _, r := range sw.Results {
		if r.Scenario != "healthy" || r.Failed || r.Error != "" {
			t.Fatalf("healthy cell polluted: %+v", r)
		}
	}
	if len(sw.Failed) != 2 {
		t.Fatalf("failed cells = %d, want 2", len(sw.Failed))
	}
	for _, r := range sw.Failed {
		if r.Scenario != "poison" || !r.Failed || r.Error == "" {
			t.Fatalf("failed cell misrecorded: %+v", r)
		}
	}
	// Failed cells must not be checkpointed: a fixed rerun with -resume has
	// to re-execute them.
	if got := ckpt.Len(); got != 2 {
		t.Errorf("checkpoint holds %d cells, want only the 2 healthy ones", got)
	}
	for rep := 0; rep < 2; rep++ {
		if _, ok := ckpt.Lookup(Key{Scenario: "poison", Rep: rep}); ok {
			t.Errorf("failed cell (poison, %d) was checkpointed", rep)
		}
	}
	// Aggregates still rendered for the healthy scenario.
	if len(sw.Aggregates) == 0 {
		t.Error("failed sweep produced no aggregates for the healthy scenario")
	}
}

// TestSweepRetriesTransientPanic: a cell that panics once and then succeeds
// is retried on a fresh runner and lands as an ordinary result — the sweep
// finishes with no error.
func TestSweepRetriesTransientPanic(t *testing.T) {
	var calls atomic.Int32
	scenarios := []Scenario{
		{Name: "flaky-once", Description: "panics on its first attempt only", Mutate: func(*project.Config) {
			if calls.Add(1) == 1 {
				panic("transient test panic")
			}
		}},
	}
	// Workers=1 keeps the attempt order deterministic: the first attempt of
	// rep 0 panics, its retry and every later cell succeed.
	sw, err := Run(context.Background(), Options{
		Base:      testBase(t),
		Scenarios: scenarios,
		Reps:      2,
		Workers:   1,
	})
	if err != nil {
		t.Fatalf("transient panic not absorbed by the retry: %v", err)
	}
	if len(sw.Failed) != 0 {
		t.Fatalf("retried cell still recorded as failed: %+v", sw.Failed)
	}
	if len(sw.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(sw.Results))
	}
	for _, r := range sw.Results {
		if r.Metrics.MakespanWeeks <= 0 {
			t.Fatalf("degenerate retried cell: %+v", r)
		}
	}
	if calls.Load() != 3 {
		t.Errorf("mutator called %d times, want 3 (rep0, retry, rep1)", calls.Load())
	}
}

// TestForkedSweepRetriesPanickingCell pins the attempts a forked cell
// gets: when its fork panics, on the tree's runner or in an adopt chunk,
// the cell reruns standalone with the same one retry as an unforked cell.
// A cell that always panics is tried three times before it lands in
// Failed, and its grouped sibling still matches the unforked sweep.
func TestForkedSweepRetriesPanickingCell(t *testing.T) {
	healthy := Scenario{Name: "healthy", Description: "no-op", DivergesAt: sim.Week, Mutate: func(*project.Config) {}}
	ref, err := Run(context.Background(), Options{Base: testBase(t), Scenarios: []Scenario{healthy}, Reps: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Workers 1 forks the poisoned cell on the tree's runner; with two fork
	// workers it is the group's second cell, so it lands in the adopt chunk.
	for _, fw := range []int{1, 2} {
		var calls atomic.Int32
		poison := Scenario{Name: "poison", Description: "panics every attempt", DivergesAt: sim.Week,
			Mutate: func(*project.Config) {
				calls.Add(1)
				panic("poisoned fork")
			}}
		sw, err := Run(context.Background(), Options{
			Base:        testBase(t),
			Scenarios:   []Scenario{healthy, poison},
			Reps:        1,
			Workers:     fw,
			ForkWorkers: fw,
			Fork:        true,
		})
		if err == nil || !strings.Contains(err.Error(), "failed after a retry") {
			t.Fatalf("fork workers %d: sweep error = %v, want a failed cell", fw, err)
		}
		if calls.Load() != 3 {
			t.Errorf("fork workers %d: mutator called %d times, want 3 (fork, standalone, retry)", fw, calls.Load())
		}
		if len(sw.Failed) != 1 || sw.Failed[0].Scenario != "poison" || sw.Failed[0].Error != "poisoned fork" {
			t.Errorf("fork workers %d: failed cells = %+v, want the poisoned one", fw, sw.Failed)
		}
		if !reflect.DeepEqual(sw.Results, ref.Results) {
			t.Errorf("fork workers %d: healthy sibling %+v differs from its unforked run %+v", fw, sw.Results, ref.Results)
		}
	}
}

// TestFaultScenariosWorkerIndependent extends the worker-count determinism
// pin to the fault plane: outage, flaky-uplink, churn, and storm scenarios
// produce identical results on 1 and 8 workers.
func TestFaultScenariosWorkerIndependent(t *testing.T) {
	var scenarios []Scenario
	for _, name := range []string{"weekly-maintenance", "unplanned-24h-outage",
		"flaky-uplink-1pct", "churn-steady", "outage-no-backoff", "fault-storm"} {
		s, ok := Lookup(name)
		if !ok {
			t.Fatalf("catalog lost scenario %q", name)
		}
		scenarios = append(scenarios, s)
	}
	run := func(workers, shards int) *Sweep {
		sw, err := Run(context.Background(), Options{
			Base:      testBase(t),
			Scenarios: scenarios,
			Reps:      2,
			Workers:   workers,
			Shards:    shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}
	serial := run(1, 0)
	parallel := run(8, 0)
	if len(serial.Results) != len(parallel.Results) {
		t.Fatal("fault sweeps differ in cell count across worker counts")
	}
	for i := range serial.Results {
		if serial.Results[i] != parallel.Results[i] {
			t.Fatalf("fault cell %d differs between -workers=1 and -workers=8:\n%+v\n%+v",
				i, serial.Results[i], parallel.Results[i])
		}
	}
	sharded := run(8, 8)
	for i := range serial.Results {
		if serial.Results[i] != sharded.Results[i] {
			t.Fatalf("fault cell %d differs between the 1-shard and 8-shard kernels:\n%+v\n%+v",
				i, serial.Results[i], sharded.Results[i])
		}
	}
	// The fault metrics actually surface in sweep cells.
	var sawDowntime, sawLoss, sawChurn bool
	for _, r := range serial.Results {
		if r.Metrics.DowntimeHours > 0 {
			sawDowntime = true
		}
		if r.Metrics.LostUploads > 0 {
			sawLoss = true
		}
		if r.Metrics.ChurnedHosts > 0 {
			sawChurn = true
		}
	}
	if !sawDowntime || !sawLoss || !sawChurn {
		t.Errorf("fault metrics missing from sweep cells: downtime=%v loss=%v churn=%v",
			sawDowntime, sawLoss, sawChurn)
	}
}
