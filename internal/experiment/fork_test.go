package experiment

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/project"
)

// forkScenarios is the fork-identity selection: every catalog scenario
// carrying a DivergesAt hint plus a few ungrouped ones, so a forked sweep
// exercises tree jobs and standalone cells side by side.
func forkScenarios(t *testing.T) []Scenario {
	t.Helper()
	var out []Scenario
	for _, name := range []string{"baseline", "quorum-1", "quorum-2", "late-quorum-switch",
		"no-control-phase", "slow-ramp", "grid-static", "half-share"} {
		sc, ok := Lookup(name)
		if !ok {
			t.Fatalf("catalog lost scenario %q", name)
		}
		out = append(out, sc)
	}
	return out
}

// TestForkedSweepIdentical is the sweep-level fork pin: with prefix sharing
// on, results and aggregates are byte-identical to the unforked sweep — on
// one worker and eight, at K=1 and at K=4 — and the
// prefix stats prove every grouped cell really was served by a fork (a
// silent fallback to standalone runs would keep results correct but show
// up as missing hits here).
func TestForkedSweepIdentical(t *testing.T) {
	scenarios := forkScenarios(t)
	const reps = 2
	run := func(fork bool, workers, shards int) *Sweep {
		sw, err := Run(context.Background(), Options{
			Base:      testBase(t),
			Scenarios: scenarios,
			Reps:      reps,
			Workers:   workers,
			Shards:    shards,
			Fork:      fork,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}

	ref := run(false, 1, 0)
	if ref.PrefixHits != 0 || ref.PrefixGroups != 0 {
		t.Fatalf("unforked sweep reported prefix stats: %d hits, %d groups", ref.PrefixHits, ref.PrefixGroups)
	}

	// 5 grouped scenarios at 3 distinct divergence times (1w ×2, 9w, 14w ×2):
	// per rep the tree takes 3 snapshots and forks 5 cells, saving
	// (1+1) + 9 + (14+14) − 14 = 25 sim-weeks over standalone runs.
	const wantHits, wantGroups, wantSaved = 5 * reps, 3 * reps, 25.0 * reps
	for _, tc := range []struct{ workers, shards int }{{1, 0}, {8, 0}, {1, 4}, {8, 4}} {
		sw := run(true, tc.workers, tc.shards)
		if !reflect.DeepEqual(ref.Results, sw.Results) {
			t.Fatalf("workers=%d shards=%d: forked results differ from unforked", tc.workers, tc.shards)
		}
		if !reflect.DeepEqual(ref.Aggregates, sw.Aggregates) {
			t.Fatalf("workers=%d shards=%d: forked aggregates differ from unforked", tc.workers, tc.shards)
		}
		if sw.PrefixHits != wantHits || sw.PrefixGroups != wantGroups {
			t.Errorf("workers=%d shards=%d: prefix stats = %d hits / %d groups, want %d / %d",
				tc.workers, tc.shards, sw.PrefixHits, sw.PrefixGroups, wantHits, wantGroups)
		}
		if sw.SavedSimWeeks != wantSaved {
			t.Errorf("workers=%d shards=%d: saved sim-weeks = %v, want %v",
				tc.workers, tc.shards, sw.SavedSimWeeks, wantSaved)
		}
	}

	// The JSON rendering must not leak the stats: forked and unforked sweep
	// files are diffed byte for byte by the CI smoke.
	refJSON, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	forkJSON, err := json.Marshal(run(true, 8, 0))
	if err != nil {
		t.Fatal(err)
	}
	if string(refJSON) != string(forkJSON) {
		t.Fatal("forked sweep JSON differs from unforked")
	}
}

// TestParallelForkedSweepIdentical is the fan-out pin: with ForkWorkers
// wide enough to split every divergence group, suffixes adopt portable
// snapshots on other pooled runners and race — and the results, the
// aggregates, the prefix stats and the JSON rendering stay byte-identical
// to the sequential single-worker unforked sweep. The fan-out stats prove
// adoption really happened (a tree falling back to standalone cells would
// keep results correct but show zero adopted runners here).
func TestParallelForkedSweepIdentical(t *testing.T) {
	scenarios := forkScenarios(t)
	const reps = 2
	run := func(fork bool, workers, forkWorkers, shards int) *Sweep {
		sw, err := Run(context.Background(), Options{
			Base:        testBase(t),
			Scenarios:   scenarios,
			Reps:        reps,
			Workers:     workers,
			ForkWorkers: forkWorkers,
			Shards:      shards,
			Fork:        fork,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}

	ref := run(false, 1, 0, 0)
	const wantHits, wantGroups, wantSaved = 5 * reps, 3 * reps, 25.0 * reps
	for _, tc := range []struct{ workers, forkWorkers, shards int }{{8, 8, 0}, {8, 8, 4}, {1, 8, 0}} {
		sw := run(true, tc.workers, tc.forkWorkers, tc.shards)
		if !reflect.DeepEqual(ref.Results, sw.Results) {
			t.Fatalf("workers=%d fork-workers=%d shards=%d: parallel-forked results differ from unforked",
				tc.workers, tc.forkWorkers, tc.shards)
		}
		if !reflect.DeepEqual(ref.Aggregates, sw.Aggregates) {
			t.Fatalf("workers=%d fork-workers=%d shards=%d: parallel-forked aggregates differ from unforked",
				tc.workers, tc.forkWorkers, tc.shards)
		}
		if sw.PrefixHits != wantHits || sw.PrefixGroups != wantGroups || sw.SavedSimWeeks != wantSaved {
			t.Errorf("workers=%d fork-workers=%d shards=%d: prefix stats = %d hits / %d groups / %v weeks, want %d / %d / %v",
				tc.workers, tc.forkWorkers, tc.shards,
				sw.PrefixHits, sw.PrefixGroups, sw.SavedSimWeeks, wantHits, wantGroups, wantSaved)
		}
		if tc.workers > 1 {
			// Real fan-out: at least one chunk adopted on another runner.
			if sw.AdoptedRunners == 0 || sw.ForksParallel == 0 || sw.SnapshotBytes == 0 {
				t.Errorf("workers=%d fork-workers=%d shards=%d: no fan-out happened (adopted=%d, parallel forks=%d, bytes=%d)",
					tc.workers, tc.forkWorkers, tc.shards, sw.AdoptedRunners, sw.ForksParallel, sw.SnapshotBytes)
			}
		} else {
			// ForkWorkers is capped at Workers: one worker means sequential
			// forks and no snapshot published to other runners.
			if sw.AdoptedRunners != 0 || sw.SnapshotBytes != 0 {
				t.Errorf("workers=1: fan-out ran on a single worker (adopted=%d, bytes=%d)",
					sw.AdoptedRunners, sw.SnapshotBytes)
			}
		}
	}

	// The fan-out stats must not leak into the JSON rendering: parallel-forked
	// and unforked sweep files are diffed byte for byte by the CI smoke.
	refJSON, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	parJSON, err := json.Marshal(run(true, 8, 8, 0))
	if err != nil {
		t.Fatal(err)
	}
	if string(refJSON) != string(parJSON) {
		t.Fatal("parallel-forked sweep JSON differs from unforked")
	}
}

// TestDivergesAtHints validates every catalog DivergesAt hint directly
// against the project fork path: running the base prefix to the hinted
// time, snapshotting, and forking the mutated cell must reproduce the
// cell's straight-run metrics. A hint placed after the true divergence
// point fails the equality; a mutator touching a bind-time field panics
// in the fork's config guard.
func TestDivergesAtHints(t *testing.T) {
	base := testBase(t)
	const seed = 4242
	straightRunner := project.NewRunner()
	forkRunner := project.NewRunner()
	hinted := 0
	for _, sc := range Catalog() {
		if sc.DivergesAt <= 0 {
			continue
		}
		hinted++
		opts := Options{Base: base}
		straight := ExtractMetrics(straightRunner.Run(cellConfig(&opts, sc, seed, nil)))

		baseCfg := base
		baseCfg.Seed = seed
		forkRunner.Begin(baseCfg)
		forkRunner.RunTo(sc.DivergesAt)
		forkRunner.Snapshot()
		forked := ExtractMetrics(forkRunner.Fork(cellConfig(&opts, sc, seed, nil)))
		if !reflect.DeepEqual(straight, forked) {
			t.Errorf("%s: fork at hinted divergence %v differs from straight run\nstraight: %+v\nforked:   %+v",
				sc.Name, sc.DivergesAt, straight, forked)
		}
	}
	if hinted == 0 {
		t.Fatal("catalog carries no DivergesAt hints")
	}
}

// TestForkedSweepCheckpointResume pins checkpoint interchange between the
// two modes: a checkpoint written unforked resumes a forked sweep in full
// (grouped trees are skipped entirely), and a partially filled checkpoint
// makes the forked sweep run only the missing cells — with unchanged
// results either way.
func TestForkedSweepCheckpointResume(t *testing.T) {
	scenarios := forkScenarios(t)
	base := testBase(t)
	opts := Options{Base: base, Scenarios: scenarios, Reps: 1, Workers: 2}

	path := filepath.Join(t.TempDir(), "fork.ckpt.jsonl")
	ckpt, err := OpenCheckpoint(path, false)
	if err != nil {
		t.Fatal(err)
	}
	opts.Checkpoint = ckpt
	first, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Close(); err != nil {
		t.Fatal(err)
	}

	// Full resume: the forked sweep satisfies every cell from the file and
	// never builds a prefix.
	ckpt2, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	opts.Checkpoint = ckpt2
	opts.Fork = true
	second, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt2.Close(); err != nil {
		t.Fatal(err)
	}
	if second.Resumed != len(first.Results) {
		t.Fatalf("forked resume satisfied %d cells, want all %d", second.Resumed, len(first.Results))
	}
	if second.PrefixGroups != 0 {
		t.Fatalf("fully resumed forked sweep still took %d snapshots", second.PrefixGroups)
	}
	if !reflect.DeepEqual(first.Results, second.Results) {
		t.Fatal("forked resume changed the results")
	}

	// Partial resume: drop half the recorded cells; the forked sweep must
	// re-run exactly the missing ones and reproduce the full result set.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := splitLines(data)
	if len(lines) != len(first.Results) {
		t.Fatalf("checkpoint has %d lines, want %d", len(lines), len(first.Results))
	}
	if err := os.WriteFile(path, joinLines(lines[:len(lines)/2]), 0o644); err != nil {
		t.Fatal(err)
	}
	ckpt3, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt3.Close()
	opts.Checkpoint = ckpt3
	third, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if third.Resumed != len(lines)/2 {
		t.Fatalf("partial forked resume satisfied %d cells, want %d", third.Resumed, len(lines)/2)
	}
	if !reflect.DeepEqual(first.Results, third.Results) {
		t.Fatal("partially resumed forked sweep changed the results")
	}
}

// TestCheckpointDropsFailedCells is the resume-retries-failures regression
// pin: a Failed line in the file (hand-written or from an older build) is
// not replayed as a result, and Record refuses to persist failed cells in
// the first place.
func TestCheckpointDropsFailedCells(t *testing.T) {
	path := filepath.Join(t.TempDir(), "failed.ckpt.jsonl")
	good := RunResult{Scenario: "alpha", Rep: 0, Seed: 7, Metrics: Metrics{Completed: true}}
	bad := RunResult{Scenario: "beta", Rep: 0, Seed: 7, Failed: true, Error: "boom"}
	var file []byte
	for _, res := range []RunResult{good, bad} {
		line, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		file = append(file, append(line, '\n')...)
	}
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}

	ckpt, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt.Close()
	if ckpt.Len() != 1 {
		t.Fatalf("loaded %d cells, want 1 (the failed one re-runs)", ckpt.Len())
	}
	if _, ok := ckpt.Lookup(Key{Scenario: "beta", Rep: 0}); ok {
		t.Fatal("failed cell resumed from checkpoint instead of retrying")
	}
	if _, ok := ckpt.Lookup(Key{Scenario: "alpha", Rep: 0}); !ok {
		t.Fatal("intact cell lost")
	}

	ckpt.Record(bad)
	if _, ok := ckpt.Lookup(Key{Scenario: "beta", Rep: 0}); ok {
		t.Fatal("Record accepted a failed cell")
	}
}

// splitLines splits a JSONL buffer into its non-empty lines.
func splitLines(data []byte) [][]byte {
	var lines [][]byte
	start := 0
	for i, b := range data {
		if b == '\n' {
			if i > start {
				lines = append(lines, data[start:i])
			}
			start = i + 1
		}
	}
	if start < len(data) {
		lines = append(lines, data[start:])
	}
	return lines
}

func joinLines(lines [][]byte) []byte {
	var out []byte
	for _, l := range lines {
		out = append(out, append(l, '\n')...)
	}
	return out
}
