package experiment

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/project"
	"repro/internal/protein"
	"repro/internal/volunteer"
)

// testGridBase returns a tiny two-tenant shared-grid configuration over
// the runner-test dataset, fast enough for replicated sweeps.
func testGridBase(t *testing.T) project.GridConfig {
	t.Helper()
	ds := protein.Generate(10, 31)
	m := costmodel.Synthesize(ds, costmodel.SynthesizeOptions{Seed: 32})
	pa := project.DefaultConfig(ds, m)
	pa.WorkScale = 0.3
	pb := pa
	pb.Seed = pa.Seed + 1
	return project.GridConfig{
		Projects:  []project.Config{pa, pb},
		Host:      volunteer.DefaultHostConfig(),
		Grid:      volunteer.DefaultGridModel(),
		GridShare: 0.48,
		HostScale: 0.003,
		Seed:      1234,
		MaxWeeks:  80,
	}
}

func testGridScenarios() []GridScenario {
	return []GridScenario{
		{Name: "equal", Description: "two equal tenants", Mutate: func(cfg *project.GridConfig) { cfg.Shares = nil }},
		{Name: "skew", Description: "1:3 shares", Mutate: func(cfg *project.GridConfig) { cfg.Shares = []float64{1, 3} }},
	}
}

// TestGridSweepIdenticalAcrossWorkerCounts is the co-run analogue of the
// single-project workers=1-vs-N guarantee: grid results and aggregates
// must not depend on the worker pool size.
func TestGridSweepIdenticalAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) *GridSweep {
		sw, err := RunGrid(context.Background(), GridOptions{
			Base:      testGridBase(t),
			Scenarios: testGridScenarios(),
			Reps:      3,
			Workers:   workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sw
	}
	serial := run(1)
	parallel := run(8)
	if !reflect.DeepEqual(serial.Results, parallel.Results) {
		t.Fatal("co-run results differ between -workers=1 and -workers=8")
	}
	if !reflect.DeepEqual(serial.Aggregates, parallel.Aggregates) {
		t.Fatal("co-run aggregates differ between -workers=1 and -workers=8")
	}
	if len(serial.Results) != 6 {
		t.Fatalf("results = %d, want 6", len(serial.Results))
	}
	for _, r := range serial.Results {
		if r.Metrics.MaxShareError > 0.05 {
			t.Fatalf("%s rep %d: share error %.4f", r.Scenario, r.Rep, r.Metrics.MaxShareError)
		}
	}
}

// TestGridCatalogShape mirrors the single-project catalog hygiene rules.
func TestGridCatalogShape(t *testing.T) {
	cat := GridCatalog()
	if len(cat) < 5 {
		t.Fatalf("co-run catalog has %d scenarios, want ≥ 5", len(cat))
	}
	seen := make(map[string]bool)
	for _, s := range cat {
		if s.Name == "" || s.Description == "" || s.Mutate == nil {
			t.Fatalf("scenario %+v incomplete", s)
		}
		if seen[s.Name] {
			t.Fatalf("duplicate co-run scenario name %q", s.Name)
		}
		if !kebabName.MatchString(s.Name) {
			t.Fatalf("co-run scenario name %q is not kebab-case", s.Name)
		}
		seen[s.Name] = true
	}
	for _, want := range []string{"hcmd-25pct-share", "two-project-equal", "greedy-coproject", "phase1-phase2-corun", "share-starvation"} {
		if !seen[want] {
			t.Fatalf("co-run catalog missing %q", want)
		}
	}
}

// TestGridCatalogMutatorsPure: applying a co-run mutator twice to copies
// of the base yields equal configs, and the shared dataset/matrix survive
// untouched.
func TestGridCatalogMutatorsPure(t *testing.T) {
	base := testGridBase(t)
	for _, s := range GridCatalog() {
		a, b := base, base
		a.Projects = append([]project.Config(nil), base.Projects...)
		b.Projects = append([]project.Config(nil), base.Projects...)
		s.Mutate(&a)
		s.Mutate(&b)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: mutator is not a pure function of the config", s.Name)
		}
		if len(a.Projects) == 0 {
			t.Fatalf("%s: mutator dropped every project", s.Name)
		}
		for i, p := range a.Projects {
			if p.DS == nil || p.M == nil {
				t.Fatalf("%s: project %d lost dataset or matrix", s.Name, i)
			}
		}
	}
	pristineDS := protein.Generate(10, 31)
	pristineM := costmodel.Synthesize(pristineDS, costmodel.SynthesizeOptions{Seed: 32})
	if !reflect.DeepEqual(base.Projects[0].DS, pristineDS) || !reflect.DeepEqual(base.Projects[0].M, pristineM) {
		t.Fatal("some co-run mutator modified the shared dataset or cost matrix in place")
	}
}

// TestGridCatalogRunnable runs every co-run scenario once at a small scale
// through a pooled runner and sanity-checks the share arbitration.
func TestGridCatalogRunnable(t *testing.T) {
	base := testGridBase(t)
	runner := project.NewGridRunner()
	for si, s := range GridCatalog() {
		cfg := base
		cfg.Projects = append([]project.Config(nil), base.Projects...)
		cfg.Seed = DeriveSeed(base.Seed, si, 0)
		s.Mutate(&cfg)
		cfg.MaxWeeks = 25 // cap the heavyweight scenarios for test budget
		rep := runner.Run(cfg)
		m := ExtractGridMetrics(rep)
		if len(m.Shares) != len(m.MeasuredShares) || len(m.Shares) == 0 {
			t.Fatalf("%s: malformed shares %v / %v", s.Name, m.Shares, m.MeasuredShares)
		}
		var sum float64
		for _, sh := range m.Shares {
			sum += sh
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("%s: configured shares sum to %v", s.Name, sum)
		}
		if m.MaxShareError > 0.06 {
			t.Fatalf("%s: measured shares %v drifted from configured %v (err %.4f)",
				s.Name, m.MeasuredShares, m.Shares, m.MaxShareError)
		}
	}
}

func TestGridSelect(t *testing.T) {
	all, err := GridSelect("all")
	if err != nil || len(all) != len(GridCatalog()) {
		t.Fatalf("GridSelect(all) = %d scenarios, err %v", len(all), err)
	}
	some, err := GridSelect("share-starvation, two-project-equal,share-starvation")
	if err != nil {
		t.Fatal(err)
	}
	if len(some) != 2 || some[0].Name != "share-starvation" || some[1].Name != "two-project-equal" {
		t.Fatalf("GridSelect dedup/order broken: %d", len(some))
	}
	if _, err := GridSelect("no-such-corun"); err == nil || !strings.Contains(err.Error(), "co-run") {
		t.Fatalf("expected co-run unknown-name error, got %v", err)
	}
	if _, err := GridSelect(" , "); err == nil {
		t.Fatal("expected error for empty selection")
	}
}

func TestRunGridValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := RunGrid(ctx, GridOptions{Scenarios: testGridScenarios(), Reps: 1}); err == nil {
		t.Fatal("missing base accepted")
	}
	if _, err := RunGrid(ctx, GridOptions{Base: testGridBase(t), Reps: 1}); err == nil {
		t.Fatal("missing scenarios accepted")
	}
	if _, err := RunGrid(ctx, GridOptions{Base: testGridBase(t), Scenarios: testGridScenarios(), Reps: 0}); err == nil {
		t.Fatal("zero reps accepted")
	}
}

// TestRunGridCancellation: a cancelled context returns the partial sweep.
func TestRunGridCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sw, err := RunGrid(ctx, GridOptions{
		Base:      testGridBase(t),
		Scenarios: testGridScenarios(),
		Reps:      2,
		Workers:   1,
	})
	if err == nil {
		t.Fatal("cancelled sweep reported success")
	}
	if sw == nil {
		t.Fatal("cancelled sweep returned no partial result")
	}
}

// TestGridSweepIsolatesPanickingCell is the co-run analogue of
// TestSweepIsolatesPanickingCell: a scenario whose mutator poisons the
// shares panics in the project layer's grid config check. Each of its
// cells is retried once on a fresh GridRunner, lands in Failed with the
// panic message, and makes RunGrid fail, while the healthy scenarios'
// cells — one of them run on the rebuilt runner — and aggregates match a
// sweep that never met the poison.
func TestGridSweepIsolatesPanickingCell(t *testing.T) {
	var attempts atomic.Int32
	poison := GridScenario{Name: "poison", Description: "negative share", Mutate: func(cfg *project.GridConfig) {
		attempts.Add(1)
		cfg.Shares = []float64{-1, 1}
	}}
	filler := GridScenario{Name: "filler", Description: "no-op", Mutate: func(*project.GridConfig) {}}
	run := func(mid GridScenario) (*GridSweep, error) {
		healthy := testGridScenarios()
		return RunGrid(context.Background(), GridOptions{
			Base:      testGridBase(t),
			Scenarios: []GridScenario{healthy[0], mid, healthy[1]},
			Reps:      2,
			Workers:   1, // the last scenario runs on the runner rebuilt after the poison
		})
	}
	clean, err := run(filler)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := run(poison)
	if err == nil || !strings.Contains(err.Error(), "failed after a retry") {
		t.Fatalf("poisoned co-run sweep error = %v, want a failed-after-a-retry error", err)
	}
	if got := attempts.Load(); got != 4 {
		t.Errorf("poisoned mutator ran %d times, want 4 (2 reps, each retried once)", got)
	}
	if len(sw.Failed) != 2 {
		t.Fatalf("failed cells = %d, want 2", len(sw.Failed))
	}
	for _, r := range sw.Failed {
		if r.Scenario != "poison" || !strings.Contains(r.Error, "resource shares must be positive") {
			t.Fatalf("failed cell misrecorded: %+v", r)
		}
	}
	var want []GridRunResult
	for _, r := range clean.Results {
		if r.Scenario != "filler" {
			want = append(want, r)
		}
	}
	if !reflect.DeepEqual(sw.Results, want) {
		t.Fatal("healthy co-run cells differ from a sweep without the poison")
	}
	if !reflect.DeepEqual(sw.Aggregates, GridAggregated([]string{"equal", "skew"}, want)) {
		t.Fatal("healthy co-run aggregates differ from a sweep without the poison")
	}
	if data, err := json.Marshal(clean); err != nil || strings.Contains(string(data), `"failed"`) {
		t.Fatalf("a clean co-run sweep's JSON must not carry a failed list (err %v)", err)
	}
}

// TestGridSweepCheckpointResume: co-run cells record to the checkpoint and
// resume from it under the same match rule as campaign cells. A full
// resume runs nothing and reproduces the results; with half the lines
// dropped exactly the dropped cells re-run; and a co-run line never
// satisfies a campaign cell of the same name, seed, scale and hours.
func TestGridSweepCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.ckpt.jsonl")
	run := func(resume bool) (*GridSweep, map[Key]bool) {
		t.Helper()
		ckpt, err := OpenCheckpoint(path, resume)
		if err != nil {
			t.Fatal(err)
		}
		ran := make(map[Key]bool)
		sw, err := RunGrid(context.Background(), GridOptions{
			Base:       testGridBase(t),
			Scenarios:  testGridScenarios(),
			Reps:       2,
			Workers:    2,
			Checkpoint: ckpt,
			Progress: func(p Progress) {
				if !p.Resumed {
					ran[Key{Scenario: p.Result.Scenario, Rep: p.Result.Rep}] = true
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := ckpt.Close(); err != nil {
			t.Fatal(err)
		}
		return sw, ran
	}

	first, ran := run(false)
	if len(ran) != 4 {
		t.Fatalf("fresh co-run sweep ran %d cells, want 4", len(ran))
	}
	second, ran := run(true)
	if len(ran) != 0 {
		t.Fatalf("fully resumed co-run sweep re-ran %v", ran)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("resumed co-run sweep differs from the first run")
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := splitLines(data)
	if len(lines) != 4 {
		t.Fatalf("checkpoint has %d lines, want 4", len(lines))
	}
	dropped := make(map[Key]bool)
	for _, l := range lines[len(lines)/2:] {
		var r RunResult
		if err := json.Unmarshal(l, &r); err != nil || r.Grid == nil {
			t.Fatalf("co-run checkpoint line %s: err %v", l, err)
		}
		dropped[Key{Scenario: r.Scenario, Rep: r.Rep}] = true
	}
	if err := os.WriteFile(path, joinLines(lines[:len(lines)/2]), 0o644); err != nil {
		t.Fatal(err)
	}
	third, ran := run(true)
	if !reflect.DeepEqual(ran, dropped) {
		t.Fatalf("partial resume re-ran %v, want exactly the dropped %v", ran, dropped)
	}
	if !reflect.DeepEqual(first, third) {
		t.Fatal("partially resumed co-run sweep differs from the first run")
	}

	ckpt, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt.Close()
	sw, err := Run(context.Background(), Options{
		Base:       testBase(t),
		Scenarios:  []Scenario{{Name: "equal", Description: "no-op", Mutate: func(*project.Config) {}}},
		Reps:       1,
		Workers:    1,
		Checkpoint: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Resumed != 0 {
		t.Fatal("a co-run checkpoint line resumed a campaign cell")
	}
}
