package experiment

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/project"
	"repro/internal/protein"
)

// testBase returns a tiny, fast campaign configuration: 10 proteins with a
// sub-sampled grid population, finishing in well under a second per run.
func testBase(t *testing.T) project.Config {
	t.Helper()
	ds := protein.Generate(10, 31)
	m := costmodel.Synthesize(ds, costmodel.SynthesizeOptions{Seed: 32})
	cfg := project.DefaultConfig(ds, m)
	cfg.WorkScale = 0.3
	cfg.HostScale = 0.002
	cfg.Seed = 1234
	return cfg
}

func testScenarios() []Scenario {
	quorum1, _ := Lookup(Catalog(), "quorum-1")
	return []Scenario{
		{Name: "base", Description: "no-op", Mutate: func(*project.Config) {}},
		quorum1,
		{Name: "slow", Description: "coarse workunits", Mutate: func(cfg *project.Config) { cfg.HHours = 8 }},
	}
}

func TestSweepIdenticalAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) *Sweep {
		sw, err := Run(context.Background(), Options{
			Base:      testBase(t),
			Scenarios: testScenarios(),
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
		t.Fatal("per-run results differ between -workers=1 and -workers=8")
	}
	if !reflect.DeepEqual(serial.Aggregates, parallel.Aggregates) {
		t.Fatal("aggregates differ between -workers=1 and -workers=8")
	}
	if len(serial.Results) != 9 {
		t.Fatalf("expected 9 cells, got %d", len(serial.Results))
	}
	// Cells are reported in deterministic (scenario, rep) order.
	for i, r := range serial.Results {
		if want := testScenarios()[i/3].Name; r.Scenario != want || r.Rep != i%3 {
			t.Fatalf("cell %d = (%s, %d), want (%s, %d)", i, r.Scenario, r.Rep, want, i%3)
		}
	}
}

// TestPolicyScenariosWorkerIndependent pins the policy layer's
// determinism guarantee at the sweep level: scenarios that change the
// dispatch mechanism, the validation regime or the host cohorts (diurnal
// phases included) produce identical results whether the sweep runs on
// one worker or eight — nothing in the policy state may be shared across
// runs.
func TestPolicyScenariosWorkerIndependent(t *testing.T) {
	var scenarios []Scenario
	for _, name := range []string{"lifo-dispatch", "random-dispatch", "batch-priority",
		"adaptive-replication", "saboteurs-5pct", "deadline-2class", "diurnal-hosts"} {
		s, ok := Lookup(Catalog(), name)
		if !ok {
			t.Fatalf("catalog lost scenario %q", name)
		}
		scenarios = append(scenarios, s)
	}
	run := func(workers int) *Sweep {
		sw, err := Run(context.Background(), Options{
			Base:      testBase(t),
			Scenarios: scenarios,
			Reps:      2,
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
		t.Fatal("policy-scenario results differ between -workers=1 and -workers=8")
	}
	for _, r := range serial.Results {
		if r.Metrics.MakespanWeeks <= 0 || r.Metrics.DistinctWUs == 0 {
			t.Fatalf("degenerate cell %+v", r)
		}
	}
}

func TestSweepCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt.jsonl")
	base := testBase(t)
	opts := Options{Base: base, Scenarios: testScenarios(), Reps: 2, Workers: 2}

	ckpt, err := OpenCheckpoint(path, false)
	if err != nil {
		t.Fatal(err)
	}
	opts.Checkpoint = ckpt
	first, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Resumed != 0 {
		t.Fatalf("fresh sweep resumed %d cells", first.Resumed)
	}
	if err := ckpt.Close(); err != nil {
		t.Fatal(err)
	}

	ckpt2, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt2.Close()
	if ckpt2.Len() != len(first.Results) {
		t.Fatalf("checkpoint reloaded %d cells, want %d", ckpt2.Len(), len(first.Results))
	}
	opts.Checkpoint = ckpt2
	second, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.Resumed != len(first.Results) {
		t.Fatalf("resumed %d cells, want all %d", second.Resumed, len(first.Results))
	}
	if !reflect.DeepEqual(first.Results, second.Results) {
		t.Fatal("resumed sweep changed the results")
	}

	// A different base seed invalidates the recorded cells: nothing resumes.
	opts.BaseSeed = 999
	third, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if third.Resumed != 0 {
		t.Fatalf("checkpoint with stale seeds resumed %d cells", third.Resumed)
	}

	// So does a different workunit duration at the same seed.
	opts.BaseSeed = 0
	opts.Base.HHours = base.HHours * 2
	fourth, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if fourth.Resumed != 0 {
		t.Fatalf("checkpoint with stale HHours resumed %d cells", fourth.Resumed)
	}
}

func TestCheckpointSurvivesTornLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.ckpt.jsonl")
	opts := Options{Base: testBase(t), Scenarios: testScenarios(), Reps: 1, Workers: 1}

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

	// Simulate a kill mid-write: a torn line in the middle of the file,
	// with intact lines appended after it by a later resumed sweep.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("expected ≥3 checkpoint lines, got %d", len(lines))
	}
	corrupt := append([]byte{}, lines[0]...)
	corrupt = append(corrupt, []byte("{\"torn\n")...)
	for _, l := range lines[1:] {
		corrupt = append(corrupt, l...)
	}
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}

	ckpt2, err := OpenCheckpoint(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt2.Close()
	if ckpt2.Len() != len(first.Results) {
		t.Fatalf("torn line dropped intact cells: loaded %d, want %d", ckpt2.Len(), len(first.Results))
	}
}

// TestCheckpointTornTailResumesTwice: a sweep killed mid-write leaves a
// fragment with no trailing newline at the end of the file. The first
// resume must not glue its first recorded cell onto that fragment, or the
// next resume cannot parse the line and runs the cell again.
func TestCheckpointTornTailResumesTwice(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tail.ckpt.jsonl")
	cell := func(name string) RunResult { return RunResult{Scenario: name, Seed: 7, Scale: 0.5} }
	record := func(resume bool, names ...string) *Checkpoint {
		t.Helper()
		ckpt, err := OpenCheckpoint(path, resume)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			ckpt.Record(cell(name))
		}
		return ckpt
	}
	if err := record(false, "a", "b").Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Kill mid-write: b's line loses its second half and its newline.
	last := bytes.LastIndexByte(data[:len(data)-1], '\n') + 1
	torn := data[:last+(len(data)-last)/2]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := record(true, "b", "c").Close(); err != nil {
		t.Fatal(err)
	}
	second := record(true)
	defer second.Close()
	for _, name := range []string{"a", "b", "c"} {
		if _, ok := second.Lookup(Key{Scenario: name}); !ok {
			data, _ := os.ReadFile(path)
			t.Fatalf("cell %s recorded by a resumed sweep is lost on the next resume; file:\n%s", name, data)
		}
	}
	if second.Len() != 3 {
		t.Fatalf("second resume loaded %d cells, want 3", second.Len())
	}
}

// TestSweepCancellation: a campaign sweep whose context is already
// cancelled dispatches no cell and returns the empty partial sweep with the
// context error.
func TestSweepCancellation(t *testing.T) {
	checkCancelledSweep(t, Options{Base: testBase(t), Scenarios: testScenarios(), Reps: 2, Workers: 2})
}

// checkCancelledSweep runs opts under an already cancelled context: no
// cell may be dispatched, and Run must return the empty partial sweep with
// the context error.
func checkCancelledSweep(t *testing.T, opts Options) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sw, err := Run(ctx, opts)
	if err == nil {
		t.Fatal("expected context error")
	}
	if sw == nil {
		t.Fatal("cancelled sweep returned no partial result")
	}
	if len(sw.Results) != 0 {
		t.Fatalf("cancelled-before-start sweep ran %d cells", len(sw.Results))
	}
}

// TestRunValidation: Run refuses, before any cell runs, a campaign sweep
// without a base dataset, without scenarios or without replications.
func TestRunValidation(t *testing.T) {
	base := testBase(t)
	checkRunRefuses(t, map[string]Options{
		"missing base config": {Scenarios: testScenarios(), Reps: 1},
		"empty scenario list": {Base: base, Reps: 1},
		"zero reps":           {Base: base, Scenarios: testScenarios(), Reps: 0},
	})
}

// checkRunRefuses asserts that Run returns an error and no sweep for each
// named options set, and that no cell ran before it refused.
func checkRunRefuses(t *testing.T, cases map[string]Options) {
	t.Helper()
	ran := 0
	for name, opts := range cases {
		opts.Progress = func(Progress) { ran++ }
		if sw, err := Run(context.Background(), opts); err == nil || sw != nil {
			t.Errorf("%s: Run returned (sweep %v, err %v), want an error and no sweep", name, sw != nil, err)
		}
	}
	if ran != 0 {
		t.Fatalf("%d cells ran before Run refused the sweep", ran)
	}
}

// TestRunRejectsSampleEveryOutOfRange: a sampling cadence the sampler
// could not finish (1e-9 s asks for ~4e16 ticks) or that is negative or
// not finite is an error before any cell runs, over a campaign base and a
// co-run base.
func TestRunRejectsSampleEveryOutOfRange(t *testing.T) {
	base := testBase(t)
	for _, s := range []float64{1e-9, -1, math.NaN(), math.Inf(1)} {
		ran := 0
		for _, opts := range []Options{
			{Base: base, Scenarios: testScenarios()},
			{Base: project.Config{Projects: []project.Config{base}}, Scenarios: GridCatalog()[:1]},
		} {
			opts.Reps, opts.Workers, opts.SampleEvery, opts.Progress = 1, 1, s, func(Progress) { ran++ }
			if sw, err := Run(context.Background(), opts); err == nil || !strings.Contains(err.Error(), "SampleEvery") || sw != nil || ran != 0 {
				t.Errorf("SampleEvery %v, %d tenants: Run error %v (sweep returned: %v) after %d cells, want an error before any cell",
					s, len(opts.Base.Projects), err, sw != nil, ran)
			}
		}
	}
}

func TestEstimateCI(t *testing.T) {
	c := EstimateCI([]float64{2, 4, 6})
	if c.Mean != 4 {
		t.Fatalf("mean = %v", c.Mean)
	}
	if math.Abs(c.Std-2) > 1e-12 {
		t.Fatalf("sample std = %v, want 2", c.Std)
	}
	if math.Abs(c.Half-1.96*2/math.Sqrt(3)) > 1e-12 {
		t.Fatalf("ci half-width = %v", c.Half)
	}
	if one := EstimateCI([]float64{5}); one.Mean != 5 || one.Std != 0 || one.Half != 0 {
		t.Fatalf("single-sample CI = %+v", one)
	}
	if empty := EstimateCI(nil); !math.IsNaN(empty.Mean) {
		t.Fatalf("empty CI = %+v", empty)
	}
}

func TestAggregateAndRendering(t *testing.T) {
	sw, err := Run(context.Background(), Options{
		Base:      testBase(t),
		Scenarios: testScenarios(),
		Reps:      2,
		Workers:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Aggregates) != 3 {
		t.Fatalf("aggregates = %d, want 3", len(sw.Aggregates))
	}
	for _, a := range sw.Aggregates {
		if a.Reps != 2 {
			t.Fatalf("%s: reps = %d", a.Scenario, a.Reps)
		}
		if a.Makespan.Mean <= 0 || math.IsNaN(a.Makespan.Mean) {
			t.Fatalf("%s: makespan = %+v", a.Scenario, a.Makespan)
		}
		if a.Redundancy.Mean < 1 {
			t.Fatalf("%s: redundancy = %+v", a.Scenario, a.Redundancy)
		}
		if a.Useful.Mean <= 0 || a.Useful.Mean > 1 {
			t.Fatalf("%s: useful fraction = %+v", a.Scenario, a.Useful)
		}
	}
	rendered := Table(sw.Aggregates).String()
	for _, sc := range testScenarios() {
		if !strings.Contains(rendered, sc.Name) {
			t.Fatalf("rendered table misses scenario %s:\n%s", sc.Name, rendered)
		}
	}
	var csv strings.Builder
	if err := WriteCSV(&csv, sw.Aggregates); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("csv has %d lines, want header + 3 rows:\n%s", len(lines), csv.String())
	}
	wantCols := strings.Count(lines[0], ",")
	for i, l := range lines {
		if strings.Count(l, ",") != wantCols {
			t.Fatalf("csv line %d has ragged columns:\n%s", i, csv.String())
		}
	}
}
