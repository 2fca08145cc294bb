package experiment

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/costmodel"
	"repro/internal/obs"
	"repro/internal/project"
	"repro/internal/report"
)

// GridScenario is one named point of the multi-project design space: a
// mutation applied to a base shared-grid configuration. Like single-project
// scenarios, mutators must be pure functions of the config — the runner
// applies them concurrently to per-run copies.
type GridScenario struct {
	Name        string
	Description string
	Mutate      func(cfg *project.GridConfig)
}

// phase2Matrix synthesizes the §7 phase II cost matrix (5.67× the phase I
// work) against the base tenant's dataset — the heavyweight co-project
// several grid scenarios pit the HCMD workload against.
func phase2Matrix(p *project.Config) *costmodel.Matrix {
	return costmodel.Synthesize(p.DS, costmodel.SynthesizeOptions{
		Seed:        p.Seed + 11,
		MeanSeconds: costmodel.Table1.Mean * PhaseIIRatio,
		TargetTotal: costmodel.PaperTotalSeconds * PhaseIIRatio,
	})
}

// GridCatalog returns the built-in multi-project co-run scenarios. The
// base configuration (see core.SharedGridConfig) carries two equal HCMD
// tenants; each scenario reshapes the tenant mix, the resource shares, or
// both. The order is the canonical presentation order.
func GridCatalog() []GridScenario {
	return []GridScenario{
		{
			Name:        "two-project-equal",
			Description: "two identical HCMD workloads at equal resource shares: measured shares must match 50/50",
			Mutate: func(cfg *project.GridConfig) {
				cfg.Projects = cfg.Projects[:2]
				cfg.Shares = nil
			},
		},
		{
			Name:        "hcmd-25pct-share",
			Description: "the §7 assumption made mechanistic: HCMD at a 25% resource share against a phase-II-sized co-project holding 75%",
			Mutate: func(cfg *project.GridConfig) {
				cfg.Projects = cfg.Projects[:2]
				big := &cfg.Projects[1]
				big.M = phase2Matrix(big)
				cfg.Shares = []float64{0.25, 0.75}
				cfg.MaxWeeks = 120
			},
		},
		{
			Name:        "greedy-coproject",
			Description: "a co-project with a phase-II backlog, coarse 10h workunits and quorum 1 fights for the grid; the mux must still hold it to its half",
			Mutate: func(cfg *project.GridConfig) {
				cfg.Projects = cfg.Projects[:2]
				greedy := &cfg.Projects[1]
				greedy.M = phase2Matrix(greedy)
				greedy.HHours = 10
				greedy.Order = project.CostliestFirst
				greedy.Server.InitialQuorum = 1
				greedy.Server.SteadyQuorum = 1
				greedy.Server.QuorumSwitchTime = 0
				cfg.Shares = []float64{1, 1}
				cfg.MaxWeeks = 120
			},
		},
		{
			Name:        "phase1-phase2-corun",
			Description: "phase I and the 5.67× phase II workload co-running at equal shares on one grid",
			Mutate: func(cfg *project.GridConfig) {
				cfg.Projects = cfg.Projects[:2]
				p2 := &cfg.Projects[1]
				p2.M = phase2Matrix(p2)
				cfg.Shares = nil
				cfg.MaxWeeks = 120
			},
		},
		{
			Name:        "share-starvation",
			Description: "a 5% slice against a 95% phase-II giant: the debt mechanism must keep the small tenant's measured share at its slice, not zero",
			Mutate: func(cfg *project.GridConfig) {
				cfg.Projects = cfg.Projects[:2]
				big := &cfg.Projects[1]
				big.M = phase2Matrix(big)
				cfg.Shares = []float64{0.05, 0.95}
				cfg.MaxWeeks = 40 // the point is the share, not completion
			},
		},
	}
}

// GridLookup returns the grid catalog scenario with the given name.
func GridLookup(name string) (GridScenario, bool) {
	for _, s := range GridCatalog() {
		if s.Name == name {
			return s, true
		}
	}
	return GridScenario{}, false
}

// GridSelect resolves a CLI-style co-run scenario spec, mirroring Select.
func GridSelect(spec string) ([]GridScenario, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "all" {
		return GridCatalog(), nil
	}
	var out []GridScenario
	seen := make(map[string]bool)
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" || seen[name] {
			continue
		}
		s, ok := GridLookup(name)
		if !ok {
			return nil, fmt.Errorf("experiment: unknown co-run scenario %q (have: %s)", name, strings.Join(GridNames(), ", "))
		}
		seen[name] = true
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiment: empty co-run scenario selection %q", spec)
	}
	return out, nil
}

// GridNames returns the sorted co-run scenario names.
func GridNames() []string {
	cat := GridCatalog()
	names := make([]string, len(cat))
	for i, s := range cat {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}

// GridMetrics is the per-co-run outcome summary: the arbitration-fidelity
// headline (measured vs configured shares) plus per-project completion.
type GridMetrics struct {
	Completed        bool      `json:"completed"` // every tenant finished
	MakespanWeeks    float64   `json:"makespan_weeks"`
	ShareWindowWeeks float64   `json:"share_window_weeks"`
	Shares           []float64 `json:"shares"`
	MeasuredShares   []float64 `json:"measured_shares"`
	MaxShareError    float64   `json:"max_share_error"`
	ProjectWeeks     []float64 `json:"project_weeks"`
	CPUSeconds       float64   `json:"cpu_seconds"` // all tenants
}

// ExtractGridMetrics reduces a grid report to co-run sweep metrics.
func ExtractGridMetrics(rep *project.GridReport) GridMetrics {
	m := GridMetrics{
		Completed:        rep.Completed,
		MakespanWeeks:    rep.WeeksElapsed,
		ShareWindowWeeks: rep.ShareWindowWeeks,
		Shares:           append([]float64(nil), rep.Shares...),
		MeasuredShares:   append([]float64(nil), rep.MeasuredShares...),
		MaxShareError:    rep.MaxShareError(),
	}
	for _, p := range rep.Projects {
		m.ProjectWeeks = append(m.ProjectWeeks, p.WeeksElapsed)
		m.CPUSeconds += p.ServerStats.CPUSeconds
	}
	return m
}

// GridRunResult is one completed (scenario, replication) co-run cell. In
// GridSweep.Failed, Error carries the second panic message instead.
type GridRunResult struct {
	Scenario string      `json:"scenario"`
	Rep      int         `json:"rep"`
	Seed     uint64      `json:"seed"`
	Metrics  GridMetrics `json:"metrics"`
	Error    string      `json:"error,omitempty"`
}

// GridOptions parameterizes a co-run sweep.
type GridOptions struct {
	// Base is the shared-grid configuration each scenario mutates a copy
	// of. Base.Projects must carry at least as many tenants as the widest
	// scenario trims it to (core.SharedGridConfig(2, ...) covers the
	// built-in catalog).
	Base project.GridConfig

	Scenarios []GridScenario
	Reps      int // replications per scenario (≥ 1)
	Workers   int // 0 = GOMAXPROCS

	// BaseSeed is mixed with scenario and replication indexes exactly as
	// in the single-project sweep; 0 falls back to Base.Seed.
	BaseSeed uint64

	// Checkpoint and Progress mirror Options. A co-run cell is checkpointed
	// with its seed and its first tenant's WorkScale and HHours, and
	// resumes only under the same three.
	Checkpoint *Checkpoint
	Progress   func(Progress)

	// MetricsSink / TraceSink / SampleEvery mirror Options: per-worker obs
	// probes over shared sinks, re-tagged per cell.
	MetricsSink *obs.Sink
	TraceSink   *obs.Sink
	SampleEvery float64
}

// GridSweep is a completed co-run sweep.
type GridSweep struct {
	Results    []GridRunResult `json:"results"`
	Aggregates []GridAggregate `json:"aggregates"`

	// Failed holds the cells whose co-runs panicked twice, as in Sweep.
	Failed []GridRunResult `json:"failed,omitempty"`
}

// GridAggregate is one co-run scenario's cross-replication summary.
type GridAggregate struct {
	Scenario  string `json:"scenario"`
	Reps      int    `json:"reps"`
	Completed int    `json:"completed"`

	Makespan   CI `json:"makespan_weeks"`
	ShareError CI `json:"max_share_error"`
}

// GridAggregated groups co-run results by scenario in presentation order.
func GridAggregated(order []string, results []GridRunResult) []GridAggregate {
	byName := make(map[string][]GridRunResult, len(order))
	for _, r := range results {
		byName[r.Scenario] = append(byName[r.Scenario], r)
	}
	out := make([]GridAggregate, 0, len(order))
	for _, name := range order {
		group := byName[name]
		if len(group) == 0 {
			continue
		}
		mk := make([]float64, len(group))
		se := make([]float64, len(group))
		agg := GridAggregate{Scenario: name, Reps: len(group)}
		for i, r := range group {
			mk[i] = r.Metrics.MakespanWeeks
			se[i] = r.Metrics.MaxShareError
			if r.Metrics.Completed {
				agg.Completed++
			}
		}
		agg.Makespan = EstimateCI(mk)
		agg.ShareError = EstimateCI(se)
		out = append(out, agg)
	}
	return out
}

// GridTable renders co-run aggregates, one row per scenario with the
// per-project measured-vs-configured shares of the first replication.
func GridTable(aggs []GridAggregate, results []GridRunResult) *report.Table {
	firstRep := make(map[string]GridRunResult, len(aggs))
	for _, r := range results {
		if _, ok := firstRep[r.Scenario]; !ok || r.Rep < firstRep[r.Scenario].Rep {
			firstRep[r.Scenario] = r
		}
	}
	t := report.NewTable("Co-run sweep (mean ±95% CI across replications)",
		"scenario", "reps", "done", "makespan wk", "max share err", "shares (want → got, rep 0)")
	for _, a := range aggs {
		shares := ""
		if r, ok := firstRep[a.Scenario]; ok {
			parts := make([]string, len(r.Metrics.Shares))
			for i := range r.Metrics.Shares {
				parts[i] = fmt.Sprintf("%.2f→%.3f", r.Metrics.Shares[i], r.Metrics.MeasuredShares[i])
			}
			shares = strings.Join(parts, " ")
		}
		t.AddRow(
			a.Scenario,
			fmt.Sprintf("%d", a.Reps),
			fmt.Sprintf("%d/%d", a.Completed, a.Reps),
			fmt.Sprintf("%.1f ±%.1f", a.Makespan.Mean, a.Makespan.Half),
			fmt.Sprintf("%.4f ±%.4f", a.ShareError.Mean, a.ShareError.Half),
			shares,
		)
	}
	return t
}

// RunGrid executes the co-run sweep: Scenarios × Reps shared-grid
// simulations on the sweep engine's worker pool, each worker owning a
// pooled project.GridRunner. Every simulation is single-threaded and
// deterministic in its derived seed, so results and aggregates are
// independent of Workers. A cell that panics is retried once on a fresh
// runner and, if it panics again, lands in Failed with an error returned.
// Cancelling ctx stops handing out new cells and returns the partial sweep
// with the context error.
func RunGrid(ctx context.Context, opts GridOptions) (*GridSweep, error) {
	if len(opts.Base.Projects) == 0 {
		return nil, fmt.Errorf("experiment: GridOptions.Base needs at least one project")
	}
	if len(opts.Scenarios) == 0 {
		return nil, fmt.Errorf("experiment: no co-run scenarios selected")
	}
	if opts.Reps < 1 {
		return nil, fmt.Errorf("experiment: Reps must be ≥ 1, got %d", opts.Reps)
	}
	baseSeed := opts.BaseSeed
	if baseSeed == 0 {
		baseSeed = opts.Base.Seed
	}
	e := &engine{
		scale: opts.Base.Projects[0].WorkScale, hours: opts.Base.Projects[0].HHours, grid: true,
		runCell: func(w *worker, c cell, probe *obs.Probe, res *RunResult) {
			cfg := opts.Base // shallow copy; mutators own Projects/Shares edits
			cfg.Projects = append([]project.Config(nil), cfg.Projects...)
			cfg.Shares = append([]float64(nil), cfg.Shares...)
			cfg.Seed = c.seed
			opts.Scenarios[c.scen].Mutate(&cfg)
			cfg.Seed = c.seed // a mutator must not undo the derived seed
			cfg.Probe = probe
			m := ExtractGridMetrics(w.grid.Run(cfg))
			res.Grid = &m
		},
		workers: opts.Workers, ckpt: opts.Checkpoint, progress: opts.Progress,
		metrics: opts.MetricsSink, trace: opts.TraceSink, sampleEvery: opts.SampleEvery,
	}
	order := make([]string, len(opts.Scenarios))
	for si, sc := range opts.Scenarios {
		order[si] = sc.Name
		for r := 0; r < opts.Reps; r++ {
			e.cells = append(e.cells, cell{Key: Key{Scenario: sc.Name, Rep: r}, scen: si, seed: DeriveSeed(baseSeed, si, r)})
		}
	}
	finished, failed, err := e.run(ctx, nil)

	sw := &GridSweep{Results: make([]GridRunResult, 0, len(finished))}
	for _, r := range finished {
		sw.Results = append(sw.Results, GridRunResult{Scenario: r.Scenario, Rep: r.Rep, Seed: r.Seed, Metrics: *r.Grid})
	}
	for _, r := range failed {
		sw.Failed = append(sw.Failed, GridRunResult{Scenario: r.Scenario, Rep: r.Rep, Seed: r.Seed, Error: r.Error})
	}
	sw.Aggregates = GridAggregated(order, sw.Results)
	return sw, err
}
