package experiment

import (
	"fmt"
	"strings"

	"repro/internal/costmodel"
	"repro/internal/project"
	"repro/internal/report"
)

// GridCatalog returns the built-in multi-project co-run scenarios, the
// list a sweep over a co-run base (see core.SharedGridConfig, two equal
// HCMD tenants) selects from. Each scenario reshapes the tenant mix, the
// resource shares, or both; none carries a DivergesAt hint, since a co-run
// cannot fork. The order is the canonical presentation order.
func GridCatalog() []Scenario {
	return []Scenario{
		{
			Name:        "two-project-equal",
			Description: "two identical HCMD workloads at equal resource shares: measured shares must match 50/50",
			Mutate: func(cfg *project.Config) {
				cfg.Projects = cfg.Projects[:2]
				cfg.Shares = nil
			},
		},
		{
			Name:        "hcmd-25pct-share",
			Description: "the §7 assumption made mechanistic: HCMD at a 25% resource share against a phase-II-sized co-project holding 75%",
			Mutate: func(cfg *project.Config) {
				cfg.Projects = cfg.Projects[:2]
				big := &cfg.Projects[1]
				big.M = costmodel.SynthesizePhaseII(big.DS, big.Seed+11)
				cfg.Shares = []float64{0.25, 0.75}
				cfg.MaxWeeks = 120
			},
		},
		{
			Name:        "greedy-coproject",
			Description: "a co-project with a phase-II backlog, coarse 10h workunits and quorum 1 fights for the grid; the mux must still hold it to its half",
			Mutate: func(cfg *project.Config) {
				cfg.Projects = cfg.Projects[:2]
				greedy := &cfg.Projects[1]
				greedy.M = costmodel.SynthesizePhaseII(greedy.DS, greedy.Seed+11)
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
			Mutate: func(cfg *project.Config) {
				cfg.Projects = cfg.Projects[:2]
				p2 := &cfg.Projects[1]
				p2.M = costmodel.SynthesizePhaseII(p2.DS, p2.Seed+11)
				cfg.Shares = nil
				cfg.MaxWeeks = 120
			},
		},
		{
			Name:        "share-starvation",
			Description: "a 5% slice against a 95% phase-II giant: the debt mechanism must keep the small tenant's measured share at its slice, not zero",
			Mutate: func(cfg *project.Config) {
				cfg.Projects = cfg.Projects[:2]
				big := &cfg.Projects[1]
				big.M = costmodel.SynthesizePhaseII(big.DS, big.Seed+11)
				cfg.Shares = []float64{0.05, 0.95}
				cfg.MaxWeeks = 40 // the point is the share, not completion
			},
		},
	}
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

// GridRunResult is one completed (scenario, replication) co-run cell in
// its gridsweep.json form. In GridSweep.Failed, Error carries the second
// panic message instead.
type GridRunResult struct {
	Scenario string      `json:"scenario"`
	Rep      int         `json:"rep"`
	Seed     uint64      `json:"seed"`
	Metrics  GridMetrics `json:"metrics"`
	Error    string      `json:"error,omitempty"`
}

// GridSweep is a completed co-run sweep in its gridsweep.json form.
type GridSweep struct {
	Results    []GridRunResult `json:"results"`
	Aggregates []GridAggregate `json:"aggregates"`

	// Failed holds the cells whose co-runs panicked twice, as in Sweep.
	Failed []GridRunResult `json:"failed,omitempty"`
}

// NewGridSweep renders a co-run Sweep as a GridSweep: each cell's co-run
// metrics, the per-scenario aggregates and the failed cells. A scenario's
// cells are adjacent in Results, so their order is the selection's.
func NewGridSweep(sw *Sweep) *GridSweep {
	g := &GridSweep{Results: make([]GridRunResult, 0, len(sw.Results))}
	var order []string
	for _, r := range sw.Results {
		if len(order) == 0 || order[len(order)-1] != r.Scenario {
			order = append(order, r.Scenario)
		}
		g.Results = append(g.Results, GridRunResult{Scenario: r.Scenario, Rep: r.Rep, Seed: r.Seed, Metrics: *r.Grid})
	}
	for _, r := range sw.Failed {
		g.Failed = append(g.Failed, GridRunResult{Scenario: r.Scenario, Rep: r.Rep, Seed: r.Seed, Error: r.Error})
	}
	g.Aggregates = GridAggregated(order, g.Results)
	return g
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
