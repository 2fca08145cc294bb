package project

import (
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/sim"
)

// GridConfig is Config: a Config with Projects is a co-run. The alias
// stays only because bench/ still names it.
type GridConfig = Config

// GridReport is what a shared-grid run produces: every tenant's full
// single-project Report plus the co-run quantities that only exist when
// projects contend — most importantly the measured grid share, the number
// the paper's §7 forecast could only assume.
type GridReport struct {
	Config Config `json:"-"` // the checked co-run config

	// Projects are the per-tenant campaign reports (same shape as a
	// single-project run). Their fleet-scoped fields — the §8 points
	// accounting — and the kernel accounting (EventsExecuted, PeakPending)
	// live on this struct instead: fleet and engine are shared, so
	// per-tenant values would double-count. MeanSpeedDown is mirrored into
	// each tenant report (it is the shared fleet's mean).
	Projects []*Report

	// Shares are the normalized configured resource shares; MeasuredShares
	// are the shares actually realized, measured as each tenant's fraction
	// of the reported CPU seconds consumed during the contention window
	// (from launch until the first tenant finishes, or the whole run when
	// none does). ShareWindowWeeks is that window's length.
	Shares           []float64
	MeasuredShares   []float64
	ShareWindowWeeks float64

	Completed    bool    // every tenant finished
	WeeksElapsed float64 // last tenant completion (or MaxWeeks)

	// Fleet-scoped accounting (shared across tenants).
	MeanSpeedDown  float64
	PointsTotal    float64
	AccountingBias float64
	HardwareTrend  float64

	// Kernel accounting for the whole co-run.
	EventsExecuted uint64
	PeakPending    int
}

// MeasuredShareOf returns tenant i's measured grid share relative to the
// whole modeled grid (not just this fleet): the mux share scaled by the
// fleet's FullShare slice. This is the number to compare against
// forecast.PhaseIIPlan.GridShare.
func (r *GridReport) MeasuredShareOf(i int) float64 {
	share := 1.0
	if r.Config.FullShare > 0 {
		share = r.Config.FullShare
	}
	return r.MeasuredShares[i] * share
}

// MaxShareError returns the largest |measured − configured| share gap
// across tenants: the headline arbitration-fidelity metric.
func (r *GridReport) MaxShareError() float64 {
	var max float64
	for i := range r.Shares {
		if d := math.Abs(r.MeasuredShares[i] - r.Shares[i]); d > max {
			max = d
		}
	}
	return max
}

// Grid is a configured, runnable shared multi-project simulation: the run
// context (Campaign) armed with one tenant per project behind a work-fetch
// mux, on a flat-share fleet schedule. Grid itself keeps only the
// share-window bookkeeping and the GridReport assembly.
//
// # Determinism and Reset contract
//
// A Grid run is byte-for-bit deterministic in its Config: the host
// kernel serializes all events, hosts draw from per-host streams, and the
// mux breaks debt ties from per-host seeded streams. The fleet runs on the
// volunteer.ShardKernel bound to the mux. GridRunner pools a Grid the
// way Runner pools a Campaign — engine, servers, host kernel, mux and
// report buffers are retained across runs, and a pooled run's GridReport
// is bit-identical to a fresh NewGrid(cfg).Run() (grid_test.go asserts
// it). The returned GridReport is owned by the GridRunner and valid only
// until its next Run.
type Grid struct {
	c   Campaign
	cfg Config // checked: the tenants and the fleet schedule, a flat FullShare

	windowClosed bool

	report GridReport
}

// checkGridConfig validates a co-run config, fills defaults, normalizes
// shares, and pushes the fleet fields down into every tenant
// configuration. The checked config is the co-run's fleet schedule: no
// control or ramp weeks, a flat FullShare from launch.
func checkGridConfig(cfg Config) Config {
	if len(cfg.Projects) == 0 {
		panic("project: grid needs at least one project")
	}
	if cfg.Faults != nil {
		// The fault plane wraps a single-project work source; the mux
		// path has no plane to wrap it with.
		panic("project: the fault plane is single-project only (a co-run cannot set Faults)")
	}
	if len(cfg.Projects) > 256 {
		panic("project: at most 256 co-running projects")
	}
	if cfg.Shares != nil && len(cfg.Shares) != len(cfg.Projects) {
		panic(fmt.Sprintf("project: %d shares for %d projects", len(cfg.Shares), len(cfg.Projects)))
	}
	if cfg.Shares == nil {
		cfg.Shares = make([]float64, len(cfg.Projects))
		for i := range cfg.Shares {
			cfg.Shares[i] = 1
		}
	}
	var sum float64
	for _, s := range cfg.Shares {
		checkFinite("resource share", s)
		if s <= 0 {
			panic("project: resource shares must be positive")
		}
		sum += s
	}
	checkFinite("resource share sum", sum)
	norm := make([]float64, len(cfg.Shares))
	for i, s := range cfg.Shares {
		if norm[i] = s / sum; norm[i] == 0 {
			panic(fmt.Sprintf("project: resource share %v vanishes against the sum %v", s, sum))
		}
	}
	cfg.Shares = norm
	if !(cfg.FullShare >= 0 && cfg.FullShare <= 1) {
		panic(fmt.Sprintf("project: co-run FullShare %v out of [0,1]", cfg.FullShare))
	}
	if cfg.FullShare == 0 {
		cfg.FullShare = 1
	}
	cfg.ControlWeeks, cfg.RampWeeks, cfg.ControlShare = 0, 0, 0
	checkFinite("HostScale", cfg.HostScale)
	if cfg.HostScale <= 0 {
		panic("project: HostScale must be positive")
	}
	cfg.MaxWeeks = checkMaxWeeks(cfg.MaxWeeks)
	checkFleet(cfg.Host, cfg.Grid)
	if p := cfg.Probe; p != nil && p.Trace != nil {
		cfg.Host.OnSaboteurTurn = func(id int, at sim.Time) {
			p.Emit(at, "saboteur-turn", obs.Int("host", int64(id)))
		}
	}
	projects := make([]Config, len(cfg.Projects))
	for i, p := range cfg.Projects {
		if p.Faults.Enabled() {
			// The fault plane wraps a single-project work source; the mux
			// path has no plane to wrap it with. Refuse loudly rather than
			// run a silently fault-free tenant.
			panic("project: the fault plane is single-project only (grid tenants cannot set Faults)")
		}
		p = checkConfig(p)
		// Grid-level fields win: the tenant has no population of its own,
		// and no phase schedule either — tenants contend from day one, so
		// the whole series is the full-power window.
		p.Host = cfg.Host
		p.Grid = cfg.Grid
		p.HostScale = cfg.HostScale
		p.MaxWeeks = cfg.MaxWeeks
		p.ControlWeeks, p.RampWeeks = 0, 0
		p.ControlShare, p.FullShare = 0, 0
		projects[i] = p
	}
	cfg.Projects = projects
	return cfg
}

// NewGrid builds a shared grid from a co-run configuration.
func NewGrid(cfg Config) *Grid {
	g := &Grid{}
	g.arm(cfg)
	return g
}

// arm checks cfg and arms the run context with its tenants behind the mux
// (built on first use, reset afterwards), the checked config as the fleet
// schedule. The share window reopens and the report's slices keep their
// storage.
func (g *Grid) arm(cfg Config) {
	g.cfg = checkGridConfig(cfg)
	g.c.grid, g.c.fleet = g, &g.cfg
	g.c.arm(g.cfg.Projects, g.cfg.Shares)
	g.windowClosed = false

	r := &g.report
	projects, shares, measured := r.Projects[:0], r.Shares[:0], r.MeasuredShares[:0]
	*r = GridReport{Config: g.cfg}
	r.Projects, r.Shares, r.MeasuredShares = projects, shares, measured
}

// GridRunner runs shared-grid co-runs back to back on one reusable arena
// of state, the multi-project analogue of Runner. Not safe for concurrent
// use; pool one per worker.
type GridRunner struct {
	g *Grid
}

// NewGridRunner returns an empty runner; the first Run builds its arenas.
func NewGridRunner() *GridRunner { return &GridRunner{} }

// Run simulates one co-run, reusing the previous run's storage. Reports
// are bit-for-bit identical to NewGrid(cfg).Run() for the same cfg.
func (r *GridRunner) Run(cfg Config) *GridReport {
	if r.g == nil {
		r.g = &Grid{}
		r.g.c.pooled = true
	}
	r.g.arm(cfg)
	return r.g.Run()
}

// closeShareWindow snapshots every tenant's consumed CPU at the moment the
// first tenant finishes: from here on the finished tenant stops contending,
// so measured shares are only meaningful up to this point.
func (g *Grid) closeShareWindow(week float64) {
	if g.windowClosed {
		return
	}
	g.windowClosed = true
	g.report.ShareWindowWeeks = week
	if p := g.cfg.Probe; p != nil {
		p.Emit(week*sim.Week, "share-window-close", obs.Num("at-week", week))
	}
	for _, t := range g.c.tenants {
		t.coCPU = t.server.Stats.CPUSeconds
	}
}

// watchShareWindow runs after a weekly tick's feeds: the share window
// closes when the first tenant stops being able to absorb its slice (all
// batches out, queue below the restock level). Past that point the mux
// hands its time to the others by design, and CPU is no longer contended.
func (g *Grid) watchShareWindow(week float64, active int) {
	if g.windowClosed {
		return
	}
	for _, t := range g.c.tenants {
		if t.draining(active) {
			g.closeShareWindow(week)
			return
		}
	}
}

// Run executes the co-run and returns its report.
func (g *Grid) Run() *GridReport {
	g.c.start()
	g.c.runOut()
	g.finishReport()
	g.c.endRun(g.report.WeeksElapsed)
	return &g.report
}

// finishReport assembles the GridReport: per-tenant reports, measured
// shares over the contention window, and the shared-fleet accounting.
func (g *Grid) finishReport() {
	c := &g.c
	r := &g.report
	r.Completed = c.finished()
	r.EventsExecuted = c.engine.Executed()
	r.PeakPending = c.engine.MaxPending()
	r.MeanSpeedDown = c.kern.MeanSpeedDown()
	r.PointsTotal, r.AccountingBias, r.HardwareTrend = creditFleet(c.kern, c.ledger)

	if !g.windowClosed {
		// No tenant finished: the whole run was contended.
		g.closeShareWindow(g.cfg.MaxWeeks)
	}
	var windowCPU float64
	for _, t := range c.tenants {
		windowCPU += t.coCPU
	}
	for i, t := range c.tenants {
		t.finishReport()
		t.report.MeanSpeedDown = r.MeanSpeedDown
		r.Projects = append(r.Projects, &t.report)
		r.Shares = append(r.Shares, g.cfg.Shares[i])
		measured := 0.0
		if windowCPU > 0 {
			measured = t.coCPU / windowCPU
		}
		r.MeasuredShares = append(r.MeasuredShares, measured)
		if t.report.WeeksElapsed > r.WeeksElapsed {
			r.WeeksElapsed = t.report.WeeksElapsed
		}
	}
}
