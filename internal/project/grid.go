package project

import (
	"fmt"
	"math"

	"repro/internal/credit"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/volunteer"
	"repro/internal/wcg"
)

// GridConfig parameterizes a shared multi-project grid run: one volunteer
// fleet multiplexed across N project tenants by resource share. The
// grid-level fields here (Host, Grid, GridShare, HostScale, Seed, MaxWeeks)
// override the same-named fields of every tenant Config — a tenant on a
// shared grid no longer owns a fleet or a phase schedule, only its
// workload (DS, M, HHours, WorkScale, Order, Seed for RandomOrder,
// SnapshotWeeks) and its middleware configuration (Server).
type GridConfig struct {
	// Projects are the tenant configurations, one per co-running project.
	// At most 256 (assignments carry the project index in a byte).
	Projects []Config
	// Shares are the tenants' resource shares: any positive weights,
	// normalized to sum to 1. Nil means equal shares.
	Shares []float64

	// Host configures the shared volunteer fleet; Grid models the
	// capacity of the whole World Community Grid it is carved from.
	Host volunteer.HostConfig
	Grid volunteer.GridModel
	// GridShare is the fraction of the modeled grid's capacity this shared
	// fleet represents (all tenants together). 0 means 1: the whole
	// grid. There is no per-tenant phase ramp — tenants contend for the
	// shared fleet through the work-fetch mux from day one, which is
	// exactly the §7 steady-state regime the forecast assumes.
	GridShare float64
	HostScale float64

	Seed     uint64
	MaxWeeks float64 // safety stop for the whole co-run

	// Probe, if non-nil, attaches the observability plane to the co-run:
	// tenant-scoped metric series get a "p<i>-" prefix, trace events carry
	// a "project" tag, and the shared fleet contributes the mux-debt-spread
	// series. Same zero-cost contract as Config.Probe.
	Probe *obs.Probe `json:"-"`
}

// GridReport is what a shared-grid run produces: every tenant's full
// single-project Report plus the co-run quantities that only exist when
// projects contend — most importantly the measured grid share, the number
// the paper's §7 forecast could only assume.
type GridReport struct {
	Config GridConfig `json:"-"`

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
// fleet's GridShare slice. This is the number to compare against
// forecast.PhaseIIPlan.GridShare.
func (r *GridReport) MeasuredShareOf(i int) float64 {
	share := 1.0
	if r.Config.GridShare > 0 {
		share = r.Config.GridShare
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

// Grid is a configured, runnable shared multi-project simulation.
//
// # Determinism and Reset contract
//
// A Grid run is byte-for-bit deterministic in its GridConfig: the host
// kernel serializes all events, hosts draw from per-host streams, and the
// mux breaks debt ties from per-host seeded streams. The fleet runs on a
// K=1 volunteer.ShardKernel bound to the mux. GridRunner pools a Grid the
// way Runner pools a Campaign — engine, servers, host kernel, mux and
// report buffers are retained across Reset, and a pooled run's GridReport
// is bit-identical to a fresh NewGrid(cfg).Run() (grid_test.go asserts
// it). The returned GridReport is owned by the GridRunner and valid only
// until its next Run.
type Grid struct {
	cfg     GridConfig
	engine  *sim.Engine
	mux     *volunteer.Mux
	kern    *volunteer.ShardKernel
	tenants []*tenant
	ledger  *credit.Ledger

	windowClosed bool
	pooled       bool

	report GridReport
}

// checkGridConfig validates cfg, fills defaults, normalizes shares, and
// pushes the grid-level fields down into every tenant configuration.
func checkGridConfig(cfg GridConfig) GridConfig {
	if len(cfg.Projects) == 0 {
		panic("project: grid needs at least one project")
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
		if s <= 0 {
			panic("project: resource shares must be positive")
		}
		sum += s
	}
	norm := make([]float64, len(cfg.Shares))
	for i, s := range cfg.Shares {
		norm[i] = s / sum
	}
	cfg.Shares = norm
	if cfg.GridShare < 0 || cfg.GridShare > 1 {
		panic("project: GridShare out of [0,1]")
	}
	if cfg.GridShare == 0 {
		cfg.GridShare = 1
	}
	if cfg.HostScale <= 0 {
		panic("project: HostScale must be positive")
	}
	if cfg.MaxWeeks <= 0 {
		cfg.MaxWeeks = 60
	}
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

// NewGrid builds a shared grid from the configuration.
func NewGrid(cfg GridConfig) *Grid {
	cfg = checkGridConfig(cfg)
	g := &Grid{cfg: cfg, engine: sim.NewEngine(), mux: volunteer.NewMux()}
	g.tenants = make([]*tenant, len(cfg.Projects))
	for i, p := range cfg.Projects {
		t := &tenant{}
		t.initTenant(p, wcg.NewServer(g.engine, p.Server))
		g.mux.Attach(t.server, cfg.Shares[i])
		g.tenants[i] = t
	}
	g.kern = volunteer.NewShardKernel(g.engine, nil, cfg.Host, rng.New(cfg.Seed), 1, gridWindow(cfg))
	g.kern.Multiplex(g.mux)
	g.ledger = credit.NewLedger()
	g.report.Config = cfg
	return g
}

// reset rearms the grid for another run, retaining every layer's backing
// storage (engine heap and arenas, per-server queues and slabs, the host
// kernel's columns and calendars, tenant batch plans and report buffers).
// Tenants beyond the new project count are dropped; missing ones are built
// fresh.
func (g *Grid) reset(cfg GridConfig) {
	cfg = checkGridConfig(cfg)
	g.cfg = cfg
	g.engine.Reset()
	g.mux.Reset()
	reuse := len(g.tenants)
	if reuse > len(cfg.Projects) {
		reuse = len(cfg.Projects)
		g.tenants = g.tenants[:reuse]
	}
	for i, p := range cfg.Projects {
		if i < reuse {
			t := g.tenants[i]
			t.server.Reset(p.Server)
			t.reset(p)
			g.mux.Attach(t.server, cfg.Shares[i])
			continue
		}
		t := &tenant{}
		t.initTenant(p, wcg.NewServer(g.engine, p.Server))
		t.server.Retain()
		g.mux.Attach(t.server, cfg.Shares[i])
		g.tenants = append(g.tenants, t)
	}
	g.kern.Reset(g.engine, nil, cfg.Host, rng.New(cfg.Seed), 1, gridWindow(cfg))
	g.kern.Multiplex(g.mux)
	g.ledger.Reset()
	g.windowClosed = false

	r := &g.report
	projects, shares, measured := r.Projects[:0], r.Shares[:0], r.MeasuredShares[:0]
	*r = GridReport{Config: cfg}
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
func (r *GridRunner) Run(cfg GridConfig) *GridReport {
	if r.g == nil {
		r.g = NewGrid(cfg)
		r.g.pooled = true
		for _, t := range r.g.tenants {
			t.server.Retain()
		}
	} else {
		r.g.reset(cfg)
	}
	return r.g.Run()
}

// gridWindow picks the host kernel's barrier width: the narrowest tenant's
// campaign window (a performance knob; any positive value is correct).
func gridWindow(cfg GridConfig) float64 {
	w := math.Inf(1)
	for _, p := range cfg.Projects {
		w = min(w, shardWindow(p))
	}
	return w
}

// hostTarget is the fleet size the grid asks for at week w: its GridShare
// slice of the modeled grid, flat from launch.
func (c *GridConfig) hostTarget(w float64) int {
	gridCap := c.Grid.VFTPAt(CampaignStartWeek + w)
	return max(1, int(math.Round(c.GridShare*gridCap*c.HostScale)))
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
	for _, t := range g.tenants {
		t.coCPU = t.server.Stats.CPUSeconds
	}
}

// Run executes the co-run and returns its report.
func (g *Grid) Run() *GridReport {
	cfg := &g.cfg
	for _, t := range g.tenants {
		t.prepare()
		t.bind()
	}
	probe := cfg.Probe
	sampler := g.bindProbe(probe)

	allDone := false
	kern := g.kern
	kern.SpawnHint = func(w float64) int {
		if allDone {
			return 0
		}
		return cfg.hostTarget(w) - kern.Active()
	}
	weekly := g.engine.Every(0, sim.Week, func(now sim.Time) {
		w := now / sim.Week
		if allDone {
			return
		}
		live := 0
		for _, t := range g.tenants {
			if t.done {
				continue
			}
			for t.snapIdx < len(t.cfg.SnapshotWeeks) && w >= t.cfg.SnapshotWeeks[t.snapIdx] {
				t.captureSnapshot(w)
				t.snapIdx++
			}
			if t.allDone() {
				t.done, t.doneWeek = true, w
				if t.probe != nil {
					t.emit(now, "tenant-drain", obs.Num("at-week", w))
				}
				for t.snapIdx < len(t.cfg.SnapshotWeeks) {
					t.captureSnapshot(t.cfg.SnapshotWeeks[t.snapIdx])
					t.snapIdx++
				}
				g.closeShareWindow(w)
				continue
			}
			live++
		}
		if live == 0 {
			allDone = true
			kern.SetTarget(0)
			return
		}
		kern.SetTarget(cfg.hostTarget(w))
		for _, t := range g.tenants {
			if !t.done {
				t.feed(kern.Active())
			}
		}
		if !g.windowClosed {
			// The share window closes when the first tenant stops being
			// able to absorb its slice (all batches out, queue below the
			// restock level): past that point the mux hands its time to
			// the others by design, and CPU is no longer contended.
			for _, t := range g.tenants {
				if t.draining(kern.Active()) {
					g.closeShareWindow(w)
					break
				}
			}
		}
	})
	daily := g.engine.Every(sim.Day/2, sim.Day, func(sim.Time) {
		if allDone {
			return
		}
		for _, t := range g.tenants {
			if !t.done {
				t.feed(kern.Active())
			}
		}
	})

	kern.RunUntil(cfg.MaxWeeks * sim.Week)
	weekly.Stop()
	daily.Stop()
	// Drain any stragglers (late returns) without advancing phases — and
	// without forecasting spawns for ticks that will never fire.
	kern.SpawnHint = nil
	kern.RunUntil(cfg.MaxWeeks*sim.Week + 30*sim.Day)
	if sampler != nil {
		sampler.Stop()
	}

	g.finishReport(allDone)
	r := &g.report
	if probe != nil {
		probe.Emit(g.engine.Now(), "run-end",
			obs.Str("completed", boolStr(allDone)),
			obs.Num("weeks", r.WeeksElapsed),
			obs.Int("events", int64(r.EventsExecuted)))
	}
	if !g.pooled {
		g.engine, g.kern, g.mux, g.ledger = nil, nil, nil, nil
		for _, t := range g.tenants {
			t.release()
		}
		g.tenants = nil
	}
	return r
}

// finishReport assembles the GridReport: per-tenant reports, measured
// shares over the contention window, and the shared-fleet accounting.
func (g *Grid) finishReport(allDone bool) {
	r := &g.report
	r.Completed = allDone
	r.EventsExecuted = g.engine.Executed()
	r.PeakPending = g.engine.MaxPending()
	r.MeanSpeedDown = g.kern.MeanSpeedDown()
	r.PointsTotal, r.AccountingBias, r.HardwareTrend = creditFleet(g.kern, g.ledger)

	if !g.windowClosed {
		// No tenant finished: the whole run was contended.
		g.closeShareWindow(g.cfg.MaxWeeks)
	}
	var windowCPU float64
	for _, t := range g.tenants {
		windowCPU += t.coCPU
	}
	for i, t := range g.tenants {
		t.finishReport(g.engine, t.done, t.doneWeek)
		t.report.MeanSpeedDown = r.MeanSpeedDown
		// Kernel accounting is co-run-wide: the grid report carries it,
		// and per-tenant copies would read as N× double-counted totals.
		t.report.EventsExecuted, t.report.PeakPending = 0, 0
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
