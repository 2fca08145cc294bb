package project

import (
	"repro/internal/credit"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/volunteer"
	"repro/internal/wcg"
)

// This file is the snapshot/fork path: a Runner can run a campaign's
// shared prefix once, capture the full run context at a divergence time,
// and then finish the run repeatedly — once per what-if configuration —
// restoring the context between forks. The model is restore-in-place (see
// the snapshot package doc): in-flight event closures point at the live
// engine, server, host kernel and tenant, so a fork is not an independent copy
// but a byte-exact rewind of the one context; forks run sequentially.
//
//	r.Begin(base)            // build + arm, nothing executed
//	r.RunTo(T)               // events strictly before T
//	r.Snapshot()             // capture at the boundary
//	rep := r.Fork(cellCfg)   // rewind, swap config, finish → report
//	rep2 := r.Fork(cell2Cfg) // next cell, same prefix
//	r.Restore()              // rewind under base to continue to a later T
//
// Each returned Report is owned by the Runner and valid only until the
// next Fork/Run call, exactly like Runner.Run. Fork requires an unprobed
// run and a fork config that agrees with the prefix config on everything
// resolved at bind time (dataset, seed, scales, order, kernel plan,
// horizon, fault plane); wcg.Server.ApplyConfig documents the middleware
// half of that contract.

// tenantSnapshot captures the tenant's run state: config, batch progress,
// release cursor, weekly accumulators, the weekly-loop state and the
// report under construction (series/histogram/snapshot buffers under the
// snapshot slice rule; batch slicing plans are built in prepare and
// immutable during the run, so the batch-struct copies carry them).
type tenantSnapshot struct {
	cfg Config

	batches snapshot.Slice[batch]
	order   snapshot.Slice[int]

	next, outstanding int

	weeklyCPU   snapshot.Slice[float64]
	weeklyCount snapshot.Slice[int64]

	done     bool
	doneWeek float64
	snapIdx  int
	coCPU    float64
	obsPhase string

	report Report
	snaps  snapshot.Slice[Snapshot]
	hist   stats.HistogramSnapshot
	series [3]stats.SeriesSnapshot
}

func (s *tenantSnapshot) capture(t *tenant) {
	s.cfg = t.cfg
	s.batches.Capture(t.batches)
	s.order.Capture(t.order)
	s.next, s.outstanding = t.next, t.outstanding
	s.weeklyCPU.Capture(t.weeklyCPU)
	s.weeklyCount.Capture(t.weeklyCount)
	s.done, s.doneWeek, s.snapIdx, s.coCPU = t.done, t.doneWeek, t.snapIdx, t.coCPU
	s.obsPhase = t.obsPhase
	s.report = t.report
	s.snaps.Capture(t.report.Snapshots)
	s.hist.Capture(t.report.ReportedHours)
	// The weekly series are nil until a first finishReport has created
	// them; a fork's finish creates fresh ones then, and the struct-copy
	// restore drops them again.
	for i, ser := range []*stats.Series{t.report.HCMDVFTP, t.report.GridVFTP, t.report.ResultsWeek} {
		if ser != nil {
			s.series[i].Capture(ser)
		}
	}
}

func (s *tenantSnapshot) restore(t *tenant) {
	t.cfg = s.cfg
	t.batches = s.batches.Restore()
	t.order = s.order.Restore()
	t.next, t.outstanding = s.next, s.outstanding
	t.weeklyCPU = s.weeklyCPU.Restore()
	t.weeklyCount = s.weeklyCount.Restore()
	t.done, t.doneWeek, t.snapIdx, t.coCPU = s.done, s.doneWeek, s.snapIdx, s.coCPU
	t.obsPhase = s.obsPhase
	t.report = s.report
	t.report.Snapshots = s.snaps.Restore()
	s.hist.Restore(t.report.ReportedHours)
	for i, ser := range []*stats.Series{t.report.HCMDVFTP, t.report.GridVFTP, t.report.ResultsWeek} {
		if ser != nil {
			s.series[i].Restore(ser)
		}
	}
}

// runSnapshot bundles every subsystem's capture of one campaign context.
type runSnapshot struct {
	valid bool

	engine sim.EngineSnapshot
	server wcg.ServerSnapshot
	kern   volunteer.KernelSnapshot
	plane  faults.PlaneSnapshot
	ledger credit.LedgerSnapshot
	ten    tenantSnapshot

	weekly, daily, churn sim.TickerState
	hasChurn             bool
}

// snapshot captures the whole run context at the current event boundary.
func (c *Campaign) snapshot(s *runSnapshot) {
	if c.t.cfg.Probe != nil {
		panic("project: snapshot/fork requires an unprobed run")
	}
	s.engine.Capture(c.engine)
	s.server.Capture(c.t.server)
	s.kern.Capture(c.kern)
	if plane := c.activePlane(); plane != nil {
		s.plane.Capture(plane)
	}
	s.ledger.Capture(c.ledger)
	s.ten.capture(&c.t)
	s.weekly = c.weekly.State()
	s.daily = c.daily.State()
	s.hasChurn = c.churn != nil
	if s.hasChurn {
		s.churn = c.churn.State()
	}
	s.valid = true
}

// restoreSnap rewinds the whole run context to the captured boundary,
// config included: after it the campaign is back under the prefix config.
func (c *Campaign) restoreSnap(s *runSnapshot) {
	if !s.valid {
		panic("project: Restore/Fork without a Snapshot")
	}
	s.engine.Restore(c.engine)
	s.server.Restore(c.t.server)
	s.kern.Restore(c.kern)
	if plane := c.activePlane(); plane != nil {
		s.plane.Restore(plane)
	}
	s.ledger.Restore(c.ledger)
	s.ten.restore(&c.t)
	c.weekly.RestoreState(s.weekly)
	c.daily.RestoreState(s.daily)
	if s.hasChurn {
		c.churn.RestoreState(s.churn)
	}
}

// applyConfig swaps the configuration in force at a fork point. Anything
// resolved at construction/bind time must be identical to the prefix
// config — those fields shaped state the snapshot captured — and the
// checks here enforce the ones that are cheap to compare; the middleware
// policy fields are wcg.Server.ApplyConfig's documented contract, which
// the experiment layer's grouping test pins.
func (c *Campaign) applyConfig(cfg Config) {
	if cfg.Probe != nil {
		panic("project: forked runs are unprobed")
	}
	cfg = checkConfig(cfg)
	base := &c.t.cfg
	switch {
	case cfg.DS != base.DS || cfg.M != base.M:
		panic("project: fork cannot change the dataset or cost matrix")
	case cfg.Seed != base.Seed:
		panic("project: fork cannot change the seed")
	case cfg.WorkScale != base.WorkScale || cfg.HostScale != base.HostScale || cfg.HHours != base.HHours:
		panic("project: fork cannot change the work/host scales")
	case cfg.Order != base.Order || cfg.Shards != base.Shards || cfg.MaxWeeks != base.MaxWeeks:
		panic("project: fork cannot change release order, shard count or horizon")
	case (cfg.Faults == nil) != (base.Faults == nil),
		cfg.Faults != nil && *cfg.Faults != *base.Faults:
		panic("project: fork cannot change the fault plane")
	}
	c.t.cfg = cfg
	c.t.report.Config = cfg
	c.t.server.ApplyConfig(cfg.Server)
}

// Begin arms a run under cfg — pooled reset (or first build) plus the
// start phase — without executing any events. Begin/RunTo/Snapshot/Fork
// compose into Run: Begin(cfg); RunTo(end) ... is not needed for a plain
// run, which should keep calling Run.
func (r *Runner) Begin(cfg Config) {
	if r.c == nil {
		r.c = New(cfg)
		r.c.pooled = true
		r.c.t.server.Retain()
	} else {
		r.c.reset(cfg)
	}
	r.snap.valid = false
	r.c.start()
}

// RunTo executes every event with a timestamp strictly before at, in
// exactly the order a full run would, and stops at the boundary without
// advancing the clock to it.
func (r *Runner) RunTo(at sim.Time) {
	r.c.kern.RunBefore(at)
}

// Snapshot captures the run context at the current event boundary. The
// capture buffers live on the Runner and are reused by later Snapshot
// calls (a later snapshot overwrites the earlier one).
func (r *Runner) Snapshot() {
	r.c.snapshot(&r.snap)
}

// Fork rewinds the context to the snapshot, swaps in cfg and finishes the
// run, returning its report — byte-identical to a straight Run(cfg) when
// cfg's behavior before the snapshot time matches the prefix config's.
// The report is owned by the Runner and valid until the next Fork or Run.
func (r *Runner) Fork(cfg Config) *Report {
	r.c.restoreSnap(&r.snap)
	r.c.applyConfig(cfg)
	r.c.kern.RunUntil(r.c.t.cfg.MaxWeeks * sim.Week)
	return r.c.finish()
}

// Restore rewinds the context to the snapshot under the prefix's own
// config, so the shared prefix can continue (RunTo a later divergence
// time) after a group of forks has run.
func (r *Runner) Restore() {
	r.c.restoreSnap(&r.snap)
}
