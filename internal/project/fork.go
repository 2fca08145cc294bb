package project

import "repro/internal/sim"

// This file and portable.go are the snapshot/fork path: a Runner can run a
// campaign's shared prefix once, snapshot the run context at a divergence
// time, and then finish the run repeatedly — once per what-if
// configuration.
//
//	r.Begin(base)            // build + arm, nothing executed
//	r.RunTo(T)               // events strictly before T
//	r.Snapshot()             // capture at the boundary (Materialize returns it)
//	rep := r.Fork(cellCfg)   // swap config, finish → report
//	rep2 := r.Fork(cell2Cfg) // next cell, same prefix
//	r.Restore()              // back to the snapshot under base, to RunTo a later T
//
// There is one snapshot contract, the portable one of the snapshot package
// doc: a PortableSnapshot owns every byte it holds (Copies), names arena
// objects by allocation index (Translates), and carries no closures — the
// adopter re-runs the same Reset/prepare/bind machinery a fresh run uses
// and hands each sim.Call descriptor of the event schedule to its own
// handler of that kind (Re-binds).
//
// A Runner holds the snapshot it took or adopted last. The first Fork after
// Snapshot, Materialize or AdoptSnapshot runs on the live context, which
// still sits exactly at the snapshot; every later Fork, and Restore, first
// adopts the held snapshot back into the Runner's own arenas. A snapshot is
// read-only once built, so other Runners — typically the other workers of a
// sweep pool — can adopt it concurrently and race the suffixes of one
// prefix on all cores:
//
//	ps, err := pub.Materialize()   // self-contained, goroutine-safe
//	w.AdoptSnapshot(ps)            // rebuild the context in w's arenas
//	rep := w.Fork(cellCfg)
//
// Each returned Report is owned by the Runner and valid only until the
// next Fork/Run call, exactly like Runner.Run. Run and Begin drop the held
// snapshot. Fork requires an unprobed run and a fork config that agrees
// with the prefix config on everything resolved at bind time (dataset,
// seed, scales, order, horizon, fault plane, host model, the middleware's
// deadline and policies) and panics on a change to any of them; what the
// run reads as it goes (quorums, phases, grid model) still forks.

// applyConfig swaps the configuration in force at a fork point. Anything
// resolved at construction/bind time must be identical to the prefix
// config — those fields shaped state the snapshot captured — so a change
// to one panics, naming it, before any state changes:
// wcg.Server.ApplyConfig refuses the middleware's, and the checks here the
// rest. The host kernel fixes the host model at Reset.
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
	case cfg.Order != base.Order || cfg.MaxWeeks != base.MaxWeeks:
		panic("project: fork cannot change release order or horizon")
	case (cfg.Faults == nil) != (base.Faults == nil),
		cfg.Faults != nil && *cfg.Faults != *base.Faults:
		panic("project: fork cannot change the fault plane")
	case !cfg.Host.Equal(&base.Host):
		panic("project: fork cannot change the host model (Host): the host kernel fixes it at Reset")
	}
	c.t.server.ApplyConfig(cfg.Server)
	c.t.cfg = cfg
	c.t.report.Config = cfg
}

// Begin arms a run under cfg — pooled reset (or first build) plus the
// start phase — without executing any events. Begin/RunTo/Snapshot/Fork
// compose into Run: Begin(cfg); RunTo(end) ... is not needed for a plain
// run, which should keep calling Run.
func (r *Runner) Begin(cfg Config) {
	r.rearm(cfg)
	r.c.start()
}

// RunTo executes every event with a timestamp strictly before at, in
// exactly the order a full run would, and stops at the boundary without
// advancing the clock to it.
func (r *Runner) RunTo(at sim.Time) {
	r.atSnap = false
	r.c.kern.RunBefore(at)
}

// Snapshot captures the run context at the current event boundary as the
// Runner's held snapshot, replacing any earlier one: Materialize with the
// result discarded. It panics where Materialize would fail.
func (r *Runner) Snapshot() {
	if _, err := r.Materialize(); err != nil {
		panic(err)
	}
}

// Fork returns the context to the held snapshot, swaps in cfg and finishes
// the run, returning its report — byte-identical to a straight Run(cfg)
// when cfg's behavior before the snapshot time matches the prefix config's.
// The report is owned by the Runner and valid until the next Fork or Run.
func (r *Runner) Fork(cfg Config) *Report {
	r.Restore()
	r.atSnap = false
	r.c.applyConfig(cfg)
	r.c.runOut()
	return r.c.finish()
}

// Restore returns the context to the held snapshot under the prefix's own
// config, so the shared prefix can continue (RunTo a later divergence
// time) after a group of forks has run. A context that has not moved since
// the snapshot is left as it is; otherwise the snapshot is adopted.
func (r *Runner) Restore() {
	if r.ps == nil {
		panic("project: Restore/Fork without a Snapshot")
	}
	if !r.atSnap {
		r.AdoptSnapshot(r.ps)
	}
}
