// Package faults is the deterministic fault plane: server outage windows
// (planned maintenance plus seeded unplanned downtime), per-result
// upload-loss with a retry budget, and permanent host departure with
// replacement joins (churn). Every fault is an ordinary kernel event or a
// pure function of (seed, host, attempt) — never ambient randomness — so a
// fault scenario is byte-reproducible.
//
// A Config sets how much of each fault a run injects. The schedule and the
// degradation around them are package constants: maintenance recurs weekly
// from Wednesday 02:00, a lost upload is re-sent three times about 30
// minutes apart, a host probing an unplanned outage backs off from 15
// minutes doubling to 12 hours, and hosts reconnect after maintenance
// smeared over an hour.
//
// The plane sits between the host kernel and the middleware as a
// volunteer.WorkSource wrapper, and it alone owns the outage schedule:
// inside a window it refuses every work request without reaching the
// server, and spools every result that gets through the uplink, handing
// the spool to the server in arrival order from one drain event at the
// window's end. The server keeps no outage state; its deadline wheels keep
// running, so a copy times out during an outage exactly as it would have.
// The plane also implements volunteer.RetryAdvisor, replacing the flat
// IdleRetry with capped exponential backoff while the server is down.
//
// Determinism rules the plane obeys:
//
//   - The outage schedule is materialized up front by windows from its own
//     seed; no draws happen during the run.
//   - Per-host draws (upload loss, retry jitter, backoff jitter, reconnect
//     smear) come from a stateless splitmix-style hash of (seed, host,
//     sequence), so they are independent of the order hosts are simulated
//     in.
//   - Churn uses the population's existing SetTarget machinery at a fixed
//     ticker cadence; replacement hosts draw their seeds from the
//     kernel's FIFO population seed stream.
//
// A nil *Config (the default) leaves every code path untouched: the kernel
// binds the raw *wcg.Server and report bytes are identical to the
// pre-fault-plane code.
package faults

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/volunteer"
	"repro/internal/wcg"
)

// Config declares the fault plane for one campaign. All durations are in
// simulation seconds (use the sim.Hour/Day/Week constants); a zero Config
// is valid and means "no faults" (Enabled reports false and the project
// layer drops it). The schedule and the degradation behaviour around these
// amounts are fixed (see the package doc).
type Config struct {
	// Planned maintenance: an announced window of MaintenanceDuration
	// seconds (0 = none, otherwise less than a week) every week from
	// Wednesday 02:00, 2 days + 2 hours after the Monday-midnight epoch.
	// Hosts know the announced end: they sleep the window out and
	// reconnect smeared over an hour.
	MaintenanceDuration float64

	// Unplanned downtime: a seeded Poisson process of outages at
	// UnplannedPerWeek expected events per week, each with an
	// exponentially distributed duration of mean UnplannedMeanSeconds
	// (default 12 hours). Hosts cannot see the end: they probe with capped
	// exponential backoff.
	UnplannedPerWeek     float64
	UnplannedMeanSeconds float64

	// Flaky uplink: each returned result is lost with probability
	// UploadLossProb (per attempt, hashed from seed/host/upload-sequence).
	// A lost upload is retried three times, each retry delayed by 30 min
	// with ±50% seeded jitter; when the budget runs out the result is
	// dropped and the server's deadline wheel eventually reissues the work.
	UploadLossProb float64

	// Churn: the expected fraction of active hosts that permanently
	// depart per week. Each departure is paired with a replacement join,
	// so the fleet size target is preserved while host identities turn
	// over (the paper's grid grew on balance; churn models the turnover
	// underneath).
	ChurnPerWeek float64

	// NoBackoff disables the hosts' exponential backoff while an
	// unplanned outage lasts: every probe waits a flat 15 min, the
	// thundering-herd control scenario.
	NoBackoff bool

	// Seed drives the outage schedule and the per-host fault hashes;
	// 0 derives it from the campaign seed so fault draws never share a
	// stream with the simulation's own generators.
	Seed uint64
}

// Enabled reports whether the configuration injects any fault at all.
// A Config that only sets NoBackoff is not enabled — there is nothing to
// degrade gracefully from.
func (c *Config) Enabled() bool {
	return c != nil &&
		(c.MaintenanceDuration > 0 || c.UnplannedPerWeek > 0 ||
			c.UploadLossProb > 0 || c.ChurnPerWeek > 0)
}

// The fixed schedule and degradation constants of the plane.
const (
	// Planned maintenance recurs every maintenanceEvery, the first window
	// opening maintenanceOffset into the run (Wednesday 02:00).
	maintenanceEvery  = sim.Week
	maintenanceOffset = 2*sim.Day + 2*sim.Hour

	// A lost upload is re-sent up to uploadRetries times, each re-send
	// uploadRetryDelay ±50 % after the loss. An in-flight re-send carries
	// its remaining budget in the one-byte K1 slot of its
	// sim.CallUploadRetry descriptor.
	uploadRetries    = 3
	uploadRetryDelay = 30 * sim.Minute

	// A host probing an unplanned outage waits backoffBase, doubling per
	// probe up to backoffCap (±50 % jitter); after a planned window it
	// reconnects at a random offset within reconnectSmear of the end.
	backoffBase    = 15 * sim.Minute
	backoffCap     = 12 * sim.Hour
	reconnectSmear = sim.Hour

	// maxOutagesPerWeek bounds the unplanned-outage cadence at one outage
	// start per simulated minute — the granularity below which an outage
	// vanishes (windows stretches shorter unplanned outages to a minute) —
	// so the materialized schedule stays finite.
	maxOutagesPerWeek = sim.Week / sim.Minute
)

// Normalized returns a copy with the unplanned-outage mean's default (12 h)
// filled in, panicking on out-of-range values (mirroring the project
// layer's checkConfig convention: a bad config is a programming error, not
// a runtime state).
func (c Config) Normalized() Config {
	for _, v := range [...]float64{c.MaintenanceDuration, c.UnplannedPerWeek, c.UnplannedMeanSeconds,
		c.UploadLossProb, c.ChurnPerWeek} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// NaN fails every range check below and ±Inf passes the
			// one-sided ones; an infinite outage rate never finishes windows.
			panic(fmt.Sprintf("faults: non-finite value %v in %+v", v, c))
		}
	}
	switch {
	case c.MaintenanceDuration < 0 || c.MaintenanceDuration >= maintenanceEvery:
		panic(fmt.Sprintf("faults: maintenance window %vs outside [0, %vs), its weekly period", c.MaintenanceDuration, maintenanceEvery))
	case c.UnplannedPerWeek < 0 || c.UnplannedMeanSeconds < 0:
		panic(fmt.Sprintf("faults: negative unplanned-outage rate or mean %+v", c))
	case c.UnplannedPerWeek > maxOutagesPerWeek:
		panic(fmt.Sprintf("faults: UnplannedPerWeek %v above %v (one a minute)", c.UnplannedPerWeek, maxOutagesPerWeek))
	case c.UploadLossProb < 0 || c.UploadLossProb >= 1:
		panic(fmt.Sprintf("faults: UploadLossProb %v outside [0,1)", c.UploadLossProb))
	case c.ChurnPerWeek < 0 || c.ChurnPerWeek > 1:
		panic(fmt.Sprintf("faults: ChurnPerWeek %v outside [0,1]", c.ChurnPerWeek))
	}
	if c.UnplannedPerWeek > 0 && c.UnplannedMeanSeconds == 0 {
		c.UnplannedMeanSeconds = 12 * sim.Hour
	}
	return c
}

// EffectiveSeed resolves the fault seed for a run: the explicit Seed when
// set, otherwise a fixed perturbation of the campaign seed (so the fault
// plane never consumes — or collides with — the simulation's own streams).
func (c *Config) EffectiveSeed(runSeed uint64) uint64 {
	if c.Seed != 0 {
		return c.Seed
	}
	return runSeed ^ 0xfa17a1de5eedc0de
}

// window is one server-down interval of the materialized outage schedule.
// Planned windows are announced (hosts wait them out and reconnect
// smeared); unplanned ones are probed with exponential backoff. A merged
// window counts as planned only if every constituent was — hosts cannot
// trust an announced end that an unplanned overrun extends.
type window struct {
	Start, End float64
	Planned    bool
}

// Domain constants separating the stateless hash streams; arbitrary odd
// 64-bit values, fixed forever (changing one changes every fault scenario's
// bytes).
const (
	domSchedule = 0x9d8e2c6a4b371f55
	domLoss     = 0x5bf0363577b9c8e3
	domRetry    = 0xc2b2ae3d27d4eb4f
	domBackoff  = 0x165667b19e3779f9
	domSmear    = 0x27d4eb2f165667c5
)

// mix3 is a splitmix64-style avalanche of (seed, a, b): a stateless hash
// whose output is uniform enough for Bernoulli and jitter draws. Stateless
// is the point — the draw for (host, seq) is the same whichever kernel or
// simulation order reaches it.
func mix3(seed, a, b uint64) uint64 {
	z := seed + a*0x9e3779b97f4a7c15 + b*0xd1342543de82ef95
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// frac maps mix3 onto [0,1) with 53 uniform bits.
func frac(seed, a, b uint64) float64 {
	return float64(mix3(seed, a, b)>>11) * (1.0 / (1 << 53))
}

// windows materializes the outage schedule for one run: the planned
// maintenance series plus a seeded walk of unplanned outages, sorted,
// coalesced (overlapping or touching windows merge) and clipped to the
// horizon. Pure function of (cfg, seed, horizon), so a plane Reset under
// a snapshot's config recomputes the source's schedule.
func windows(c *Config, seed uint64, horizon float64) []window {
	var wins []window
	if c.MaintenanceDuration > 0 {
		for t := maintenanceOffset; t < horizon; t += maintenanceEvery {
			wins = append(wins, window{Start: t, End: t + c.MaintenanceDuration, Planned: true})
		}
	}
	if c.UnplannedPerWeek > 0 {
		r := rng.New(seed ^ domSchedule)
		meanGap := sim.Week / c.UnplannedPerWeek
		for t := r.Exponential(meanGap); t < horizon; t += r.Exponential(meanGap) {
			d := r.Exponential(c.UnplannedMeanSeconds)
			if d < sim.Minute {
				d = sim.Minute // sub-minute blips would vanish under event granularity
			}
			wins = append(wins, window{Start: t, End: t + d})
		}
	}
	if len(wins) == 0 {
		return nil
	}
	sort.Slice(wins, func(i, j int) bool {
		if wins[i].Start != wins[j].Start {
			return wins[i].Start < wins[j].Start
		}
		return wins[i].End < wins[j].End
	})
	merged := wins[:1]
	for _, w := range wins[1:] {
		last := &merged[len(merged)-1]
		if w.Start <= last.End {
			if w.End > last.End {
				last.End = w.End
			}
			last.Planned = last.Planned && w.Planned
			continue
		}
		merged = append(merged, w)
	}
	return merged
}

// Stats counts the plane's fault injections and recoveries for one run.
type Stats struct {
	Refused        int64 // work requests refused inside outage windows
	Deferred       int64 // results spooled for post-outage validation
	LostUploads    int64 // upload attempts the flaky uplink ate
	RetriedUploads int64 // re-send events scheduled after a loss
	DroppedResults int64 // results abandoned after the retry budget
	Departures     int64 // hosts permanently churned out
	Recoveries     int64 // outage windows followed by a first dispatch
	RecoveryLagSum float64
	RecoveryLagMax float64
}

// Plane is the per-run fault state: the materialized outage schedule, the
// outage spool, the per-host backoff and upload-sequence tables, and the
// churn accumulator. It wraps a WorkSource, the tenant's server, as the one
// the host kernel binds. Not safe for concurrent use; like the server it
// lives on the serial execution path.
type Plane struct {
	cfg     Config
	eng     *sim.Engine
	inner   volunteer.WorkSource
	seed    uint64
	horizon float64

	wins           []window
	winIdx         int  // monotone cursor: first window not yet ended
	outageNoted    bool // OnOutage fired for wins[winIdx]
	recoverPending bool // a window ended; waiting for the first dispatch
	lastEnd        float64

	// Results that arrived inside the current window, in arrival order,
	// and whether the drain event at its end is armed.
	spool      []spooled
	spoolArmed bool

	// Per-host state, grown on demand (host IDs are dense in the
	// kernel). attempt/epoch implement per-window backoff; upSeq numbers
	// a host's upload attempts for the loss hash.
	attempt []int32
	epoch   []int32 // window index the attempt counter belongs to, -1 = none
	upSeq   []uint32

	churnCarry float64

	Stats Stats

	// Observability hooks (bound by the project layer when a probe is
	// attached; cleared on Reset). OnOutage fires at the first fetch the
	// plane refuses inside a window; OnRecovery at the first successful
	// dispatch after one, with the lag since the window ended.
	OnOutage   func(at sim.Time, planned bool)
	OnRecovery func(at sim.Time, lag float64)
}

// NewPlane builds a fault plane over inner for one run. cfg must already be
// Normalized and seed resolved via EffectiveSeed; horizon bounds the outage
// schedule (use the campaign's maximum runtime plus drain slack).
func NewPlane(eng *sim.Engine, inner volunteer.WorkSource, cfg Config, seed uint64, horizon float64) *Plane {
	p := &Plane{}
	p.Reset(eng, inner, cfg, seed, horizon)
	return p
}

// Reset rearms a pooled plane for a new run: recomputes the window
// schedule, rewinds the cursor, empties the spool and the per-host tables,
// zeroes stats and hooks. The slices keep their capacity.
func (p *Plane) Reset(eng *sim.Engine, inner volunteer.WorkSource, cfg Config, seed uint64, horizon float64) {
	p.cfg = cfg
	p.eng = eng
	p.inner = inner
	p.seed = seed
	p.horizon = horizon
	p.wins = windows(&cfg, seed, horizon)
	p.winIdx = 0
	p.outageNoted = false
	p.recoverPending = false
	p.lastEnd = 0
	clear(p.spool)
	p.spool = p.spool[:0]
	p.spoolArmed = false
	p.attempt = p.attempt[:0]
	p.epoch = p.epoch[:0]
	p.upSeq = p.upSeq[:0]
	p.churnCarry = 0
	p.Stats = Stats{}
	p.OnOutage = nil
	p.OnRecovery = nil
}

// growHost ensures the per-host tables cover host.
func (p *Plane) growHost(host int) {
	for len(p.attempt) <= host {
		p.attempt = append(p.attempt, 0)
		p.epoch = append(p.epoch, -1)
		p.upSeq = append(p.upSeq, 0)
	}
}

// advance moves the window cursor past every window that has ended by now
// and reports whether now falls inside the current one. O(1) amortized —
// simulation time never decreases.
func (p *Plane) advance(now float64) bool {
	for p.winIdx < len(p.wins) && now >= p.wins[p.winIdx].End {
		p.lastEnd = p.wins[p.winIdx].End
		p.recoverPending = true
		p.outageNoted = false
		p.winIdx++
	}
	return p.winIdx < len(p.wins) && now >= p.wins[p.winIdx].Start
}

// RequestWorkFor refuses every fetch inside an outage window without
// reaching the middleware — no dispatch, no deadline started;
// FetchRetryDelay decides how long the host backs off — and delegates
// otherwise. The first refusal of a window fires OnOutage, the first
// successful dispatch after a window records the recovery lag.
func (p *Plane) RequestWorkFor(host int) *wcg.Assignment {
	now := p.eng.Now()
	if p.advance(now) {
		p.Stats.Refused++
		if !p.outageNoted {
			p.outageNoted = true
			if p.OnOutage != nil {
				p.OnOutage(now, p.wins[p.winIdx].Planned)
			}
		}
		return nil
	}
	a := p.inner.RequestWorkFor(host)
	if a != nil && p.recoverPending {
		p.recoverPending = false
		lag := now - p.lastEnd
		p.Stats.Recoveries++
		p.Stats.RecoveryLagSum += lag
		if lag > p.Stats.RecoveryLagMax {
			p.Stats.RecoveryLagMax = lag
		}
		if p.OnRecovery != nil {
			p.OnRecovery(now, lag)
		}
	}
	return a
}

// lostUpload draws the flaky-uplink Bernoulli for one upload attempt of
// host. Anonymous completions (host < 0) bypass the uplink model.
func (p *Plane) lostUpload(host int) bool {
	if p.cfg.UploadLossProb <= 0 || host < 0 {
		return false
	}
	p.growHost(host)
	seq := p.upSeq[host]
	p.upSeq[host]++
	return frac(p.seed^domLoss, uint64(host), uint64(seq)) < p.cfg.UploadLossProb
}

// CompleteFrom passes a finished result through the flaky uplink: lost
// uploads are re-sent after a jittered delay until the retry budget runs
// out, then dropped (the server's deadline wheel reissues the work). The
// host is not blocked on the retry — the re-send is an engine event.
func (p *Plane) CompleteFrom(a *wcg.Assignment, outcome wcg.Outcome, cpuSeconds float64, host int) {
	if !p.lostUpload(host) {
		p.deliver(a, outcome, cpuSeconds, host)
		return
	}
	p.Stats.LostUploads++
	p.scheduleRetry(a, outcome, cpuSeconds, host, uploadRetries)
}

// scheduleRetry queues one re-send attempt with ±50% seeded jitter, as a
// CallUploadRetry event that carries the result and its remaining budget,
// with the assignment in the event's reference; Handle re-draws the loss
// and either delivers, re-queues with the rest of the budget, or drops.
// The jitter is drawn at scheduling time (the event time carries it), so
// an adopted retry event needs no re-draw.
func (p *Plane) scheduleRetry(a *wcg.Assignment, outcome wcg.Outcome, cpuSeconds float64, host, budget int) {
	p.Stats.RetriedUploads++
	j := frac(p.seed^domRetry, uint64(host), uint64(p.upSeq[host]))
	p.eng.ScheduleCall(p.eng.Now()+uploadRetryDelay*(0.5+j),
		sim.Call{Kind: sim.CallUploadRetry, K0: uint8(outcome), K1: uint8(budget),
			A0: int32(host), A1: wcg.AssignmentIndex(a), F0: cpuSeconds}, p, a)
}

// Handle implements sim.Handler: the plane's events are its spool drains
// and its upload re-sends, whose assignment rides in ref.
func (p *Plane) Handle(c sim.Call, ref any) {
	if c.Kind == sim.CallSpoolDrain {
		p.drainSpool()
		return
	}
	a, _ := ref.(*wcg.Assignment)
	outcome, host, budget := wcg.Outcome(c.K0), int(c.A0), int(c.K1)
	if !p.lostUpload(host) {
		p.deliver(a, outcome, c.F0, host)
		return
	}
	p.Stats.LostUploads++
	if budget > 1 {
		p.scheduleRetry(a, outcome, c.F0, host, budget-1)
	} else {
		p.Stats.DroppedResults++
	}
}

// spooled is one result that arrived inside an outage window, held
// verbatim until the window's drain event hands it to the middleware.
type spooled struct {
	a       *wcg.Assignment
	cpu     float64
	host    int32 // reporting host identity (negative = anonymous)
	outcome wcg.Outcome
}

// deliver hands a result that got through the uplink to the middleware,
// or spools it inside an outage window: the window's first spooled result
// arms one drain event at its end. A spooled copy may time out on the
// server's deadline wheel in the meantime and then lands as a late return,
// the §5.1 path an offline straggler takes.
func (p *Plane) deliver(a *wcg.Assignment, outcome wcg.Outcome, cpuSeconds float64, host int) {
	if !p.advance(p.eng.Now()) {
		p.inner.CompleteFrom(a, outcome, cpuSeconds, host)
		return
	}
	p.Stats.Deferred++
	if !p.spoolArmed {
		p.spoolArmed = true
		p.eng.ScheduleCall(p.wins[p.winIdx].End, sim.Call{Kind: sim.CallSpoolDrain}, p, nil)
	}
	p.spool = append(p.spool, spooled{a: a, cpu: cpuSeconds, host: int32(host), outcome: outcome})
}

// drainSpool is a window's drain event: it hands the spooled results to
// the middleware in arrival order, in one slot of the event order.
func (p *Plane) drainSpool() {
	p.spoolArmed = false
	for i := 0; i < len(p.spool); i++ {
		sp := p.spool[i]
		p.spool[i] = spooled{}
		p.inner.CompleteFrom(sp.a, sp.outcome, sp.cpu, int(sp.host))
	}
	p.spool = p.spool[:0]
}

// DeadlineFor delegates to the middleware unchanged.
func (p *Plane) DeadlineFor(a *wcg.Assignment) float64 { return p.inner.DeadlineFor(a) }

// FetchRetryDelay implements volunteer.RetryAdvisor: outside an outage the
// flat idleRetry stands; inside a planned window the host sleeps to the
// announced end plus a smeared reconnect offset; inside an unplanned one
// it backs off exponentially (doubling per probe, capped, ±50% jitter),
// with the attempt counter reset per window. NoBackoff flattens the
// unplanned case to backoffBase — the thundering-herd control.
func (p *Plane) FetchRetryDelay(host int, idleRetry float64) float64 {
	if len(p.wins) == 0 {
		return idleRetry
	}
	now := p.eng.Now()
	if !p.advance(now) {
		return idleRetry
	}
	w := &p.wins[p.winIdx]
	if w.Planned {
		return (w.End - now) + reconnectSmear*frac(p.seed^domSmear, uint64(host), uint64(p.winIdx))
	}
	if p.cfg.NoBackoff {
		return backoffBase
	}
	p.growHost(host)
	if p.epoch[host] != int32(p.winIdx) {
		p.epoch[host] = int32(p.winIdx)
		p.attempt[host] = 0
	}
	n := p.attempt[host]
	p.attempt[host]++
	d := backoffBase * math.Pow(2, float64(min(n, 20)))
	if d > backoffCap {
		d = backoffCap
	}
	return d * (0.5 + frac(p.seed^domBackoff, uint64(host), uint64(p.winIdx)<<32|uint64(n)))
}

// Churn ticker parameters: the campaign samples departures every
// ChurnInterval, offset so the tick never collides with the weekly/daily
// feeders (distinct event times keep the ordering obvious rather than
// relying on seq tie-breaks).
const (
	ChurnInterval = sim.Day
	ChurnOffset   = sim.Day / 4
)

// ChurnEnabled reports whether the campaign needs a churn ticker at all.
func (p *Plane) ChurnEnabled() bool { return p.cfg.ChurnPerWeek > 0 }

// ChurnCount returns how many of the currently active hosts permanently
// depart at this tick, accumulating the fractional expectation so the
// long-run rate is exact regardless of fleet size.
func (p *Plane) ChurnCount(active int) int {
	p.churnCarry += float64(active) * p.cfg.ChurnPerWeek * (ChurnInterval / sim.Week)
	n := int(p.churnCarry)
	if n > active {
		n = active
	}
	p.churnCarry -= float64(n)
	p.Stats.Departures += int64(n)
	return n
}

// Report is the fault plane's contribution to the campaign report —
// downtime actually injected, what the flaky uplink cost, and how fast the
// fleet came back.
type Report struct {
	Outages             int     // outage windows in the schedule (merged)
	PlannedOutages      int     // of which announced maintenance
	DowntimeSeconds     float64 // total scheduled downtime inside the horizon
	LostUploads         int64
	RetriedUploads      int64
	DroppedResults      int64
	Departures          int64
	Recoveries          int64
	MeanRecoverySeconds float64 // mean lag from window end to first dispatch
	MaxRecoverySeconds  float64
}

// BuildReport summarizes the run.
func (p *Plane) BuildReport() Report {
	r := Report{
		LostUploads:        p.Stats.LostUploads,
		RetriedUploads:     p.Stats.RetriedUploads,
		DroppedResults:     p.Stats.DroppedResults,
		Departures:         p.Stats.Departures,
		Recoveries:         p.Stats.Recoveries,
		MaxRecoverySeconds: p.Stats.RecoveryLagMax,
	}
	for _, w := range p.wins {
		r.Outages++
		if w.Planned {
			r.PlannedOutages++
		}
		end := w.End
		if end > p.horizon {
			end = p.horizon
		}
		r.DowntimeSeconds += end - w.Start
	}
	if p.Stats.Recoveries > 0 {
		r.MeanRecoverySeconds = p.Stats.RecoveryLagSum / float64(p.Stats.Recoveries)
	}
	return r
}
