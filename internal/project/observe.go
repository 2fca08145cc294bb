package project

import (
	"strconv"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/volunteer"
	"repro/internal/wcg"
)

// This file is the project layer's side of the observability plane: the
// metric catalog a probed run samples and the trace hooks a probed tenant
// fires. Everything here binds at Run start — an unprobed run never reaches
// this code beyond one nil check.
//
// Campaign metric catalog (single project; the grid adds a per-tenant
// "p<i>-" prefix to the tenant-scoped series):
//
//	queue-depth        gauge    workunits awaiting copies or validation
//	in-flight          gauge    copies currently in volunteers' hands
//	wheel-occ-<k>      gauge    deadline class k's timeout-ring occupancy
//	invalid-rate       gauge    cumulative invalid / received
//	late-rate          gauge    cumulative late returns / received
//	redundancy         gauge    copies sent per distinct workunit completed
//	credit-throughput  gauge    reported CPU seconds accrued per sim day
//	active-hosts       gauge    hosts attached and not stopped
//	hosts-joined       counter  hosts ever joined
//	results-received   counter  results returned, valid or not
//	completed-wus      counter  distinct workunits validated
//	timeouts           counter  copies reissued after deadline
//	cpu-seconds        counter  reported CPU seconds accrued
//	pending-events     gauge    kernel event-queue depth
//	events-executed    counter  kernel events executed
//	mux-debt-spread    gauge    (grid only) mean per-host debt max−min
//
// Fault runs (Config.Faults enabled) additionally register:
//
//	fault-refused         counter  work requests refused during outages
//	fault-deferred        counter  results spooled for post-outage validation
//	fault-lost-uploads    counter  upload attempts the flaky uplink ate
//	fault-dropped-results counter  results abandoned after the retry budget
//	fault-churned-hosts   counter  hosts permanently departed (churn)
//
// and the trace gains outage-begin / outage-recovered events.

// bindProbe attaches the probe to a single-project campaign: rebinds the
// registry to this run's objects, starts the observer sampler, and emits
// the run-start trace event. Returns the sampler ticker (nil when no
// metrics are attached); Run stops it after the straggler drain.
func (c *Campaign) bindProbe(p *obs.Probe) *sim.Ticker {
	if p == nil {
		return nil
	}
	c.t.bindObs(p, c.engine, "")
	p.Emit(0, "run-start",
		obs.Int("wus", c.t.report.DistinctWUs),
		obs.Num("ref-seconds", c.t.report.TotalRefWork),
		obs.Int("batches", int64(len(c.t.order))))
	var sampler *sim.Ticker
	if reg := p.Metrics; reg != nil {
		reg.Rebind()
		bindServerMetrics(reg, c.engine, c.t.server, "")
		bindFleetMetrics(reg, c.engine, c.kern, nil)
		sampler = c.engine.ObserveEvery(0, p.Cadence(), func(now sim.Time) {
			reg.Sample(now)
		})
	}
	c.bindFaultObs(p)
	return sampler
}

// bindFaultObs attaches the fault-plane trace hooks and metric series when
// the run has a fault plane bound. Fault-free runs register nothing, so
// the metric catalog — and the probe-neutrality golden bytes — are
// unchanged.
func (c *Campaign) bindFaultObs(p *obs.Probe) {
	pl := c.activePlane()
	if pl == nil {
		return
	}
	if p.Trace != nil {
		pl.OnOutage = func(at sim.Time, planned bool) {
			c.t.emit(at, "outage-begin", obs.Str("planned", boolStr(planned)))
		}
		pl.OnRecovery = func(at sim.Time, lag float64) {
			c.t.emit(at, "outage-recovered", obs.Num("lag-seconds", lag))
		}
	}
	if reg := p.Metrics; reg != nil {
		srv := c.t.server
		reg.Counter("fault-refused", func() float64 { return float64(srv.Stats.Refused) })
		reg.Counter("fault-deferred", func() float64 { return float64(srv.Stats.Deferred) })
		reg.Counter("fault-lost-uploads", func() float64 { return float64(pl.Stats.LostUploads) })
		reg.Counter("fault-dropped-results", func() float64 { return float64(pl.Stats.DroppedResults) })
		reg.Counter("fault-churned-hosts", func() float64 { return float64(pl.Stats.Departures) })
	}
}

// bindProbe attaches the probe to a shared multi-project grid: tenant-
// scoped series get a "p<i>-" prefix, the shared fleet contributes the
// fleet/engine series plus the mux debt spread.
func (g *Grid) bindProbe(p *obs.Probe) *sim.Ticker {
	if p == nil {
		return nil
	}
	var wus, batches int64
	var ref float64
	for i, t := range g.tenants {
		t.bindObs(p, g.engine, "p"+strconv.Itoa(i))
		wus += t.report.DistinctWUs
		ref += t.report.TotalRefWork
		batches += int64(len(t.order))
	}
	p.Emit(0, "run-start",
		obs.Int("projects", int64(len(g.tenants))),
		obs.Int("wus", wus),
		obs.Num("ref-seconds", ref),
		obs.Int("batches", batches))
	var sampler *sim.Ticker
	if reg := p.Metrics; reg != nil {
		reg.Rebind()
		for i, t := range g.tenants {
			bindServerMetrics(reg, g.engine, t.server, "p"+strconv.Itoa(i)+"-")
		}
		bindFleetMetrics(reg, g.engine, g.kern, g.mux)
		sampler = g.engine.ObserveEvery(0, p.Cadence(), func(now sim.Time) {
			reg.Sample(now)
		})
	}
	return sampler
}

// bindServerMetrics registers the middleware-scoped catalog for one project
// server under the given series-name prefix.
func bindServerMetrics(reg *obs.Registry, engine *sim.Engine, srv *wcg.Server, prefix string) {
	reg.Gauge(prefix+"queue-depth", func() float64 { return float64(srv.PendingCount()) })
	reg.Gauge(prefix+"in-flight", func() float64 { return float64(srv.Stats.InFlight()) })
	for k := 0; k < srv.WheelClasses(); k++ {
		k := k
		reg.Gauge(prefix+"wheel-occ-"+strconv.Itoa(k), func() float64 {
			return float64(srv.WheelOccupancy(k))
		})
	}
	reg.Gauge(prefix+"invalid-rate", func() float64 {
		return ratio(float64(srv.Stats.Invalid), float64(srv.Stats.Received))
	})
	reg.Gauge(prefix+"late-rate", func() float64 {
		return ratio(float64(srv.Stats.LateReturns), float64(srv.Stats.Received))
	})
	reg.Gauge(prefix+"redundancy", func() float64 { return srv.Stats.RedundancyFactor() })
	reg.Counter(prefix+"results-received", func() float64 { return float64(srv.Stats.Received) })
	reg.Counter(prefix+"completed-wus", func() float64 { return float64(srv.Stats.Completed) })
	reg.Counter(prefix+"timeouts", func() float64 { return float64(srv.Stats.TimedOut) })
	reg.Counter(prefix+"cpu-seconds", func() float64 { return srv.Stats.CPUSeconds })
	// Credit throughput: reported CPU seconds accrued per sim day since the
	// previous sample. The closure's own state is sampler-private, so the
	// rate stays correct across registry decimation (variable sample gaps).
	var lastCPU, lastT float64
	reg.Gauge(prefix+"credit-throughput", func() float64 {
		now, cur := engine.Now(), srv.Stats.CPUSeconds
		dt := now - lastT
		var rate float64
		if dt > 0 {
			rate = (cur - lastCPU) / dt * sim.Day
		}
		lastCPU, lastT = cur, now
		return rate
	})
}

// bindFleetMetrics registers the fleet- and engine-scoped catalog (shared
// across tenants on a grid); mux is nil on a single-project campaign.
func bindFleetMetrics(reg *obs.Registry, engine *sim.Engine, kern *volunteer.ShardKernel, mux *volunteer.Mux) {
	reg.Gauge("active-hosts", func() float64 { return float64(kern.Active()) })
	reg.Counter("hosts-joined", func() float64 { return float64(kern.TotalJoined()) })
	reg.Gauge("pending-events", func() float64 { return float64(engine.Pending()) })
	reg.Counter("events-executed", func() float64 { return float64(engine.Executed()) })
	if mux != nil {
		reg.Gauge("mux-debt-spread", func() float64 {
			var sum float64
			n := 0
			kern.EachActive(func(id int) {
				sum += mux.DebtSpread(id)
				n++
			})
			return ratio(sum, float64(n))
		})
	}
}

// bindObs arms the tenant's trace hooks for one probed run: batch releases
// and snapshots emit from the tenant's own paths, quorum switches route
// through the server callback. name distinguishes tenants on a grid
// ("p0", "p1", ...; empty for a single-project campaign).
func (t *tenant) bindObs(p *obs.Probe, engine *sim.Engine, name string) {
	t.probe = p
	t.obsEngine = engine
	t.obsName = name
	if p.Trace != nil {
		t.server.OnQuorumSwitch = func(at sim.Time, from, to int) {
			t.emit(at, "quorum-switch", obs.Int("from", int64(from)), obs.Int("to", int64(to)))
		}
	}
}

// emit records one tenant-scoped trace event, stamping the tenant name on
// grid runs. Callers guard on t.probe != nil.
func (t *tenant) emit(at sim.Time, event string, fields ...obs.F) {
	if t.obsName != "" {
		// The project tag rides as a field; fixed fields stay allocation-
		// light because Emit reuses the trace's scratch buffer.
		t.probe.Emit(at, event, append(fields, obs.Str("project", t.obsName))...)
		return
	}
	t.probe.Emit(at, event, fields...)
}

// ratio returns a/b, or 0 when b is 0 (cumulative rates early in a run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}
